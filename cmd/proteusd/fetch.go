package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"pccproteus/internal/engine"
	"pccproteus/internal/exp"
	"pccproteus/internal/fetch"
	"pccproteus/internal/wire"
)

// runFetch downloads one object from a fetch server (proteusd recv
// -serve DIR) with the segmented bulk-transfer protocol: a fetch flow on
// a one-shard engine paces FETCH requests under the controller, and the
// SEGMENT responses are reassembled in order and verified against the
// server's whole-object digest. The default controller is Proteus-S, so
// a fetch scavenges: it soaks up leftover capacity and yields to primary
// traffic sharing the path. Its flags are defined on fs, which the
// caller makes.
func runFetch(fs *flag.FlagSet, args []string) error {
	to := fs.String("to", "127.0.0.1:9741", "fetch server UDP address")
	object := fs.String("object", "", "object name to fetch (file name in the server's -serve dir)")
	out := fs.String("out", "", "output file (default: object's base name; \"-\" discards)")
	proto := fs.String("proto", exp.ProtoProteusS, "controller (proteus-s, proteus-p, proteus-h, ...)")
	seed := fs.Int64("seed", 1, "controller and shim RNG seed")
	timeout := fs.Float64("timeout", 0, "abort after this many seconds (0 = no limit)")
	quiet := fs.Bool("quiet", false, "suppress per-second progress")
	shimFlags := newShimFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *object == "" {
		return fmt.Errorf("-object is required (a file name served by proteusd recv -serve)")
	}
	addr, err := net.ResolveUDPAddr("udp", *to)
	if err != nil {
		return err
	}
	dst := addr.AddrPort()
	if shimFlags.enabled() {
		shim, err := engine.NewShim(shimFlags.config(*seed), dst)
		if err != nil {
			return err
		}
		defer shim.Stop()
		dst = shim.Addr()
		fmt.Printf("proteusd fetch: shim %s at %s\n", shimFlags.describe(), dst)
	}

	// Segments arrive strictly in order, so sequential writes reproduce
	// the object byte for byte.
	var sink *os.File
	dest := *out
	if dest == "" {
		dest = filepath.Base(*object)
	}
	if dest != "-" {
		if sink, err = os.Create(dest); err != nil {
			return err
		}
		defer sink.Close()
	}

	// The fetch runs as a flow on a one-shard engine, bound to the
	// wildcard of the server's family so the kernel picks the source
	// address per route; stopping the engine ends it.
	listen := "::"
	if dst.Addr().Unmap().Is4() {
		listen = "0.0.0.0"
	}
	eng, err := engine.New(engine.Config{ListenIP: listen})
	if err != nil {
		return err
	}
	defer eng.Stop()
	if err := eng.Start(); err != nil {
		return err
	}
	var writeErr error
	f, err := eng.AddFetch(dst, engine.FetchConfig{
		ObjID: fetch.ObjectID(*object),
		CC:    exp.NewControllerRNG(rand.New(rand.NewSource(wire.MixSeed(*seed, 0x55))), *proto),
		OnData: func(seg int64, payload []byte) {
			if sink != nil && writeErr == nil {
				_, writeErr = sink.Write(payload)
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("proteusd fetch: %s <- %q at %s (%s)\n", dest, *object, *to, *proto)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var deadline <-chan time.Time
	if *timeout > 0 {
		deadline = time.After(time.Duration(*timeout * float64(time.Second)))
	}
	t0 := time.Now()
	var last engine.FetchStats
	for {
		select {
		case <-f.Done():
			return fetchReport(f, t0, writeErr)
		case <-sig:
			fmt.Println("proteusd fetch: interrupted")
			f.Stop() // OnData, which writes writeErr, is not called after it
			return fetchReport(f, t0, writeErr)
		case <-deadline:
			return fmt.Errorf("timed out after %.0fs (%d bytes delivered)", *timeout, f.Stats().Delivered)
		case <-tick.C:
			st := f.Stats()
			if !*quiet {
				note := ""
				if st.InOutage {
					note = "  [outage]"
				}
				fmt.Printf("rx %7.3f Mbps  segs=%d lost=%d srtt=%5.1fms%s\n",
					float64(st.Delivered-last.Delivered)*8/1e6, st.SegsRx, st.LostReqs, st.SRTT*1e3, note)
			}
			last = st
		}
	}
}

// fetchReport prints the transfer summary and returns non-nil if the
// object did not arrive intact.
func fetchReport(f *engine.FetchFlow, t0 time.Time, writeErr error) error {
	st := f.Stats()
	secs := time.Since(t0).Seconds()
	mbps := 0.0
	if secs > 0 {
		mbps = float64(st.Delivered) * 8 / secs / 1e6
	}
	fmt.Printf("total: %d bytes in %.2fs (%.2f Mbps)  reqs=%d lost=%d dups=%d refetched=%d\n",
		st.Delivered, secs, mbps, st.ReqsSent, st.LostReqs, st.Dups, st.Refetched)
	fmt.Printf("rtt: p50=%.1fms p95=%.1fms p99=%.1fms\n", st.P50RTT*1e3, st.P95RTT*1e3, st.P99RTT*1e3)
	switch {
	case writeErr != nil:
		return fmt.Errorf("writing output: %w", writeErr)
	case !st.Done:
		return fmt.Errorf("incomplete: %d bytes delivered", st.Delivered)
	case !st.Verified:
		return fmt.Errorf("checksum mismatch: object corrupt")
	}
	fmt.Println("sha256: verified")
	return nil
}
