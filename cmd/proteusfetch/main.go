// Command proteusfetch downloads one object from a proteusd fetch
// server (proteusd recv -serve DIR) using the segmented bulk-transfer
// protocol: FETCH requests are paced by a congestion controller at the
// downloading endpoint, SEGMENT responses are reassembled in order and
// verified against the server's whole-object digest.
//
//	proteusd recv -listen 127.0.0.1:9741 -serve /srv/objects
//	proteusfetch -to 127.0.0.1:9741 -object kernel.tar -out /tmp/kernel.tar
//
// The default controller is Proteus-S, so a fetch scavenges: it soaks
// up leftover capacity and yields to primary traffic sharing the path.
// An emulated bottleneck can be interposed with -shim.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "proteusfetch: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("proteusfetch", flag.ExitOnError)
	to := fs.String("to", "127.0.0.1:9741", "fetch server UDP address")
	object := fs.String("object", "", "object name to fetch (file name in the server's -serve dir)")
	out := fs.String("out", "", "output file (default: object's base name; \"-\" discards)")
	proto := fs.String("proto", exp.ProtoProteusS, "controller (proteus-s, proteus-p, proteus-h, ...)")
	seed := fs.Int64("seed", 1, "controller RNG seed")
	window := fs.Int("window", 0, "reassembly window in segments (0 = default)")
	segSize := fs.Int("segsize", 0, "segment payload bytes; must match the server (0 = default)")
	timeout := fs.Float64("timeout", 0, "abort after this many seconds (0 = no limit)")
	quiet := fs.Bool("quiet", false, "suppress per-second progress")
	useShim := fs.Bool("shim", false, "interpose the impairment shim")
	mbps := fs.Float64("mbps", 20, "shim bottleneck capacity, Mbps")
	rtt := fs.Float64("rtt", 0.040, "shim base round-trip time, seconds")
	queue := fs.Int("queue", 0, "shim queue bytes (0 = 1.5×BDP)")
	loss := fs.Float64("loss", 0, "shim random loss probability")
	fs.Parse(args)

	if *object == "" {
		return fmt.Errorf("-object is required (a file name served by proteusd recv -serve)")
	}

	addr, err := net.ResolveUDPAddr("udp", *to)
	if err != nil {
		return err
	}
	dst := addr.AddrPort()
	if *useShim {
		shim, err := engine.NewShim(wire.ShimConfig{
			RateMbps: *mbps, QueueBytes: *queue, Delay: *rtt / 2, AckDelay: *rtt / 2,
			LossProb: *loss, Seed: wire.MixSeed(*seed, 0x77),
		}, dst)
		if err != nil {
			return err
		}
		defer shim.Stop()
		dst = shim.Addr()
		fmt.Printf("proteusfetch: shim %.0f Mbps / %.0f ms RTT at %s\n", *mbps, *rtt*1e3, dst)
	}

	// Output sink. Segments arrive strictly in order, so sequential
	// writes reproduce the object byte for byte.
	var sink *os.File
	dest := *out
	if dest == "" {
		dest = filepath.Base(*object)
	}
	if dest != "-" {
		sink, err = os.Create(dest)
		if err != nil {
			return err
		}
		defer sink.Close()
	}

	// The fetch runs as a flow on a one-shard engine sized for a full
	// segment response; stopping the engine ends it.
	eng, err := engine.New(engine.Config{
		ListenIP: wildcardFor(dst.Addr()), MaxPacket: wire.SegmentHeaderLen + max(*segSize, fetch.DefaultSegSize),
	})
	if err != nil {
		return err
	}
	defer eng.Stop()
	if err := eng.Start(); err != nil {
		return err
	}

	var writeErr error
	rng := rand.New(rand.NewSource(wire.MixSeed(*seed, 0x55)))
	f := &fetch.Fetcher{
		Dst: dst, CC: exp.NewControllerRNG(rng, *proto),
		ObjID: fetch.ObjectID(*object), SegSize: *segSize, Window: *window,
		OnData: func(seg int64, payload []byte) {
			if sink != nil && writeErr == nil {
				_, writeErr = sink.Write(payload)
			}
		},
	}
	if err := f.Start(eng); err != nil {
		return err
	}
	fmt.Printf("proteusfetch: %s <- %q at %s (%s)\n", dest, *object, *to, *proto)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var deadline <-chan time.Time
	if *timeout > 0 {
		deadline = time.After(time.Duration(*timeout * float64(time.Second)))
	}
	t0 := time.Now()
	var last fetch.FetcherStats
	for {
		select {
		case <-f.Done():
			return report(f, t0, writeErr)
		case <-sig:
			fmt.Println("proteusfetch: interrupted")
			return report(f, t0, writeErr)
		case <-deadline:
			return fmt.Errorf("timed out after %.0fs (%d bytes delivered)", *timeout, f.Stats().Delivered)
		case <-tick.C:
			st := f.Stats()
			if !*quiet {
				fmt.Printf("rx %7.3f Mbps  segs=%d lost=%d srtt=%5.1fms%s\n",
					float64(st.Delivered-last.Delivered)*8/1e6,
					st.SegsRx, st.LostReqs, st.SRTT*1e3, outageNote(st))
			}
			last = st
		}
	}
}

// wildcardFor returns the wildcard bind address of dst's family: the
// kernel then picks the source address per route, as for a dialed socket.
func wildcardFor(dst netip.Addr) string {
	if dst.Unmap().Is4() {
		return "0.0.0.0"
	}
	return "::"
}

func outageNote(st fetch.FetcherStats) string {
	if st.InOutage {
		return "  [outage]"
	}
	return ""
}

// report prints the transfer summary and returns non-nil if the object
// did not arrive intact.
func report(f *fetch.Fetcher, t0 time.Time, writeErr error) error {
	st := f.Stats()
	secs := time.Since(t0).Seconds()
	mbps := 0.0
	if secs > 0 {
		mbps = float64(st.Delivered) * 8 / secs / 1e6
	}
	fmt.Printf("total: %d bytes in %.2fs (%.2f Mbps)  reqs=%d lost=%d dups=%d refetched=%d\n",
		st.Delivered, secs, mbps, st.ReqsSent, st.LostReqs, st.Dups, st.Refetched)
	fmt.Printf("rtt: p50=%.1fms p95=%.1fms p99=%.1fms\n", st.P50RTT*1e3, st.P95RTT*1e3, st.P99RTT*1e3)
	if writeErr != nil {
		return fmt.Errorf("writing output: %w", writeErr)
	}
	if !st.Done {
		return fmt.Errorf("incomplete: %d bytes delivered", st.Delivered)
	}
	if !st.Verified {
		return fmt.Errorf("checksum mismatch: object corrupt")
	}
	fmt.Println("sha256: verified")
	return nil
}
