// Command proteusd is the standalone wire-datapath daemon: the engine
// the parity gates drive in virtual time, here on real sockets, so the
// Proteus controllers can be run between two real processes (typically
// both on localhost).
//
// A two-process session looks like:
//
//	proteusd recv -listen 127.0.0.1:9741
//	proteusd send -to 127.0.0.1:9741 -proto proteus-s -duration 10
//
// The sender can interpose the userspace impairment shim in front of
// the destination with -shim, which emulates a bottleneck (rate,
// tail-drop queue, propagation delay, random loss) without root:
//
//	proteusd send -to 127.0.0.1:9741 -shim -mbps 20 -rtt 0.040 -duration 10
//
// `proteusd demo` runs sender, shim and receiver in one process — the
// quickest way to watch a controller work over real sockets.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pccproteus/internal/engine"
	"pccproteus/internal/exp"
	"pccproteus/internal/fetch"
	"pccproteus/internal/overload"
	"pccproteus/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "recv":
		err = runRecv(os.Args[2:])
	case "send":
		err = runSend(os.Args[2:])
	case "demo":
		err = runDemo(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteusd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: proteusd <recv|send|demo> [flags]

  recv  -listen ADDR [-serve DIR] [-shards N]         ack-generating receiver / fetch server
  send  -to ADDR -proto NAME [-flows N] [-shim ...]    congestion-controlled sender
  demo  [-proto NAME ...]                              single-process loopback run

run "proteusd <mode> -h" for the mode's flags`)
}

// newEngineRetry builds the engine, retrying transient bind errors
// with exponential backoff (100 ms doubling, 6 attempts) so a daemon
// restarting into a lingering port wins the race instead of dying.
func newEngineRetry(cfg engine.Config) (*engine.Engine, error) {
	var err error
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 6; attempt++ {
		if attempt > 0 {
			fmt.Fprintf(os.Stderr, "proteusd: bind: %v — retrying in %v\n", err, backoff)
			time.Sleep(backoff)
			backoff *= 2
		}
		var eng *engine.Engine
		if eng, err = engine.New(cfg); err == nil {
			return eng, nil
		}
	}
	return nil, fmt.Errorf("bind: %w", err)
}

// startFlows admits n flows through start, enforcing the flow cap
// BEFORE anything is spawned: an over-cap batch must be rejected
// whole, costing zero goroutines, sockets, or engine slots — under
// admission churn a check placed after the spawn leaks resources on
// every rejected round.
func startFlows(n, maxFlows int, start func(i int) error) error {
	if n < 1 {
		return fmt.Errorf("proteusd: need at least one flow, got %d", n)
	}
	if maxFlows > 0 && n > maxFlows {
		return fmt.Errorf("proteusd: %d flows exceed -max-flows %d", n, maxFlows)
	}
	for i := 0; i < n; i++ {
		if err := start(i); err != nil {
			return fmt.Errorf("flow %d: %w", i, err)
		}
	}
	return nil
}

// classStatsLine formats the engine's brownout state and per-class
// admission counters: one glanceable line showing that pressure is
// being spent on scavengers (shed/rejected) before primaries.
func classStatsLine(st engine.Stats) string {
	return fmt.Sprintf(
		"overload: state=%s worst=%s pressure=%.2f admitted=%d/%d rejected=%d/%d shed=%d/%d paused=%d busy=%d/%d evicted=%d (primary/scavenger)",
		st.Overload, st.WorstOverload, st.Pressure,
		st.AdmittedPrimary, st.AdmittedScavenger,
		st.RejectedPrimary, st.RejectedScavenger,
		st.ShedPrimary, st.ShedScavenger,
		st.Paused, st.BusyTx, st.BusyRx, st.Evicted)
}

// statsTicker returns a ticker channel firing every interval seconds,
// or a nil channel (never fires) when the interval is off.
func statsTicker(interval float64) (<-chan time.Time, func()) {
	if interval <= 0 {
		return nil, func() {}
	}
	t := time.NewTicker(time.Duration(interval * float64(time.Second)))
	return t.C, t.Stop
}

// runRecv receives on one engine — shard i on listen-port+i, every
// incoming flow multiplexed onto the shard loops — optionally serving
// fetch requests, and prints a per-second line of receive-side
// counters until interrupted.
func runRecv(args []string) error {
	fs := flag.NewFlagSet("recv", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9741", "UDP address to listen on (shard i listens on port+i)")
	quiet := fs.Bool("quiet", false, "suppress per-second stats")
	idle := fs.Float64("idle", 60, "evict a flow after this many seconds without packets (0 = default)")
	maxFlows := fs.Int("max-flows", 0, "per-shard flow-state cap; stalest flow is evicted at the cap (0 = default)")
	serve := fs.String("serve", "", "also answer segmented fetch requests for every file in this directory (proteusfetch is the client)")
	shards := fs.Int("shards", 2, "engine shards")
	statsInterval := fs.Float64("stats-interval", 0, "print a per-class overload stats line every this many seconds (0 = off)")
	fs.Parse(args)

	addr, err := net.ResolveUDPAddr("udp", *listen)
	if err != nil {
		return err
	}
	cfg := engine.Config{
		Shards: *shards, ListenIP: "0.0.0.0", ListenPort: addr.Port,
		IdleTimeout: *idle, MaxFlowsPerShard: *maxFlows,
	}
	if addr.IP != nil {
		cfg.ListenIP = addr.IP.String()
	}
	if *serve != "" {
		store := fetch.NewStore(0)
		names, err := store.ServeDir(*serve)
		if err != nil {
			return err
		}
		cfg.OnFetch = store.HandleFetch
		cfg.MaxPacket = max(2048, store.SegSize+wire.SegmentHeaderLen)
		fmt.Printf("proteusd recv: serving %d objects from %s: %v\n", len(names), *serve, names)
	}
	eng, err := newEngineRetry(cfg)
	if err != nil {
		return err
	}
	defer eng.Stop()
	if err := eng.Start(); err != nil {
		return err
	}
	fmt.Printf("proteusd recv: listening on %v\n", eng.Addrs())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	ovTick, stopOv := statsTicker(*statsInterval)
	defer stopOv()
	var last engine.Stats
	for {
		select {
		case <-sig:
			// The engine stops only after the final summary is captured,
			// so the counters reflect everything the datapath did.
			st := eng.Stats()
			fmt.Printf("total: pkts=%d bytes=%d dups=%d acks=%d flows=%d evicted=%d rebinds=%d bad=%d batches=%d fetch=%d segs=%d\n",
				st.Delivered, st.DeliveredBytes, st.RxDups, st.TxPkts-st.SegsTx, st.Flows,
				st.Evicted, st.Rebinds, st.BadPkts, st.RxBatches, st.FetchReqs, st.SegsTx)
			fmt.Println(classStatsLine(st))
			return nil
		case <-ovTick:
			fmt.Println(classStatsLine(eng.Stats()))
		case <-tick.C:
			st := eng.Stats()
			if !*quiet && st.RxPkts != last.RxPkts {
				fmt.Printf("rx %7.3f Mbps  pkts=%d dups=%d flows=%d batches=%d fetch=%d segs=%d\n",
					float64(st.DeliveredBytes-last.DeliveredBytes)*8/1e6,
					st.Delivered, st.RxDups, st.Flows, st.RxBatches, st.FetchReqs, st.SegsTx)
			}
			last = st
		}
	}
}

// runSend drives congestion-controlled flows at the given address on
// one engine — a fixed set of event loops, batched socket I/O, no
// per-flow goroutines — optionally through an in-process impairment
// shim, and prints a per-second line of send-side counters. Scavenger
// protocols are tagged with the scavenger class so the receiver's
// overload control sheds them first.
func runSend(args []string) error {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	to := fs.String("to", "127.0.0.1:9741", "receiver UDP address")
	proto := fs.String("proto", exp.ProtoProteusP, "controller (proteus-p, proteus-s, proteus-h, ...)")
	duration := fs.Float64("duration", 10, "seconds to run (0 = until interrupted)")
	seed := fs.Int64("seed", 1, "controller RNG seed")
	quiet := fs.Bool("quiet", false, "suppress per-second stats")
	drain := fs.Duration("drain", 2*time.Second, "on exit, stop sending and wait up to this long for in-flight packets to be acked")
	flows := fs.Int("flows", 1, "concurrent flows (each with its own controller)")
	maxFlows := fs.Int("max-flows", 4096, "refuse to start more than this many flows (checked before any flow is admitted)")
	shards := fs.Int("shards", 2, "engine shards (-shim forces 1, the shim tracks a single return socket)")
	bind := fs.String("bind", "127.0.0.1", "engine shard bind IP")
	statsInterval := fs.Float64("stats-interval", 0, "print a per-class overload stats line every this many seconds (0 = off)")
	shimFlags := newShimFlags(fs)
	fs.Parse(args)

	dst, err := net.ResolveUDPAddr("udp", *to)
	if err != nil {
		return err
	}
	if shimFlags.enabled() {
		shim, err := wire.NewShim(shimFlags.config(*seed), dst)
		if err != nil {
			return err
		}
		if err := shim.Start(); err != nil {
			return err
		}
		defer func() {
			shim.Stop()
			st := shim.Stats()
			fmt.Printf("shim: enq=%d drop=%d rand=%d fwd=%d acks=%d\n",
				st.Enqueued, st.Dropped, st.LostRandom, st.Delivered, st.AcksRelay)
		}()
		dst = shim.Addr()
		*shards = 1
		fmt.Printf("proteusd send: shim %s at %s\n", shimFlags.describe(), dst)
	}
	perShard := 0
	if *maxFlows > 0 {
		perShard = (*maxFlows + *shards - 1) / *shards
	}
	eng, err := engine.New(engine.Config{
		Shards: *shards, ListenIP: *bind, MaxFlowsPerShard: perShard,
	})
	if err != nil {
		return err
	}
	defer eng.Stop()
	if err := eng.Start(); err != nil {
		return err
	}
	class := overload.ClassOf(*proto)
	handles := make([]*engine.Flow, 0, *flows)
	err = startFlows(*flows, *maxFlows, func(i int) error {
		rng := rand.New(rand.NewSource(wire.MixSeed(*seed, 0x55+int64(i))))
		fl, err := eng.AddFlow(engine.FlowConfig{
			Dst: dst.AddrPort(), CC: exp.NewControllerRNG(rng, *proto), Class: class,
		})
		if err == nil {
			handles = append(handles, fl)
		}
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("proteusd send: %s ×%d (%d shards) -> %s\n", *proto, *flows, *shards, dst)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	ovTick, stopOv := statsTicker(*statsInterval)
	defer stopOv()
	deadline := time.Now().Add(time.Duration(*duration * float64(time.Second)))
	var lastAcked int64
	total := func() (acked, lost int64, srtt float64, unacked int) {
		for _, fl := range handles {
			st := fl.Stats()
			acked += st.AckedBytes
			lost += st.LostPkts
			srtt += st.SRTT
			unacked += st.UnackedRecs
		}
		srtt /= float64(len(handles))
		return
	}
	for {
		select {
		case <-sig:
		case <-ovTick:
			fmt.Println(classStatsLine(eng.Stats()))
			continue
		case <-tick.C:
			acked, lost, srtt, _ := total()
			if !*quiet {
				est := eng.Stats()
				fmt.Printf("tx %7.3f Mbps  srtt=%5.1fms lost=%d pkts=%d batches=%d\n",
					float64(acked-lastAcked)*8/1e6, srtt*1e3, lost, est.TxPkts, est.TxBatches)
			}
			lastAcked = acked
			if *duration <= 0 || time.Now().Before(deadline) {
				continue
			}
		}
		eng.Drain()
		awaitDrain(func() int { _, _, _, n := total(); return n }, sig, *drain)
		acked, lost, srtt, _ := total()
		est := eng.Stats()
		fmt.Printf("total: acked=%d bytes lost=%d srtt=%.1fms txpkts=%d txbatches=%d rxbatches=%d\n",
			acked, lost, srtt*1e3, est.TxPkts, est.TxBatches, est.RxBatches)
		fmt.Println(classStatsLine(est))
		return nil
	}
}

// awaitDrain is the tail of a graceful shutdown: with the engine
// already draining (no new data offered), wait for the in-flight
// packets to resolve so exit doesn't strand a window — bounded by
// timeout, and aborted by a second signal.
func awaitDrain(unacked func() int, sig <-chan os.Signal, timeout time.Duration) {
	n := unacked()
	if timeout <= 0 || n == 0 {
		return
	}
	fmt.Printf("proteusd send: draining %d in-flight packets (signal again to abort)\n", n)
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	expired := time.After(timeout)
	for {
		select {
		case <-poll.C:
			if unacked() == 0 {
				return
			}
		case <-expired:
			fmt.Println("proteusd send: drain timed out")
			return
		case <-sig:
			fmt.Println("proteusd send: drain aborted")
			return
		}
	}
}

// runDemo is the single-process version: engine.RunShimLoopback with a
// summary.
func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	proto := fs.String("proto", exp.ProtoProteusP, "controller to run")
	duration := fs.Float64("duration", 10, "seconds to run")
	seed := fs.Int64("seed", 1, "controller and shim RNG seed")
	shimFlags := newShimFlags(fs)
	fs.Parse(args)

	fmt.Printf("proteusd demo: %s over %s for %.0fs\n", *proto, shimFlags.describe(), *duration)
	res, err := engine.RunShimLoopback(engine.ShimLoopbackConfig{
		CC:       exp.NewControllerRNG(rand.New(rand.NewSource(wire.MixSeed(*seed, 0x55))), *proto),
		Shim:     shimFlags.config(*seed),
		Duration: *duration,
	})
	if err != nil {
		return err
	}
	fmt.Printf("per-second Mbps:")
	for _, m := range res.PerSecMbps {
		fmt.Printf(" %.1f", m)
	}
	fmt.Printf("\nsteady state: %.2f Mbps, mean RTT %.1f ms, p95 %.1f ms, loss %.2f%%\n",
		res.Mbps, res.MeanRTT*1e3, res.P95RTT*1e3, res.LossRate*100)
	return nil
}

// shimFlags groups the emulated-bottleneck flags shared by send/demo.
type shimFlags struct {
	use   *bool
	mbps  *float64
	rtt   *float64
	queue *int
	loss  *float64
}

func newShimFlags(fs *flag.FlagSet) *shimFlags {
	return &shimFlags{
		use:   fs.Bool("shim", false, "interpose the impairment shim (demo always does)"),
		mbps:  fs.Float64("mbps", 20, "shim bottleneck capacity, Mbps"),
		rtt:   fs.Float64("rtt", 0.040, "shim base round-trip time, seconds"),
		queue: fs.Int("queue", 0, "shim queue bytes (0 = 1.5×BDP)"),
		loss:  fs.Float64("loss", 0, "shim random loss probability"),
	}
}

func (sf *shimFlags) enabled() bool { return *sf.use }

func (sf *shimFlags) config(seed int64) wire.ShimConfig {
	queue := *sf.queue
	if queue <= 0 {
		queue = int(1.5 * *sf.mbps * 1e6 / 8 * *sf.rtt)
	}
	return wire.ShimConfig{
		RateMbps:   *sf.mbps,
		QueueBytes: queue,
		Delay:      *sf.rtt / 2,
		AckDelay:   *sf.rtt / 2,
		LossProb:   *sf.loss,
		Seed:       wire.MixSeed(seed, 0x77),
	}
}

func (sf *shimFlags) describe() string {
	return fmt.Sprintf("%.0f Mbps / %.0f ms RTT", *sf.mbps, *sf.rtt*1e3)
}
