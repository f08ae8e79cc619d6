package wire_test

import (
	"math"
	"math/rand"
	"testing"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/chaos"
	"pccproteus/internal/core"
	"pccproteus/internal/engine"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// The tests in this package's external half drive the wire formats end
// to end through the code that speaks them in production — an engine
// flow → bottleneck → engine receiver. Two of them, TestLoopbackFixedRate
// and TestLoopbackScavengerHoldsRate, do it the way `proteusd demo` does,
// on real sockets through an engine.Shim; the rest run on an
// engine.SimNet in virtual time, where a fault plan applies and a
// wall-clock tolerance does not.

// loopbackFlow starts cc's flow across a path shaped by cfg on a
// Loopback: in virtual time on s, or on real sockets if s is nil.
func loopbackFlow(t *testing.T, s *sim.Sim, cfg wire.ShimConfig, cc transport.Controller) (*engine.Loopback, *engine.Flow, *netem.Path) {
	t.Helper()
	lb, err := engine.NewLoopback(s, engine.Config{}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fl, path, err := lb.StartFlow(cfg, cc)
	if err != nil {
		lb.Stop()
		t.Fatal(err)
	}
	return lb, fl, path
}

// simResult is a simRun: the flow's measurements and its path's counters.
type simResult struct {
	engine.LoopbackRun
	Link netem.LinkStats
	Path netem.PathStats
}

// simRun runs cc's flow for dur virtual seconds across a bottleneck of
// the given shape under plan (nil for none), measuring from `from`.
func simRun(t *testing.T, seed int64, cc transport.Controller, mbps float64, queue int, oneWay, loss float64,
	plan *chaos.Plan, dur, from float64) simResult {
	t.Helper()
	lb, fl, path := loopbackFlow(t, sim.New(seed), wire.ShimConfig{RateMbps: mbps, QueueBytes: queue, Delay: oneWay, AckDelay: oneWay, LossProb: loss}, cc)
	defer lb.Stop()
	if err := lb.Install(nil, plan, dur); err != nil {
		t.Fatal(err)
	}
	return simResult{lb.Measure(fl, dur, from), path.Link.Stats(), path.Stats()}
}

// shimRun runs cc's flow for dur real seconds through a Shim shaped by
// cfg, measuring from `from` — what `proteusd demo` executes.
func shimRun(t *testing.T, cc transport.Controller, cfg wire.ShimConfig, dur, from float64) (engine.LoopbackRun, wire.ShimStats) {
	t.Helper()
	lb, fl, _ := loopbackFlow(t, nil, cfg, cc)
	defer lb.Stop()
	run := lb.Measure(fl, dur, from)
	return run, lb.Stop()[0]
}

// TestLoopbackFixedRate is this layer's real-socket smoke, in the style
// of ooni/netem's: what `proteusd demo` executes — an 8 Mbps fixed-rate
// flow through the shim's uncongested 16 Mbps, 40 ms, 2 % loss path on
// 127.0.0.1. A real stack adds to the path and never takes from it, so
// the bounds are one-sided where the host can only add: the median RTT
// is at least the configured one, and the sender declares every packet
// the relay destroyed.
func TestLoopbackFixedRate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	const loss = 0.02
	res, sh := shimRun(t, fixedrate.New(8), wire.ShimConfig{
		RateMbps: 16, QueueBytes: 64 * 1500,
		Delay: 0.020, AckDelay: 0.020, LossProb: loss, Seed: 1,
	}, 2, 0.8)
	t.Logf("%.2f Mbps, RTT p50 %.1f ms mean %.1f ms, sender declared %d lost; relay %+v",
		res.Mbps, res.P50RTT*1e3, res.MeanRTT*1e3, res.Flow.LostPkts, sh)
	if res.Recv.Delivered == 0 || res.Flow.AckedPkts == 0 || sh.Delivered == 0 || sh.AcksRelay == 0 {
		t.Fatalf("no packets made it end to end: shim %+v", sh)
	}
	// Real time on a shared box: the rate bound says "it ran", not how well.
	if math.Abs(res.Mbps-8*(1-loss)) > 1.6 {
		t.Errorf("throughput %.2f Mbps want 7.84±1.6 (perSec %v)", res.Mbps, res.PerSecMbps)
	}
	if res.P50RTT < 0.040 || res.MeanRTT > 0.080 {
		t.Errorf("median RTT %.1f ms, mean %.1f ms: want a median of at least the path's 40 ms and a mean under 80",
			res.P50RTT*1e3, res.MeanRTT*1e3)
	}
	if p, sigma := float64(sh.LostRandom)/float64(sh.Enqueued), math.Sqrt(loss*(1-loss)/float64(sh.Enqueued)); math.Abs(p-loss) > 4*sigma {
		t.Errorf("relay destroyed %d of %d packets (%.4f), want %.2f ± %.4f", sh.LostRandom, sh.Enqueued, p, loss, 4*sigma)
	}
	// The last few losses are still inside their reordering window when
	// the run ends.
	if lost := res.Flow.LostPkts; lost < sh.LostRandom-3 {
		t.Errorf("sender declared %d packets lost, the relay destroyed %d", lost, sh.LostRandom)
	}
	if sh.Overflow != 0 || sh.Dropped != 0 {
		t.Errorf("%d failed writes, %d tail drops on an uncongested path", sh.Overflow, sh.Dropped)
	}
}

// TestLoopbackScavengerHoldsRate is `proteusd send -shim -proto
// proteus-s` in one process: alone on a 20 Mbps, 40 ms relay, the
// scavenger must take most of the link. Its samples must carry the path
// and nothing of the host — a train the engine sent late still enters
// the relay's path at its stamp — or it reads its own host's wake
// lateness as competition and holds about 1 Mbps from the start.
func TestLoopbackScavengerHoldsRate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	res, sh := shimRun(t, core.NewProteusS(rand.New(rand.NewSource(1))),
		wire.ShimConfig{RateMbps: 20, Delay: 0.020, AckDelay: 0.020, Seed: 1}, 3, 1.5)
	t.Logf("%.2f Mbps %v, RTT p50 %.1f ms p95 %.1f ms; relay %+v",
		res.Mbps, res.PerSecMbps, res.P50RTT*1e3, res.P95RTT*1e3, sh)
	if res.Mbps < 12 {
		t.Errorf("%.2f Mbps over [1.5 s, 3 s] on an empty 20 Mbps path", res.Mbps)
	}
}

// TestLoopbackRandomLoss checks that the path's seeded random loss is
// detected by the sender's RACK machinery: every packet the link
// destroyed is declared lost, no other.
func TestLoopbackRandomLoss(t *testing.T) {
	res := simRun(t, 7, fixedrate.New(6), 50, 64*1500, 0.010, 0.04, nil, 2.5, 0.5)
	if res.Link.LostRandom < 30 {
		t.Fatalf("link destroyed %d packets at 4%% loss", res.Link.LostRandom)
	}
	// The last few losses are still inside their reordering window when
	// the run ends; none is declared that did not happen.
	if lost := res.Flow.LostPkts; lost > res.Link.LostRandom || lost < res.Link.LostRandom-3 {
		t.Fatalf("sender declared %d packets lost, the link destroyed %d", lost, res.Link.LostRandom)
	}
	if math.Abs(res.LossRate-0.04) > 0.015 {
		t.Fatalf("detected loss rate %.3f want ≈0.04", res.LossRate)
	}
	if res.Recv.RxDups != 0 || res.Link.Dropped != 0 {
		t.Fatalf("dups %d, tail drops %d on a 12%% loaded link", res.Recv.RxDups, res.Link.Dropped)
	}
}
