package wire_test

import (
	"math"
	"testing"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/chaos"
	"pccproteus/internal/engine"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// The tests in this package's external half drive the wire formats end
// to end through the code that speaks them in production — an engine
// flow → bottleneck → engine receiver. One of them, TestLoopbackFixedRate,
// does it the way `proteusd demo` does, on real sockets through the
// shim; the rest run on an engine.SimNet in virtual time, where a fault
// plan applies and a wall-clock tolerance does not.

// simRun runs cc's flow for dur virtual seconds across a bottleneck of
// the given shape under plan (nil for none), measuring from `from`.
func simRun(t *testing.T, seed int64, cc transport.Controller, mbps float64, queue int, oneWay, loss float64,
	plan *chaos.Plan, dur, from float64) *engine.SimLoopbackResult {
	t.Helper()
	s := sim.New(seed)
	link := netem.NewLink(s, mbps, queue, oneWay)
	link.LossProb = loss
	lb, err := engine.NewSimLoopback(s, &netem.Path{Link: link, AckDelay: oneWay}, cc)
	if err == nil {
		err = lb.Install(nil, plan, dur)
	}
	if err != nil {
		t.Fatal(err)
	}
	return lb.Run(dur, from)
}

// TestLoopbackFixedRate is this layer's real-socket smoke: what
// `proteusd demo` executes — an 8 Mbps fixed-rate flow through the
// static shim's uncongested 16 Mbps bottleneck on 127.0.0.1 gets its
// rate, its RTT, and (almost) no losses.
func TestLoopbackFixedRate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	res, err := engine.RunShimLoopback(engine.ShimLoopbackConfig{
		CC: fixedrate.New(8),
		Shim: wire.ShimConfig{
			RateMbps: 16, QueueBytes: 64 * 1500,
			Delay: 0.020, AckDelay: 0.020, Seed: 1,
		},
		Duration:    2,
		MeasureFrom: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Real time on a shared box: the bounds say "it ran", not how well.
	if math.Abs(res.Mbps-8) > 1.6 {
		t.Fatalf("throughput %.2f Mbps want 8±1.6 (perSec %v)", res.Mbps, res.PerSecMbps)
	}
	if res.MeanRTT < 0.040 || res.MeanRTT > 0.080 {
		t.Fatalf("mean RTT %.1f ms want ~40-80 ms", res.MeanRTT*1e3)
	}
	if res.LossRate > 0.02 {
		t.Fatalf("loss rate %.3f on an uncongested path", res.LossRate)
	}
	if res.Shim.Overflow != 0 {
		t.Fatalf("shim overflow %d, internal backlog dropped packets", res.Shim.Overflow)
	}
	if res.Recv.Delivered == 0 || res.Flow.AckedPkts == 0 || res.Shim.Delivered == 0 || res.Shim.AcksRelay == 0 {
		t.Fatalf("no packets made it end to end: shim %+v", res.Shim)
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
