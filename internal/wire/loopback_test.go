package wire_test

import (
	"math"
	"testing"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/engine"
	"pccproteus/internal/wire"
)

// The tests in this package's external half drive the wire formats and
// the shim end to end the only way they run in production: an engine
// flow → shim → engine receiver over real loopback sockets.

// TestLoopbackFixedRate checks that an 8 Mbps fixed-rate flow through
// an uncongested 16 Mbps bottleneck gets its rate, its RTT, and
// (almost) no losses.
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
		Duration:    2.5,
		MeasureFrom: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mbps-8) > 1.6 {
		t.Fatalf("throughput %.2f Mbps want 8±1.6 (perSec %v)", res.Mbps, res.PerSecMbps)
	}
	if res.MeanRTT < 0.040 || res.MeanRTT > 0.080 {
		t.Fatalf("mean RTT %.1f ms want ~40-80 ms", res.MeanRTT*1e3)
	}
	if res.P95RTT < res.MeanRTT {
		t.Fatalf("p95 RTT %.4f below mean %.4f", res.P95RTT, res.MeanRTT)
	}
	if res.LossRate > 0.02 {
		t.Fatalf("loss rate %.3f on an uncongested path", res.LossRate)
	}
	if res.Shim.Overflow != 0 {
		t.Fatalf("shim overflow %d, internal backlog dropped packets", res.Shim.Overflow)
	}
	if res.Recv.Delivered == 0 || res.Flow.AckedPkts == 0 {
		t.Fatal("no packets made it end to end")
	}
}

// TestLoopbackRandomLoss checks that seeded random loss on the shim is
// detected by the sender's RACK machinery at roughly the configured
// probability.
func TestLoopbackRandomLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	res, err := engine.RunShimLoopback(engine.ShimLoopbackConfig{
		CC: fixedrate.New(6),
		Shim: wire.ShimConfig{
			RateMbps: 50, QueueBytes: 64 * 1500,
			Delay: 0.010, AckDelay: 0.010, LossProb: 0.04, Seed: 7,
		},
		Duration:    2.5,
		MeasureFrom: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shim.LostRandom == 0 {
		t.Fatal("shim destroyed no packets at 4% loss")
	}
	if res.Flow.LostPkts == 0 {
		t.Fatal("sender detected none of the shim's losses")
	}
	if res.LossRate < 0.005 || res.LossRate > 0.12 {
		t.Fatalf("detected loss rate %.3f want ≈0.04", res.LossRate)
	}
}
