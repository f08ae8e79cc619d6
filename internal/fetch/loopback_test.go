package fetch

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/chaos"
	"pccproteus/internal/core"
	"pccproteus/internal/engine/enginetest"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

func TestLoopbackSingleFlowClean(t *testing.T) {
	res, err := RunLoopback(LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(30) },
		Shim:          wire.ShimConfig{RateMbps: 50, QueueBytes: 1 << 17, Delay: 0.010, AckDelay: 0.010},
		BytesPerFlow:  2 << 20,
		Timeout:       20,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || !res.AllVerified {
		t.Fatalf("done=%v verified=%v flow=%+v", res.AllDone, res.AllVerified, res.Flows[0].Fetcher)
	}
	f := res.Flows[0]
	if f.Bytes != 2<<20 {
		t.Fatalf("delivered=%d want %d", f.Bytes, int64(2)<<20)
	}
	if f.Fetcher.Refetched != 0 {
		t.Fatalf("refetched=%d", f.Fetcher.Refetched)
	}
	if res.Receiver.BadPkts != 0 || f.Fetcher.CrcErrs != 0 {
		t.Fatalf("codec rejects on a clean path: server %+v, fetch %+v", res.Receiver, f.Fetcher)
	}
	if f.P50RTT <= 0 || f.P99RTT < f.P50RTT {
		t.Fatalf("rtt quantiles p50=%.4f p99=%.4f", f.P50RTT, f.P99RTT)
	}
}

// TestLoopbackScavengerFetch is a Proteus-S fetch on real sockets through
// a lossy 40 Mbps, 20 ms relay — `proteusd fetch -shim`'s path. A scavenger
// reads any delay its samples carry beyond the path's as competition, so
// the relay must keep host timing out of them: requests that reach it
// late, its own late wakes, the server's turnaround. When it does not,
// the scavenger holds about 1 Mbps while a primary on the same path
// barely notices.
//
// The scavenger is judged against a Proteus-P fetch run just before it
// in the same process: a host busy enough to slow the scavenger's ramp
// slows the primary's alike, so their goodput ratio is a property of the
// datapath, not of the box.
func TestLoopbackScavengerFetch(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	// The primary runs first, then the scavenger, each through its own
	// relay with the same config and seed: the same path, and the same
	// loss pattern.
	var runs []FlowResult
	for _, newCC := range []func() transport.Controller{
		func() transport.Controller { return core.NewProteusP(rand.New(rand.NewSource(1))) },
		func() transport.Controller { return core.NewProteusS(rand.New(rand.NewSource(1))) },
	} {
		res, err := RunLoopback(LoopbackConfig{
			NewController: newCC,
			Shim:          wire.ShimConfig{RateMbps: 40, Delay: 0.010, AckDelay: 0.010, LossProb: 0.01},
			BytesPerFlow:  3 << 20,
			Timeout:       20,
			Seed:          1,
		})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res.Flows[0])
	}
	ref, f := runs[0], runs[1]
	t.Logf("primary %.2f s, %.2f Mbps, RTT p50 %.1f ms; scavenger %.2f s, %.2f Mbps (share %.2f), RTT p50 %.1f ms p95 %.1f ms; fetcher %+v; relay %+v",
		ref.Secs, ref.GoodputMbps, ref.P50RTT*1e3, f.Secs, f.GoodputMbps, f.GoodputMbps/ref.GoodputMbps, f.P50RTT*1e3, f.P95RTT*1e3, f.Fetcher, f.Shim)
	// Alone on its path the scavenger ramps as a primary does. On a
	// 2-vCPU box its share read 0.81–1.03 idle and 0.68–1.16 beside two
	// CPU hogs; a 1 Mbps fixed-rate fetch in its place reads 0.14.
	if share := f.GoodputMbps / ref.GoodputMbps; share < 0.5 {
		t.Errorf("scavenger %.2f Mbps is %.2f of the primary's %.2f: it yielded to nothing but the host",
			f.GoodputMbps, share, ref.GoodputMbps)
	}
	if f.P50RTT > 0.025 {
		t.Errorf("median RTT %.1f ms on a 20 ms path with a short queue", f.P50RTT*1e3)
	}
	if !ref.Done || !ref.Verified || !f.Done || !f.Verified {
		t.Errorf("fetches incomplete after %.1f s: %d and %d of %d bytes", max(ref.Secs, f.Secs), ref.Bytes, f.Bytes, 3<<20)
	}
}

// The acceptance scenario: three concurrent fetchers, ≥64 MiB total,
// under random loss and a reordering window, every object verifying.
func TestLoopbackMultiFlowLossReorder(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow bulk transfer in -short mode")
	}
	plan := chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.KindReorder, At: 0.5, Dur: 3.0, Value: 0.02, Delay: 0.003},
	}}
	res, err := runLoopback(sim.New(7), LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(70) },
		Shim: wire.ShimConfig{RateMbps: 100, QueueBytes: 1 << 18,
			Delay: 0.005, AckDelay: 0.005, LossProb: 0.003},
		Flows:        3,
		BytesPerFlow: 22 << 20, // 66 MiB total
		Timeout:      45,
		Seed:         7,
	}, &plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || !res.AllVerified {
		for i, f := range res.Flows {
			t.Logf("flow %d: done=%v verified=%v bytes=%d stats=%+v link=%+v",
				i, f.Done, f.Verified, f.Bytes, f.Fetcher, f.Shim)
		}
		t.Fatalf("multi-flow run incomplete: total=%d", res.TotalBytes)
	}
	if res.TotalBytes != 3*(22<<20) {
		t.Fatalf("total=%d want %d", res.TotalBytes, int64(3*(22<<20)))
	}
	for i, f := range res.Flows {
		if f.Fetcher.Refetched != 0 {
			t.Fatalf("refetched=%d", f.Fetcher.Refetched)
		}
		// Every segment the link destroyed is a request declared lost;
		// reordering by 3 ms may add a few spurious ones, never hide one.
		if f.Shim.LostRandom == 0 || f.Fetcher.LostReqs < f.Shim.LostRandom {
			t.Fatalf("flow %d: link destroyed %d segments, fetcher declared %d requests lost", i, f.Shim.LostRandom, f.Fetcher.LostReqs)
		}
	}
}

// A mid-transfer blackout: the fetcher freezes, probes through the
// outage, resumes on heal, and never re-fetches a delivered segment.
func TestLoopbackBlackoutResume(t *testing.T) {
	plan := chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.KindBlackout, At: 0.6, Dur: 1.2},
	}}
	res, err := runLoopback(sim.New(9), LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(40) },
		Shim:          wire.ShimConfig{RateMbps: 60, QueueBytes: 1 << 17, Delay: 0.008, AckDelay: 0.008},
		BytesPerFlow:  8 << 20,
		Timeout:       30,
		Seed:          9,
	}, &plan)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if !f.Done || !f.Verified {
		t.Fatalf("did not resume after blackout: %+v link=%+v", f.Fetcher, f.Shim)
	}
	if f.Fetcher.WdTrips != 1 || f.Fetcher.WdRecov != 1 {
		t.Fatalf("watchdog trips=%d recov=%d", f.Fetcher.WdTrips, f.Fetcher.WdRecov)
	}
	if f.Fetcher.Refetched != 0 {
		t.Fatalf("blackout resume re-fetched %d delivered segments", f.Fetcher.Refetched)
	}
	// 8 MiB at 40 Mbps is 1.68 s of transfer around 1.2 s of blackout.
	if f.Secs < 2.88 || f.Secs > 3.5 {
		t.Fatalf("finished in %.3fs, want the transfer time plus the blackout and a probe interval", f.Secs)
	}
}

// A fixed-rate fetch on a SimNet lands on its analytic goodput. The
// controller paces response wire bytes, of which the payload share
// wire.SegSize/(wire.SegSize+SegmentHeaderLen) is object data; the
// transfer adds two round trips to that — the metadata exchange before
// the first data request, and the last request's after its pacing slot.
func TestLoopbackSimParity(t *testing.T) {
	const (
		rateMbps = 20.0
		delay    = 0.010 // each way
		bytes    = int64(6 << 20)
	)
	res, err := runLoopback(sim.New(11), LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(rateMbps) },
		Shim:          wire.ShimConfig{RateMbps: 50, QueueBytes: 1 << 17, Delay: delay, AckDelay: delay},
		BytesPerFlow:  bytes,
		Timeout:       30,
		Seed:          11,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || !res.AllVerified {
		t.Fatalf("engine transfer incomplete: %+v", res.Flows[0].Fetcher)
	}
	payloadRate := rateMbps * 1e6 / 8 * float64(wire.SegSize) / float64(wire.SegSize+wire.SegmentHeaderLen)
	want := float64(bytes) * 8 / (float64(bytes)/payloadRate + 4*delay) / 1e6
	// Serialisation and noticing completion on a 5 ms grid are inside a
	// percent.
	if got := res.Flows[0].GoodputMbps; math.Abs(got/want-1) > 0.01 {
		t.Fatalf("goodput %.3f Mbps, analytic %.3f Mbps (ratio %.4f)", got, want, got/want)
	}
}

// Every fetch is a flow on the one client shard: 64 concurrent
// transfers complete and verify with no goroutine per fetch.
func TestLoopbackManyFetchesOneShard(t *testing.T) {
	const flows = 64
	var res *LoopbackResult
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = RunLoopback(LoopbackConfig{
			NewController: func() transport.Controller { return fixedrate.New(2) },
			Shim:          wire.ShimConfig{RateMbps: 10, QueueBytes: 1 << 16, Delay: 0.005, AckDelay: 0.005, LossProb: 0.002},
			Flows:         flows,
			BytesPerFlow:  128 << 10,
			Timeout:       60,
			Seed:          13,
		})
	}()
	peak, peakRelays := 0, 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(20 * time.Millisecond):
			n, relays := enginetest.DatapathGoroutines()
			peak, peakRelays = max(peak, n), max(peakRelays, relays)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || !res.AllVerified || len(res.Flows) != flows {
		t.Fatalf("done=%v verified=%v flows=%d", res.AllDone, res.AllVerified, len(res.Flows))
	}
	for i, f := range res.Flows {
		if f.Bytes != 128<<10 || f.Fetcher.Refetched != 0 || f.Fetcher.CrcErrs != 0 || f.Shim.Overflow != 0 {
			t.Fatalf("flow %d: bytes=%d stats=%+v shim=%+v", i, f.Bytes, f.Fetcher, f.Shim)
		}
	}
	// This test, the RunLoopback call, and one shard loop each for the
	// server and the client engine — however many fetches run.
	if peak > 4 {
		t.Fatalf("%d engine/fetch goroutines at peak for %d fetches, want 4", peak, flows)
	}
	// And one goroutine per shim: the relay owns its socket and its path.
	if peakRelays != flows {
		t.Fatalf("%d relay goroutines at peak for %d shims, want one each", peakRelays, flows)
	}
	if n := int64(flows); res.Receiver.FetchReqs < n*(128<<10)/int64(wire.SegSize) {
		t.Fatalf("server answered %d requests", res.Receiver.FetchReqs)
	}
}
