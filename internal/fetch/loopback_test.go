package fetch

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
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
	if f.Fetcher.BadResps != 0 || f.Fetcher.CrcErrs != 0 {
		t.Fatalf("codec rejects on a clean path: %+v", f.Fetcher)
	}
	if f.P50RTT <= 0 || f.P99RTT < f.P50RTT {
		t.Fatalf("rtt quantiles p50=%.4f p99=%.4f", f.P50RTT, f.P99RTT)
	}
}

// The acceptance scenario: three concurrent fetchers, ≥64 MiB total,
// under random loss and a reordering window, every object verifying.
func TestLoopbackMultiFlowLossReorder(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow bulk transfer in -short mode")
	}
	plan := chaos.Plan{Seed: 3, Faults: []chaos.Fault{
		{Kind: chaos.KindReorder, At: 0.5, Dur: 3.0, Value: 0.02, Delay: 0.003},
	}}
	res, err := RunLoopback(LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(70) },
		Shim: wire.ShimConfig{RateMbps: 100, QueueBytes: 1 << 18,
			Delay: 0.005, AckDelay: 0.005, LossProb: 0.003},
		Flows:        3,
		BytesPerFlow: 22 << 20, // 66 MiB total
		Timeout:      45,
		Chaos:        &plan,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || !res.AllVerified {
		for i, f := range res.Flows {
			t.Logf("flow %d: done=%v verified=%v bytes=%d stats=%+v shim=%+v",
				i, f.Done, f.Verified, f.Bytes, f.Fetcher, f.Shim)
		}
		t.Fatalf("multi-flow run incomplete: total=%d", res.TotalBytes)
	}
	if res.TotalBytes != 3*(22<<20) {
		t.Fatalf("total=%d want %d", res.TotalBytes, int64(3*(22<<20)))
	}
	var lost int64
	for _, f := range res.Flows {
		lost += f.Fetcher.LostReqs
		if f.Fetcher.Refetched != 0 {
			t.Fatalf("refetched=%d", f.Fetcher.Refetched)
		}
	}
	if lost == 0 {
		t.Fatalf("no losses across 66 MiB at 0.3%% random loss — impairments not applied?")
	}
}

// A mid-transfer blackout: the fetcher freezes, probes through the
// outage, resumes on heal, and never re-fetches a delivered segment.
func TestLoopbackBlackoutResume(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time blackout replay in -short mode")
	}
	plan := chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.KindBlackout, At: 0.6, Dur: 1.2},
	}}
	res, err := RunLoopback(LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(40) },
		Shim:          wire.ShimConfig{RateMbps: 60, QueueBytes: 1 << 17, Delay: 0.008, AckDelay: 0.008},
		BytesPerFlow:  8 << 20,
		Timeout:       30,
		Chaos:         &plan,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if !f.Done || !f.Verified {
		t.Fatalf("did not resume after blackout: %+v shim=%+v", f.Fetcher, f.Shim)
	}
	if f.Fetcher.WdTrips == 0 || f.Fetcher.WdRecov == 0 {
		t.Fatalf("watchdog trips=%d recov=%d", f.Fetcher.WdTrips, f.Fetcher.WdRecov)
	}
	if f.Fetcher.Refetched != 0 {
		t.Fatalf("blackout resume re-fetched %d delivered segments", f.Fetcher.Refetched)
	}
	if f.Secs < 1.8 {
		t.Fatalf("finished in %.2fs — the 1.2s blackout cannot have been applied", f.Secs)
	}
}

// Sim-vs-wire parity: the same controller fetching the same object over
// the same emulated path must land within a tolerance band of the
// simulator's goodput — the cross-validation gate the wire sender has,
// extended to the fetch datapath.
func TestLoopbackSimParity(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time parity run in -short mode")
	}
	const (
		rateMbps   = 20.0
		bottleneck = 50.0
		fwdDelay   = 0.010
		revDelay   = 0.010
		bytes      = int64(6 << 20)
	)

	// Simulator half.
	s := sim.New(1)
	link := netem.NewLink(s, bottleneck, 1<<17, fwdDelay)
	path := &netem.Path{Link: link, AckDelay: revDelay}
	doneAt := -1.0
	tr := &SimTransfer{
		S: s, Path: path, CC: fixedrate.New(rateMbps), ID: 1, ObjectBytes: bytes,
		OnComplete: func(now float64) { doneAt = now },
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	s.Run(120)
	if !tr.Done() {
		t.Fatalf("sim transfer incomplete: %+v", tr.Stats())
	}
	simMbps := float64(bytes) * 8 / doneAt / 1e6

	// Wire half, same shape.
	res, err := RunLoopback(LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(rateMbps) },
		Shim:          wire.ShimConfig{RateMbps: bottleneck, QueueBytes: 1 << 17, Delay: fwdDelay, AckDelay: revDelay},
		BytesPerFlow:  bytes,
		Timeout:       30,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone || !res.AllVerified {
		t.Fatalf("wire transfer incomplete: %+v", res.Flows[0].Fetcher)
	}
	wireMbps := res.Flows[0].GoodputMbps

	if ratio := wireMbps / simMbps; math.Abs(ratio-1) > 0.25 {
		t.Fatalf("goodput parity broken: wire %.2f Mbps vs sim %.2f Mbps (ratio %.2f)",
			wireMbps, simMbps, ratio)
	}
}

// datapathGoroutines counts the goroutines running or started by engine
// or fetch code — shims and the runtime's own are not among them.
func datapathGoroutines() (n int) {
	buf := make([]byte, 4<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("internal/engine.")) || bytes.Contains(g, []byte("internal/fetch.")) {
			n++
		}
	}
	return n
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
	peak := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(20 * time.Millisecond):
			peak = max(peak, datapathGoroutines())
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
	if n := int64(flows); res.Receiver.FetchReqs < n*(128<<10)/int64(DefaultSegSize) {
		t.Fatalf("server answered %d requests", res.Receiver.FetchReqs)
	}
}
