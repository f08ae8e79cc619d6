package fetch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/chaos"
	"pccproteus/internal/engine"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
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

// simLoopback is RunLoopback's topology on an engine.SimNet in virtual
// time: one serving engine, and per fetcher its own client engine behind
// its own bottleneck (segments cross the link, requests take the return
// path), each path under plan when one is given. It runs until every
// fetch is done or timeout virtual seconds have passed.
func simLoopback(t *testing.T, cfg LoopbackConfig, plan *chaos.Plan) *LoopbackResult {
	t.Helper()
	s := sim.New(cfg.Seed)
	n := engine.NewSimNet(s)
	store := NewStore(cfg.SegSize)
	maxPkt := store.SegSize + wire.SegmentHeaderLen
	srv := n.NewEngine(engine.Config{OnFetch: store.HandleFetch, MaxPacket: maxPkt})
	srv.Start()
	defer srv.Stop()

	fetchers := make([]*Fetcher, max(cfg.Flows, 1))
	paths := make([]*netem.Path, len(fetchers))
	for i := range fetchers {
		data := make([]byte, cfg.BytesPerFlow)
		rand.New(rand.NewSource(wire.MixSeed(cfg.Seed, int64(i)))).Read(data)
		link := netem.NewLink(s, cfg.Shim.RateMbps, cfg.Shim.QueueBytes, cfg.Shim.Delay)
		link.LossProb = cfg.Shim.LossProb
		paths[i] = &netem.Path{Link: link, AckDelay: cfg.Shim.AckDelay}
		if _, err := pathmodel.Install(s, paths[i], nil, plan, cfg.Timeout); err != nil {
			t.Fatal(err)
		}
		eng := n.NewEngine(engine.Config{MaxPacket: maxPkt})
		n.Connect(srv.Addrs()[0], eng.Addrs()[0], paths[i])
		eng.Start()
		defer eng.Stop()
		fetchers[i] = &Fetcher{Dst: srv.Addrs()[0], CC: cfg.NewController(), ObjID: store.Add(fmt.Sprintf("obj-%d", i), data),
			SegSize: store.SegSize, Window: cfg.Window}
		if err := fetchers[i].Start(eng); err != nil {
			t.Fatal(err)
		}
	}
	endAt := make([]float64, len(fetchers))
	for pending := len(fetchers); pending > 0 && s.Now() < cfg.Timeout; {
		s.Run(s.Now() + 0.005)
		for i, f := range fetchers {
			select {
			case <-f.Done():
				if endAt[i] == 0 {
					endAt[i] = s.Now()
					pending--
				}
			default:
			}
		}
	}
	links := make([]wire.ShimStats, len(paths))
	for i, p := range paths {
		ls := p.Link.Stats()
		links[i] = wire.ShimStats{Enqueued: ls.Enqueued, Dropped: ls.Dropped, LostRandom: ls.LostRandom, Delivered: ls.Delivered}
	}
	return loopbackResult(fetchers, endAt, links, srv.Stats(), s.Now())
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
	res := simLoopback(t, LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(70) },
		Shim: wire.ShimConfig{RateMbps: 100, QueueBytes: 1 << 18,
			Delay: 0.005, AckDelay: 0.005, LossProb: 0.003},
		Flows:        3,
		BytesPerFlow: 22 << 20, // 66 MiB total
		Timeout:      45,
		Seed:         7,
	}, &plan)
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
	plan := chaos.Plan{Seed: 5, Faults: []chaos.Fault{
		{Kind: chaos.KindBlackout, At: 0.6, Dur: 1.2},
	}}
	res := simLoopback(t, LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(40) },
		Shim:          wire.ShimConfig{RateMbps: 60, QueueBytes: 1 << 17, Delay: 0.008, AckDelay: 0.008},
		BytesPerFlow:  8 << 20,
		Timeout:       30,
		Seed:          9,
	}, &plan)
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
// DefaultSegSize/(DefaultSegSize+SegmentHeaderLen) is object data; the
// transfer adds two round trips to that — the metadata exchange before
// the first data request, and the last request's after its pacing slot.
func TestLoopbackSimParity(t *testing.T) {
	const (
		rateMbps = 20.0
		delay    = 0.010 // each way
		bytes    = int64(6 << 20)
	)
	res := simLoopback(t, LoopbackConfig{
		NewController: func() transport.Controller { return fixedrate.New(rateMbps) },
		Shim:          wire.ShimConfig{RateMbps: 50, QueueBytes: 1 << 17, Delay: delay, AckDelay: delay},
		BytesPerFlow:  bytes,
		Timeout:       30,
		Seed:          11,
	}, nil)
	if !res.AllDone || !res.AllVerified {
		t.Fatalf("engine transfer incomplete: %+v", res.Flows[0].Fetcher)
	}
	payloadRate := rateMbps * 1e6 / 8 * float64(DefaultSegSize) / float64(DefaultSegSize+wire.SegmentHeaderLen)
	want := float64(bytes) * 8 / (float64(bytes)/payloadRate + 4*delay) / 1e6
	// Serialisation and noticing completion on a 5 ms grid are inside a
	// percent.
	if got := res.Flows[0].GoodputMbps; math.Abs(got/want-1) > 0.01 {
		t.Fatalf("goodput %.3f Mbps, analytic %.3f Mbps (ratio %.4f)", got, want, got/want)
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
