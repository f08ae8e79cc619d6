package fetch

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"pccproteus/internal/engine"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// LoopbackConfig describes one single-process multi-flow fetch run:
// one server (an engine serving a segment store) and Flows concurrent
// fetchers on one single-shard client engine, each behind its own
// impairment shim, all over 127.0.0.1 sockets.
//
// Per-fetcher shims are a topology choice, not a limitation: giving
// each fetcher its own shim models independent access links converging
// on one server — the shape of a fleet download. (Flows contending on one bottleneck is
// the simulator's department, where the shared-queue coupling is
// deterministic.)
type LoopbackConfig struct {
	NewController func() transport.Controller

	Shim wire.ShimConfig
	// Flows is the number of concurrent fetchers (default 1); each
	// fetches its own object of BytesPerFlow bytes (default 1 MiB)
	// filled with seeded pseudorandom data.
	Flows        int
	BytesPerFlow int64
	SegSize      int
	Window       int
	// Timeout bounds the run in real seconds (default 60).
	Timeout float64
	// Seed drives object contents and per-shim impairment RNGs.
	Seed int64
}

// FlowResult summarizes one fetcher's transfer.
type FlowResult struct {
	Done        bool
	Verified    bool
	Bytes       int64 // delivered in order
	Secs        float64
	GoodputMbps float64
	P50RTT      float64 // seconds
	P95RTT      float64
	P99RTT      float64
	Fetcher     FetcherStats
	Shim        wire.ShimStats
}

// ServerStats is the serving engine's side of a run.
type ServerStats struct {
	FetchReqs int64 // fetch requests answered or ignored
	SegsTx    int64 // segment responses sent
	Pkts      int64 // data packets received (fetchers send none)
	BadPkts   int64 // datagrams the codecs rejected
}

// LoopbackResult summarizes one multi-flow fetch run.
type LoopbackResult struct {
	Flows       []FlowResult
	Receiver    ServerStats
	TotalBytes  int64
	AggMbps     float64 // total delivered bytes over the wall duration
	AllDone     bool
	AllVerified bool
}

// RunLoopback executes one multi-flow fetch scenario end to end,
// blocking until every transfer completes or Timeout elapses.
func RunLoopback(cfg LoopbackConfig) (*LoopbackResult, error) {
	if cfg.NewController == nil {
		return nil, fmt.Errorf("fetch: loopback needs a controller factory")
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 1
	}
	if cfg.BytesPerFlow <= 0 {
		cfg.BytesPerFlow = 1 << 20
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	// Server: one single-shard engine answering fetches from an
	// in-memory store of per-flow objects with deterministic
	// pseudorandom contents.
	store := NewStore(cfg.SegSize)
	objIDs := make([]uint64, cfg.Flows)
	for i := 0; i < cfg.Flows; i++ {
		data := make([]byte, cfg.BytesPerFlow)
		rng := rand.New(rand.NewSource(wire.MixSeed(seed, int64(i))))
		rng.Read(data)
		objIDs[i] = store.Add(fmt.Sprintf("obj-%d", i), data)
	}
	// Every fetch is a flow on the client engine's one shard. Stopping
	// that engine (deferred last, so it runs first) ends them all.
	maxPkt := store.SegSize + wire.SegmentHeaderLen
	cli, srv, err := engine.StartPair(engine.Config{MaxPacket: maxPkt},
		engine.Config{OnFetch: store.HandleFetch, MaxPacket: maxPkt})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	srvAddr := net.UDPAddrFromAddrPort(srv.Addrs()[0])

	shims := make([]*wire.Shim, 0, cfg.Flows)
	defer func() {
		for _, sh := range shims {
			sh.Stop()
		}
	}()
	defer cli.Stop()
	fetchers := make([]*Fetcher, cfg.Flows)
	for i := range fetchers {
		shimCfg := cfg.Shim
		shimCfg.Seed = wire.MixSeed(seed, 0x5ea1+int64(i))
		sh, err := wire.NewShim(shimCfg, srvAddr)
		if err != nil {
			return nil, err
		}
		shims = append(shims, sh)
		if err := sh.Start(); err != nil {
			return nil, err
		}
		fetchers[i] = &Fetcher{
			Dst: sh.Addr().AddrPort(), CC: cfg.NewController(), ObjID: objIDs[i],
			SegSize: store.SegSize, Window: cfg.Window,
		}
		if err := fetchers[i].Start(cli); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	endAt := make([]float64, cfg.Flows)
	for pending := cfg.Flows; pending > 0 && time.Since(t0).Seconds() < cfg.Timeout; time.Sleep(5 * time.Millisecond) {
		for i, f := range fetchers {
			select {
			case <-f.Done():
				if endAt[i] == 0 {
					endAt[i] = time.Since(t0).Seconds()
					pending--
				}
			default:
			}
		}
	}
	wall := time.Since(t0).Seconds()
	shimStats := make([]wire.ShimStats, len(shims))
	for i, sh := range shims {
		shimStats[i] = sh.Stats()
	}
	return loopbackResult(fetchers, endAt, shimStats, srv.Stats(), wall), nil
}

// loopbackResult assembles a run's result, on either network: fetcher i
// sat behind the bottleneck that counted shims[i] and was done endAt[i]
// seconds into the run — zero if it never was, and then it is measured
// over the run's wall seconds.
func loopbackResult(fetchers []*Fetcher, endAt []float64, shims []wire.ShimStats, srv engine.Stats, wall float64) *LoopbackResult {
	res := &LoopbackResult{AllDone: true, AllVerified: true}
	for i, f := range fetchers {
		st := f.Stats()
		secs := wall
		if endAt[i] > 0 {
			secs = endAt[i]
		}
		p50, p95, p99 := f.RTTQuantiles()
		fr := FlowResult{
			Done: st.Done, Verified: st.Verified, Bytes: st.Delivered,
			Secs: secs, P50RTT: p50, P95RTT: p95, P99RTT: p99,
			Fetcher: st, Shim: shims[i],
		}
		if secs > 0 {
			fr.GoodputMbps = float64(st.Delivered) * 8 / secs / 1e6
		}
		res.Flows = append(res.Flows, fr)
		res.TotalBytes += st.Delivered
		res.AllDone = res.AllDone && st.Done
		res.AllVerified = res.AllVerified && st.Verified
	}
	res.Receiver = ServerStats{FetchReqs: srv.FetchReqs, SegsTx: srv.SegsTx, Pkts: srv.Delivered, BadPkts: srv.BadPkts}
	if wall > 0 {
		res.AggMbps = float64(res.TotalBytes) * 8 / wall / 1e6
	}
	return res
}
