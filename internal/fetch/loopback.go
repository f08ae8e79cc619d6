package fetch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pccproteus/internal/chaos"
	"pccproteus/internal/engine"
	"pccproteus/internal/sim"
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
	// fetches its own object of BytesPerFlow bytes (default 1 MiB) of
	// seeded pseudorandom data.
	Flows        int
	BytesPerFlow int64
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
	Fetcher     engine.FetchStats
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
	return runLoopback(nil, cfg, nil)
}

// runLoopback is RunLoopback on an engine.Loopback: on real sockets when
// s is nil, and otherwise on a SimNet on s, in virtual time and under
// faults when they are given. The server is one single-shard engine
// answering fetches from a store of per-flow seeded objects, generated
// as they are read.
func runLoopback(s *sim.Sim, cfg LoopbackConfig, faults *chaos.Plan) (*LoopbackResult, error) {
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
	store := NewStore()
	objIDs, err := store.Add(seededObjects(seed, cfg.Flows, cfg.BytesPerFlow)...)
	if err != nil {
		return nil, err
	}
	lb, err := engine.NewLoopback(s, engine.Config{}, engine.Config{OnFetch: store.HandleFetch})
	if err != nil {
		return nil, err
	}
	defer lb.Stop()
	fetchers := make([]*engine.FetchFlow, cfg.Flows)
	for i := range fetchers {
		shimCfg := cfg.Shim
		shimCfg.Seed = wire.MixSeed(seed, 0x5ea1+int64(i))
		cli, dst, _, err := lb.Path(shimCfg)
		if err != nil {
			return nil, err
		}
		fetchers[i], err = cli.AddFetch(dst, engine.FetchConfig{ObjID: objIDs[i], CC: cfg.NewController()})
		if err != nil {
			return nil, err
		}
	}
	if faults != nil {
		if err := lb.Install(nil, faults, cfg.Timeout); err != nil {
			return nil, err
		}
	}

	// Each flow is measured until it was done, or over the whole run.
	lb.Wait(0)
	res := &LoopbackResult{Flows: make([]FlowResult, cfg.Flows), AllDone: true, AllVerified: true}
	for pending := cfg.Flows; pending > 0 && lb.Now() < cfg.Timeout; {
		lb.Wait(lb.Now() + 0.005)
		for i, f := range fetchers {
			select {
			case <-f.Done():
				if res.Flows[i].Secs == 0 {
					res.Flows[i].Secs = lb.Now()
					pending--
				}
			default:
			}
		}
	}
	wall := lb.Now()
	shims, srv := lb.Stop(), lb.Server.Stats()
	for i, f := range fetchers {
		st, fr := f.Stats(), &res.Flows[i]
		if fr.Secs == 0 {
			fr.Secs = wall
		}
		fr.Done, fr.Verified, fr.Bytes, fr.Fetcher, fr.Shim = st.Done, st.Verified, st.Delivered, st, shims[i]
		fr.P50RTT, fr.P95RTT, fr.P99RTT = st.P50RTT, st.P95RTT, st.P99RTT
		if fr.Secs > 0 {
			fr.GoodputMbps = float64(st.Delivered) * 8 / fr.Secs / 1e6
		}
		res.TotalBytes += st.Delivered
		res.AllDone, res.AllVerified = res.AllDone && st.Done, res.AllVerified && st.Verified
	}
	res.Receiver = ServerStats{FetchReqs: srv.FetchReqs, SegsTx: srv.SegsTx, Pkts: srv.Delivered, BadPkts: srv.BadPkts}
	if wall > 0 {
		res.AggMbps = float64(res.TotalBytes) * 8 / wall / 1e6
	}
	return res, nil
}

// seededObjects returns the objects a run of flows fetches, one of size
// bytes per flow: flow i's is named obj-i and generated under the i-th
// seed mixed from seed.
func seededObjects(seed int64, flows int, size int64) []Source {
	srcs := make([]Source, flows)
	for i := range srcs {
		obj := seededObject{seed: uint64(wire.MixSeed(seed, int64(i))), size: size}
		srcs[i] = Source{Name: fmt.Sprintf("obj-%d", i), R: obj, Size: size}
	}
	return srcs
}

// seededObject is an object of size bytes of seeded pseudorandom data
// that exists only as a function: word w (bytes 8w to 8w+7, little
// endian) is the w-th output of splitmix64 seeded with seed. Any range
// is computed from its offset alone, so reads need no state, may run
// on any goroutine, and the object holds no memory.
type seededObject struct {
	seed uint64
	size int64
}

// ReadAt implements io.ReaderAt. Whole words are written straight
// into p; only an unaligned head and tail go through a word buffer.
func (o seededObject) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("fetch: negative offset")
	}
	n := int(min(int64(len(p)), max(o.size-off, 0)))
	q := p[:n]
	w := uint64(off / 8)
	var tmp [8]byte
	if r := off % 8; r != 0 && len(q) > 0 {
		binary.LittleEndian.PutUint64(tmp[:], o.word(w))
		q = q[copy(q, tmp[r:]):]
		w++
	}
	for ; len(q) >= 8; q = q[8:] {
		binary.LittleEndian.PutUint64(q, o.word(w))
		w++
	}
	if len(q) > 0 {
		binary.LittleEndian.PutUint64(tmp[:], o.word(w))
		copy(q, tmp[:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// word returns word w of the object.
func (o seededObject) word(w uint64) uint64 {
	return splitmix64(o.seed + w*0x9e3779b97f4a7c15)
}

// splitmix64 is the splitmix64 step: x advanced by the golden gamma,
// then its finaliser.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
