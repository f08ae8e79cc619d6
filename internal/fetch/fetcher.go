package fetch

import (
	"errors"
	"net/netip"
	"sync/atomic"

	"pccproteus/internal/engine"
	"pccproteus/internal/overload"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// FetcherStats is a snapshot of a running (or finished) fetch, at most
// one 10 ms tick old.
type FetcherStats struct {
	CoreStats
	// BadResps counts datagrams the segment codec rejected: CrcErrs plus
	// every datagram the shard refused outright (those name no fetch).
	BadResps  int64
	CrcErrs   int64 // segments whose payload failed its CRC
	SentBytes int64 // request bytes handed to the socket
}

// Fetcher is one segmented fetch running as a fetch flow on an engine
// shard, and the cross-goroutine handle for it, as engine.Flow is for a
// sender: the shard paces FETCH requests under the controller's rate
// and window and feeds SEGMENT responses to the scheduler core.
// Configure the exported fields, then Start. Done (closed once the
// object is delivered — check Stats().Verified — or the fetch stopped)
// and Stop (OnData is not called again after it) are the embedded flow's.
type Fetcher struct {
	*engine.FetchFlow

	// Dst is the server (possibly via the impairment shim).
	Dst netip.AddrPort
	CC  transport.Controller
	// ObjID names the object (fetch.ObjectID of its name).
	ObjID uint64
	// SegSize must match the server's store (default DefaultSegSize).
	SegSize int
	// Window bounds the reassembly window in segments.
	Window int
	// OnData observes each segment at in-order delivery, on the shard's
	// goroutine; payload is valid only during the call (copy what you keep).
	OnData func(seg int64, payload []byte)

	rttHist *stats.LogHist // shard-goroutine-owned, as the core is
	snap    atomic.Pointer[snapshot]
}

// snapshot is what the shard goroutine publishes for callers to read.
type snapshot struct {
	CoreStats
	p50, p95, p99 float64
}

// shardCore is the Core as a shard drives it (engine.FetchCore): the
// 10 ms Tick and the response that completes the object publish a snapshot.
type shardCore struct {
	*Core
	f *Fetcher
}

func (c shardCore) Tick(now float64) (Request, bool) {
	req, ok := c.Core.Tick(now)
	c.f.publish(c.Core)
	return req, ok
}

func (c shardCore) OnResponse(r Response, recvAt, now float64) bool {
	healed := c.Core.OnResponse(r, recvAt, now)
	if c.Core.Done() {
		c.f.publish(c.Core)
	}
	return healed
}

func (f *Fetcher) publish(c *Core) {
	f.snap.Store(&snapshot{
		CoreStats: c.Stats(),
		p50:       f.rttHist.Quantile(0.50), p95: f.rttHist.Quantile(0.95), p99: f.rttHist.Quantile(0.99),
	})
}

// Start validates configuration and admits the fetch to eng, whose
// MaxPacket must cover a full segment response. The overload class
// follows the controller: a scavenger's fetch is a scavenger flow.
func (f *Fetcher) Start(eng *engine.Engine) error {
	if f.FetchFlow != nil {
		return errors.New("fetch: fetcher already started")
	}
	if f.CC == nil || !f.Dst.IsValid() {
		return errors.New("fetch: fetcher needs Dst and CC")
	}
	// Geometric bins from 100 µs to 10 s, ~7% relative resolution.
	f.rttHist = stats.NewLogHist(1e-4, 10, 160)
	core, err := NewCore(Config{
		ObjID: f.ObjID, CC: f.CC, SegSize: f.SegSize, Window: f.Window,
		OnData: f.OnData, OnRTT: f.rttHist.Add,
	})
	if err != nil {
		return err
	}
	f.publish(core)
	f.FetchFlow, err = eng.AddFetch(f.Dst, f.ObjID, shardCore{core, f},
		wire.SegmentHeaderLen+core.cfg.SegSize, overload.ClassOf(f.CC.Name()))
	return err
}

// Stats returns a snapshot of the fetch's counters.
func (f *Fetcher) Stats() FetcherStats {
	cs := f.snap.Load().CoreStats
	crc, shardBad := f.Counters()
	return FetcherStats{
		CoreStats: cs, BadResps: crc + shardBad, CrcErrs: crc,
		SentBytes: (cs.ReqsSent + cs.Probes) * wire.FetchLen, // every request is one fixed-size frame
	}
}

// RTTQuantiles returns the p50/p95/p99 of the fetch's per-request RTT
// samples, in seconds.
func (f *Fetcher) RTTQuantiles() (p50, p95, p99 float64) {
	s := f.snap.Load()
	return s.p50, s.p95, s.p99
}
