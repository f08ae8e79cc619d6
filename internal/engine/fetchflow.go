package engine

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"

	"pccproteus/internal/overload"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// FetchResponse is one SEGMENT response handed back to the core. Its
// payload aliases the shard's receive buffer and is valid only during
// the call; Meta responses carry the whole-object digest as theirs.
type FetchResponse struct {
	Nonce     int64
	Seg       int64
	Meta      bool
	TotalSegs int64
	ObjSize   int64
	Payload   []byte
}

// FetchCore is the scheduler a fetch flow drives: request selection,
// loss recovery and reassembly, sans IO. fetch.Core implements it and
// documents the methods (the engine cannot import fetch, which serves
// through it); every call runs on the owning shard's goroutine. A
// request comes back as the FETCH header to send, less its send stamp.
type FetchCore interface {
	Touch(now float64)
	Tick(now float64) (probe wire.FetchHeader, due bool)
	PeekSize() (size int, ok bool)
	Issue(now, virt float64) (wire.FetchHeader, bool)
	OnResponse(r FetchResponse, recvAt, now float64) (healed bool)
	PacingRate() float64
	Done() bool
}

// FetchFlow is one receiver-driven fetch, the third flow role, and its
// cross-goroutine handle. pump() on timer fires issues paced FETCH
// requests, onSegment() feeds SEGMENT responses to the core. Requests
// are paced so the *responses* arrive at the controller's target rate:
// the bucket is charged the expected response size per request.
type FetchFlow struct {
	origin
	core     FetchCore
	respSize int
	sh       *shard
	key      fetchKey // its entry in sh.fetches

	// Cross-goroutine surface.
	stop    atomic.Bool
	crcErrs atomic.Int64
	done    chan struct{}
}

// pump advances the fetch: the core's periodic work, then a paced train
// of requests. A fetch flow in the table is never finished — completion
// drops it — so there is always a next wake, unless it was stopped.
func (ff *FetchFlow) pump(sh *shard, f *flow, now float64) float64 {
	if ff.stop.Load() {
		return 0
	}
	if now-ff.lastTick >= rtoCheckEvery {
		ff.lastTick = now
		if probe, due := ff.core.Tick(now); due {
			ff.request(sh, f, probe, now)
		}
	}
	// Shed or draining: no requests, loss aging keeps running, and the
	// silence is explained, so the watchdog's clock does not.
	if ff.paused || sh.eng.draining.Load() {
		ff.core.Touch(now)
		return now + rtoCheckEvery
	}
	return ff.train(ff, sh, f, now, ff.core.PacingRate())
}

func (ff *FetchFlow) trainBytes() int { return ff.burst * ff.respSize }

func (ff *FetchFlow) peek() (int, bool) { return ff.core.PeekSize() }

func (ff *FetchFlow) emit(sh *shard, f *flow, now, virt float64, _ int) {
	if req, ok := ff.core.Issue(now, virt); ok {
		ff.request(sh, f, req, virt)
	}
}

// request queues one FETCH carrying its scheduled send stamp, which the
// server echoes and the RTT is measured from.
func (ff *FetchFlow) request(sh *shard, f *flow, req wire.FetchHeader, virt float64) {
	req.SentAt = sh.clock.NanosAt(virt)
	sh.queueTx(wire.EncodeFetch(sh.txBuf(), req), f.addr)
}

// onSegment applies one decoded SEGMENT and reports whether it
// completed the object.
func (ff *FetchFlow) onSegment(sh *shard, h wire.SegmentHeader, payload []byte, now float64) bool {
	// A shim's emulated arrival stamp excludes host delivery jitter; on
	// a bare path the shard's clock at the read is the truth.
	recvAt := now
	if h.Arrival != 0 {
		recvAt = sh.clock.SecondsSince(h.Arrival)
	}
	if ff.core.OnResponse(FetchResponse{
		Nonce: h.Nonce, Seg: h.Seg, Meta: h.Meta,
		TotalSegs: h.TotalSegs, ObjSize: h.ObjSize, Payload: payload,
	}, recvAt, now) {
		ff.pacer.Reset(now) // outage over: no catch-up burst, no stale stamps
	}
	return ff.core.Done()
}

// Done is closed once the flow has left its shard: complete, or stopped.
func (ff *FetchFlow) Done() <-chan struct{} { return ff.done }

// Stop abandons the fetch, returning once the shard has let go of it
// (or the engine is stopping).
func (ff *FetchFlow) Stop() {
	ff.stop.Store(true)
	select {
	case <-ff.done:
	case <-ff.sh.eng.done:
	}
}

// Counters returns this flow's segments whose payload failed its CRC and
// the datagrams its shard's codecs rejected outright (these name no flow).
func (ff *FetchFlow) Counters() (crcErrs, shardBad int64) {
	return ff.crcErrs.Load(), ff.sh.ctr.bad.Load()
}

// AddFetch admits one fetch of object objID from dst (a serving engine
// shard, possibly behind a wire.Shim), scheduled by core, under AddFlow's
// admission control. respSize, the full-segment response size, must fit
// MaxPacket; class is as FlowConfig.Class. Responses select their flow
// by (source address, object), so a second fetch of one object from one
// peer on the same shard is refused.
func (e *Engine) AddFetch(dst netip.AddrPort, objID uint64, core FetchCore, respSize int, class overload.Class) (*FetchFlow, error) {
	if !e.started {
		return nil, errors.New("engine: AddFetch before Start")
	}
	if respSize < wire.SegmentHeaderLen || respSize > e.cfg.MaxPacket {
		return nil, fmt.Errorf("engine: response size %d outside [%d, MaxPacket %d]",
			respSize, wire.SegmentHeaderLen, e.cfg.MaxPacket)
	}
	sh := e.shards[int(e.rr.Add(1)-1)%len(e.shards)] // round-robin
	ff := &FetchFlow{
		origin: newOrigin(transport.DefaultBurst, transport.DefaultBurst*respSize, class),
		core:   core, respSize: respSize, sh: sh, done: make(chan struct{}),
		key: fetchKey{netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port()), objID},
	}
	f := &flow{addr: ff.key.addr, id: e.nextID.Add(1), fch: ff}
	if _, dup := sh.fetches.LoadOrStore(ff.key, f); dup {
		return nil, fmt.Errorf("engine: shard %d already fetches object %#x from %s", sh.idx, objID, dst)
	}
	if err := e.admitLocal(sh, class); err != nil {
		sh.fetches.Delete(ff.key)
		return nil, err
	}
	sh.enqueue(f)
	return ff, nil
}
