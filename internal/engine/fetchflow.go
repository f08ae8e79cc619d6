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
// through it); every call runs on the owning shard's goroutine. The
// shard drives the core's record book — tick, outage, pause and drain —
// as it drives a sender's. A request comes back as the FETCH header to
// send, less its send stamp.
type FetchCore interface {
	Book() *transport.Recovery
	Probe(now float64) wire.FetchHeader
	PeekSize() (size int, ok bool)
	Issue(now, virt float64) (wire.FetchHeader, bool)
	OnResponse(r FetchResponse, recvAt, now float64) (healed bool)
	Done() bool
	// Publish makes the core's counters, with the flow's segments whose
	// payload failed its CRC and the datagrams its shard's codecs
	// rejected outright (these name no flow), what the fetch's handle
	// reads: on the rtoCheckEvery tick and when the flow leaves its
	// shard, before Done closes.
	Publish(crcErrs, shardBad int64)
}

// FetchFlow is one receiver-driven fetch, the third flow role, and its
// cross-goroutine handle. origin.pump on timer fires issues paced FETCH
// requests, onSegment() feeds SEGMENT responses to the core. Requests
// are paced so the *responses* arrive at the controller's target rate:
// the bucket is charged the expected response size per request.
type FetchFlow struct {
	origin
	core     FetchCore
	respSize int
	sh       *shard
	key      fetchKey // its entry in sh.fetches
	crcErrs  int64    // segments whose payload failed its CRC

	// Cross-goroutine surface: Stop runs on the caller's goroutine.
	stop atomic.Bool
	done chan struct{}
}

func (ff *FetchFlow) trainBytes() int { return ff.burst * ff.respSize }

func (ff *FetchFlow) peek() (int, bool) { return ff.core.PeekSize() }

func (ff *FetchFlow) emit(sh *shard, f *flow, now, virt float64, _ int) {
	if req, ok := ff.core.Issue(now, virt); ok {
		ff.request(sh, f, req, virt)
	}
}

func (ff *FetchFlow) recovery() *transport.Recovery { return ff.core.Book() }

// probe queues one keep-alive request during an outage.
func (ff *FetchFlow) probe(sh *shard, f *flow, now float64) {
	ff.request(sh, f, ff.core.Probe(now), now)
}

// finished reports a stopped fetch. One in the table is never complete:
// completion drops it.
func (ff *FetchFlow) finished() bool { return ff.stop.Load() }

// heldUntil is zero: a fetch's peer serves statelessly and pushes back
// on nothing.
func (*FetchFlow) heldUntil() float64 { return 0 }

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

// publish has the core publish its counters with the flow's and shard's.
func (ff *FetchFlow) publish() { ff.core.Publish(ff.crcErrs, ff.sh.st.BadPkts) }

// AddFetch admits one fetch of object objID from dst (a serving engine
// shard, possibly behind a Shim), scheduled by core, under AddFlow's
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
