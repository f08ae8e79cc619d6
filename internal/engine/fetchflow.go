package engine

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"net/netip"
	"sync"
	"sync/atomic"

	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// FetchConfig describes one receiver-driven fetch.
type FetchConfig struct {
	// ObjID names the object (fetch.ObjectID of its name).
	ObjID uint64
	// CC is the fetch's congestion controller, fed acknowledgment
	// callbacks whose byte currency is the expected response size. Its
	// name fixes the overload class (overload.ClassOf): a scavenger's
	// fetch is a scavenger flow.
	CC transport.Controller
	// OnData, when set, observes each segment at in-order delivery, on
	// the shard's goroutine. The payload slice is only valid during the
	// call (copy what you keep).
	OnData func(seg int64, payload []byte)
}

// FetchStats is a snapshot of a running (or finished) fetch, taken at
// one instant on its shard: at most 10 ms old while the fetch runs,
// exact once Done is closed. It is all zero until the first tick.
type FetchStats struct {
	ReqsSent  int64 // requests issued (excluding probes)
	SegsRx    int64 // distinct data segments received
	Dups      int64 // duplicate/stale responses discarded
	LostReqs  int64 // requests declared lost
	Probes    int64 // keep-alive probes issued during outages
	Refetched int64 // requests issued for already-delivered segments
	Delivered int64 // bytes delivered in order
	Inflight  int   // expected response bytes outstanding
	Pend      int   // live request records
	SRTT      float64
	WdTrips   int64
	WdRecov   int64
	InOutage  bool
	Done      bool
	Verified  bool

	// P50RTT, P95RTT and P99RTT are quantiles of the per-request RTT
	// samples (seconds), read off a histogram of ~7% resolution.
	P50RTT, P95RTT, P99RTT float64

	CrcErrs   int64 // segments whose payload failed its CRC
	SentBytes int64 // request bytes handed to the socket
}

// fetchWindow is the reassembly window in segments: how far past the
// in-order delivery point a fetch requests. ~5.7 MB at the default
// segment size — comfortably above the BDP of every emulated path in
// this repo, so the congestion window, not the reassembly bound, is what
// gates steady state.
const fetchWindow = 4096

// metaTag is the transport.Record.Tag of a metadata request; data
// requests carry their segment index.
const metaTag = -1

// respSize is the wire size of a full segment response.
const respSize = wire.SegmentHeaderLen + wire.SegSize

// FetchFlow is one receiver-driven fetch, the third flow role, and its
// cross-goroutine handle. origin.pump on timer fires issues paced FETCH
// requests, onSegment() applies SEGMENT responses. Requests are paced so
// the *responses* arrive at the controller's target rate: the bucket is
// charged the expected response size per request.
//
// It is the fetch's scheduler too: request selection under the
// controller's window, the retransmit queue, and in-order reassembly
// with integrity verification. Outstanding requests live in the
// origin's transport.Recovery — the same record book, RACK + RTO rules
// and outage survival every sender runs, keyed by request nonce — so a
// fetch behaves like an upload running in the opposite direction. Its
// shard drives it from its one goroutine, in real or virtual time; from
// other goroutines only Stop, Done and Stats touch it. Its memory is
// O(window) whatever geometry the server declares: a segment is
// delivered exactly when it is below cum or sits in the buffer.
type FetchFlow struct {
	origin
	sh  *shard
	key fetchKey // its entry in sh.fetches

	objID  uint64
	onData func(seg int64, payload []byte)
	window int // fetchWindow; tests shrink it

	retx    []int64 // segment indices awaiting re-request, descending
	retxSet map[int64]bool

	totalSegs int64
	objSize   int64
	metaOut   int // outstanding (not acked/lost) metadata requests, probes aside
	digest    [wire.DigestLen]byte

	buffer    map[int64][]byte // received segments in (cum, cum+window)
	spare     [][]byte         // emptied buffers, for the next out-of-order segment
	cum       int64            // segments [0,cum) delivered in order
	next      int64            // next never-requested segment
	hash      hash.Hash
	delivered int64
	rtt       *stats.LogHist // per-request RTT samples

	reqsSent, segsRx, dups, lostReqs, probes, refetched, crcErrs int64

	geomKnown bool
	metaDone  bool
	completed bool
	verified  bool

	// Cross-goroutine surface: Stop runs on the caller's goroutine, and
	// Stats reads pub, what publish last made of the counters, under
	// pubMu.
	stop  atomic.Bool
	done  chan struct{}
	pubMu sync.Mutex
	pub   FetchStats
}

// newFetchFlow validates fc and builds a fetch; AddFetch gives it its
// shard and its key.
func newFetchFlow(fc FetchConfig) (*FetchFlow, error) {
	if fc.CC == nil {
		return nil, errors.New("engine: fetch needs a controller")
	}
	ff := &FetchFlow{
		objID:   fc.ObjID,
		onData:  fc.OnData,
		window:  fetchWindow,
		retxSet: make(map[int64]bool),
		buffer:  make(map[int64][]byte),
		hash:    sha256.New(),
		// Geometric bins from 100 µs to 10 s, ~7% relative resolution.
		rtt:  stats.NewLogHist(1e-4, 10, 160),
		done: make(chan struct{}),
	}
	ff.origin = newOrigin(transport.DefaultBurst, transport.DefaultBurst*respSize, fc.CC, ff.onLost)
	return ff, nil
}

func (ff *FetchFlow) trainBytes() int { return ff.burst * respSize }

func (ff *FetchFlow) emit(sh *shard, f *flow, now, virt float64, _ int) {
	if req, ok := ff.issue(now, virt); ok {
		ff.request(sh, f, req, virt)
	}
}

// probe queues one keep-alive request during an outage.
func (ff *FetchFlow) probe(sh *shard, f *flow, now float64) {
	ff.request(sh, f, ff.bookProbe(now), now)
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
	ff.onResponse(h, payload, recvAt, now)
	return ff.complete()
}

// Done is closed once the flow has left its shard: complete — check
// Stats().Verified — or stopped.
func (ff *FetchFlow) Done() <-chan struct{} { return ff.done }

// Stop abandons the fetch, returning once the shard has let go of it
// (or the engine is stopping); OnData is not called after it.
func (ff *FetchFlow) Stop() {
	ff.stop.Store(true)
	select {
	case <-ff.done:
	case <-ff.sh.eng.done:
	}
}

// Stats returns the fetch's last published counters (safe while the
// fetch runs).
func (ff *FetchFlow) Stats() FetchStats {
	ff.pubMu.Lock()
	defer ff.pubMu.Unlock()
	return ff.pub
}

// publish makes the fetch's counters what Stats reads: on the
// rtoCheckEvery tick and when the flow leaves its shard, before Done
// closes.
func (ff *FetchFlow) publish() {
	st := ff.stats()
	ff.pubMu.Lock()
	ff.pub = st
	ff.pubMu.Unlock()
}

// stats returns the fetch's counters.
func (ff *FetchFlow) stats() FetchStats {
	return FetchStats{
		ReqsSent: ff.reqsSent, SegsRx: ff.segsRx, Dups: ff.dups,
		LostReqs: ff.lostReqs, Probes: ff.probes, Refetched: ff.refetched,
		Delivered: ff.delivered, Inflight: ff.book.Inflight(), Pend: ff.book.Len(),
		SRTT:   ff.book.RTT.SRTT(),
		P50RTT: ff.rtt.Quantile(0.50), P95RTT: ff.rtt.Quantile(0.95), P99RTT: ff.rtt.Quantile(0.99),
		WdTrips: ff.book.Trips(), WdRecov: ff.book.Recoveries(),
		InOutage: ff.book.InOutage(), Done: ff.completed, Verified: ff.verified,
		CrcErrs:   ff.crcErrs,
		SentBytes: (ff.reqsSent + ff.probes) * wire.FetchLen, // every request is one fixed-size frame
	}
}

// AddFetch admits one fetch from dst (a serving engine shard, possibly
// behind a Shim) under AddFlow's admission control. The class follows
// the controller (overload.ClassOf). Responses select their flow by
// (source address, object), so a second fetch of one object from one
// peer on the same shard is refused.
func (e *Engine) AddFetch(dst netip.AddrPort, fc FetchConfig) (*FetchFlow, error) {
	if !e.started {
		return nil, errors.New("engine: AddFetch before Start")
	}
	if !dst.IsValid() {
		return nil, errors.New("engine: fetch needs a destination")
	}
	ff, err := newFetchFlow(fc)
	if err != nil {
		return nil, err
	}
	sh := e.shards[int(e.rr.Add(1)-1)%len(e.shards)] // round-robin
	ff.sh, ff.key = sh, fetchKey{netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port()), fc.ObjID}
	f := &flow{addr: ff.key.addr, id: e.nextID.Add(1), fch: ff}
	if _, dup := sh.fetches.LoadOrStore(ff.key, f); dup {
		return nil, fmt.Errorf("engine: shard %d already fetches object %#x from %s", sh.idx, fc.ObjID, dst)
	}
	if err := e.admitLocal(sh, ff.class); err != nil {
		sh.fetches.Delete(ff.key)
		return nil, err
	}
	sh.enqueue(f)
	return ff, nil
}

// segWire returns the expected wire size of the response to a request
// for seg (a full segment until the geometry is known).
func (ff *FetchFlow) segWire(seg int64) int {
	n := wire.SegSize
	if ff.geomKnown {
		if rem := ff.objSize - seg*wire.SegSize; rem < int64(n) {
			n = int(rem)
		}
		if n < 0 {
			n = 0
		}
	}
	return wire.SegmentHeaderLen + n
}

// request kinds returned by pick.
const (
	pickNone = iota
	pickMeta
	pickRetx
	pickFresh
)

// pick chooses the next request without committing to it, pruning
// already-delivered entries off the retransmit queue as it goes. The
// window gate compares expected response bytes against the
// controller's cwnd — the exact analog of the sender's inflight gate.
func (ff *FetchFlow) pick() (kind int, seg int64, size int) {
	if ff.book.InOutage() || ff.complete() {
		return pickNone, 0, 0
	}
	if !ff.metaDone && ff.metaOut == 0 {
		kind, size = pickMeta, wire.SegmentHeaderLen+wire.DigestLen
	} else {
		for len(ff.retx) > 0 {
			s := ff.retx[len(ff.retx)-1]
			if ff.segDone(s) {
				ff.retx = ff.retx[:len(ff.retx)-1]
				delete(ff.retxSet, s)
				continue
			}
			kind, seg, size = pickRetx, s, ff.segWire(s)
			break
		}
		if kind == pickNone && ff.geomKnown && ff.next < ff.totalSegs && ff.next < ff.cum+int64(ff.window) {
			kind, seg, size = pickFresh, ff.next, ff.segWire(ff.next)
		}
	}
	if kind == pickNone {
		return pickNone, 0, 0
	}
	if float64(ff.book.Inflight()+size) > ff.cc.CWnd() {
		return pickNone, 0, 0
	}
	return kind, seg, size
}

// peek returns the expected response size of the next request, or
// false when nothing may be issued now (complete, outage, reassembly
// window full, or congestion-window blocked). The pump takes pacing
// tokens for it before committing with issue.
func (ff *FetchFlow) peek() (int, bool) {
	kind, _, size := ff.pick()
	return size, kind != pickNone
}

// issue commits the next request: it is booked, the controller's OnSend
// fires, and the FETCH header to send, less its send stamp, is returned.
// virt is the scheduled (token-bucket) send time — the measurement
// timebase — and now the emission time; the schedule can lead the clock,
// so the request ages from whichever is later (see transport.Record).
func (ff *FetchFlow) issue(now, virt float64) (wire.FetchHeader, bool) {
	kind, seg, size := ff.pick()
	if kind == pickNone {
		return wire.FetchHeader{}, false
	}
	switch kind {
	case pickMeta:
		ff.metaOut++
	case pickRetx:
		ff.retx = ff.retx[:len(ff.retx)-1]
		delete(ff.retxSet, seg)
	case pickFresh:
		ff.next++
	}
	rec := ff.book.Add(now, size, virt, max(now, virt))
	rec.Tag = seg
	if kind == pickMeta {
		rec.Tag = metaTag
	}
	ff.cc.OnSend(now, &rec.SentPacket)
	ff.reqsSent++
	if kind != pickMeta && ff.segDone(seg) {
		ff.refetched++ // structurally unreachable; counted to prove it
	}
	return wire.FetchHeader{ObjID: ff.objID, Nonce: rec.Seq, Seg: seg, Meta: kind == pickMeta}, true
}

// bookProbe books one keep-alive, for a pump whose book has one due
// (Recovery.ProbeDue), and returns the request: it re-requests a needed
// segment (or the metadata) but is invisible to the controller — no
// OnSend, no inflight accounting.
func (ff *FetchFlow) bookProbe(now float64) wire.FetchHeader {
	req := wire.FetchHeader{ObjID: ff.objID, Nonce: ff.book.AddProbe(now, 0).Seq, Meta: !ff.metaDone}
	if !req.Meta {
		req.Seg = ff.cum // by definition the first undelivered segment
	}
	ff.probes++
	return req
}

// onResponse applies one response: request-record retirement with an
// RTT sample and controller OnAck, then payload delivery (late and
// probe responses still deliver — data is data), then loss detection.
// The payload aliases the shard's receive buffer and is valid only
// during the call; a Meta response carries the whole-object digest as
// its payload. recvAt is the response's arrival stamp on the emulated
// path; now is the shard-clock time of processing.
func (ff *FetchFlow) onResponse(h wire.SegmentHeader, payload []byte, recvAt, now float64) {
	// Any response is liveness; during an outage it proves the path
	// healed, and the dead time must not turn into a catch-up burst or
	// stale schedule stamps.
	if ff.book.Alive(now) {
		ff.pacer.Reset(now)
	}
	if !ff.geomKnown && h.TotalSegs > 0 {
		// Every response carries the geometry, so the fetch starts
		// filling the window off whichever response lands first.
		ff.geomKnown = true
		ff.totalSegs = h.TotalSegs
		ff.objSize = h.ObjSize
	}
	if rec := ff.book.Find(h.Nonce); rec != nil {
		ff.ackRec(rec, now, recvAt)
	}
	ff.deliver(h, payload)
	ff.book.Detect(now)
}

// ackRec retires one outstanding request against its response.
func (ff *FetchFlow) ackRec(rec *transport.Record, now, recvAt float64) {
	ff.book.Ack(rec)
	if rec.Probe {
		return // liveness only: no controller callbacks, no RTT sample
	}
	if rec.Tag == metaTag {
		ff.metaOut--
	}
	// The reverse half is calibrated at the first live response.
	ff.rev.lock(now, recvAt)
	rtt := ff.rev.rtt(rec.SentAt, recvAt)
	ff.book.RTT.Update(rtt)
	ff.rtt.Add(rtt)
	ff.cc.OnAck(ackOf(rec, now, recvAt, rtt, recvAt-rec.SentAt, ff.book.Inflight()))
}

// deliver routes a response's content into the reassembly state. The
// request record's fate is irrelevant here: a segment that arrives
// after its request was declared lost is new data all the same, and
// counting it delivered is what makes retransmissions converge. Only
// segments in [cum, cum+window) were ever requested; anything else is
// stale or forged and is dropped, which bounds the buffer.
func (ff *FetchFlow) deliver(h wire.SegmentHeader, payload []byte) {
	if h.Meta {
		if ff.metaDone {
			ff.dups++
			return
		}
		copy(ff.digest[:], payload)
		ff.metaDone = true
		return
	}
	_, buffered := ff.buffer[h.Seg]
	if !ff.geomKnown || h.Seg < ff.cum || h.Seg >= ff.totalSegs || h.Seg-ff.cum >= int64(ff.window) || buffered {
		ff.dups++
		return
	}
	ff.segsRx++
	if h.Seg > ff.cum {
		var buf []byte
		if n := len(ff.spare); n > 0 {
			buf, ff.spare = ff.spare[n-1], ff.spare[:n-1]
		}
		ff.buffer[h.Seg] = append(buf[:0], payload...)
		return
	}
	ff.deliverCum(payload)
	for payload, ok := ff.buffer[ff.cum]; ok; payload, ok = ff.buffer[ff.cum] {
		delete(ff.buffer, ff.cum)
		ff.deliverCum(payload)
		ff.spare = append(ff.spare, payload)
	}
}

// deliverCum hands segment cum to the hash and the data hook and
// advances cum past it.
func (ff *FetchFlow) deliverCum(payload []byte) {
	ff.hash.Write(payload)
	if ff.onData != nil {
		ff.onData(ff.cum, payload)
	}
	ff.delivered += int64(len(payload))
	ff.cum++
}

// segDone reports whether seg has already been received.
func (ff *FetchFlow) segDone(seg int64) bool {
	_, buffered := ff.buffer[seg]
	return seg >= 0 && seg < ff.cum || buffered
}

// complete reports whether the transfer is complete: geometry and
// digest known, every segment delivered. On the first true it finalizes
// the integrity verdict.
func (ff *FetchFlow) complete() bool {
	if ff.completed {
		return true
	}
	if !ff.metaDone || !ff.geomKnown || ff.cum < ff.totalSegs {
		return false
	}
	ff.completed = true
	ff.verified = bytes.Equal(ff.hash.Sum(nil), ff.digest[:])
	return true
}

// onLost is the fetch's per-loss bookkeeping, run by the book before
// the controller hears OnLoss: the named segment re-enters the
// retransmit queue unless it has been delivered through another copy in
// the meantime — the rule that makes resumption after a blackout
// re-request only what is actually missing.
func (ff *FetchFlow) onLost(rec *transport.Record, now float64) {
	ff.lostReqs++
	if rec.Tag == metaTag {
		ff.metaOut--
	} else if !ff.segDone(rec.Tag) {
		ff.pushRetx(rec.Tag)
	}
}

// pushRetx queues seg for re-request, keeping the queue sorted (lowest
// last — the segment closest to the delivery point unblocks the most
// window, and a pop off the end keeps the capacity) and deduplicated.
func (ff *FetchFlow) pushRetx(seg int64) {
	if ff.retxSet[seg] {
		return
	}
	ff.retxSet[seg] = true
	i := len(ff.retx)
	ff.retx = append(ff.retx, 0)
	for i > 0 && ff.retx[i-1] < seg {
		ff.retx[i] = ff.retx[i-1]
		i--
	}
	ff.retx[i] = seg
}
