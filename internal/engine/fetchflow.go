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

	"pccproteus/internal/overload"
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

	// BadResps counts datagrams the segment codec rejected: CrcErrs plus
	// every datagram the shard refused outright (those name no fetch).
	BadResps  int64
	CrcErrs   int64 // segments whose payload failed its CRC
	SentBytes int64 // request bytes handed to the socket
}

// FetchFlow is one receiver-driven fetch, the third flow role, and its
// cross-goroutine handle. origin.pump on timer fires issues paced FETCH
// requests, onSegment() feeds SEGMENT responses to the core. Requests
// are paced so the *responses* arrive at the controller's target rate:
// the bucket is charged the expected response size per request.
type FetchFlow struct {
	origin
	core    *fetchCore
	sh      *shard
	key     fetchKey // its entry in sh.fetches
	crcErrs int64    // segments whose payload failed its CRC

	// Cross-goroutine surface: Stop runs on the caller's goroutine.
	stop atomic.Bool
	done chan struct{}
}

// respSize is the wire size of a full segment response.
const respSize = wire.SegmentHeaderLen + wire.SegSize

func (ff *FetchFlow) trainBytes() int { return ff.burst * respSize }

func (ff *FetchFlow) peek() (int, bool) { return ff.core.peekSize() }

func (ff *FetchFlow) emit(sh *shard, f *flow, now, virt float64, _ int) {
	if req, ok := ff.core.issue(now, virt); ok {
		ff.request(sh, f, req, virt)
	}
}

func (ff *FetchFlow) recovery() *transport.Recovery { return &ff.core.book }

// probe queues one keep-alive request during an outage.
func (ff *FetchFlow) probe(sh *shard, f *flow, now float64) {
	ff.request(sh, f, ff.core.probe(now), now)
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
	if ff.core.onResponse(h, payload, recvAt, now) {
		ff.pacer.Reset(now) // outage over: no catch-up burst, no stale stamps
	}
	return ff.core.done()
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
	c := ff.core
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	return c.pub
}

// publish makes the core's counters, with the flow's CRC failures and
// its shard's rejected datagrams, what Stats reads: on the rtoCheckEvery
// tick and when the flow leaves its shard, before Done closes.
func (ff *FetchFlow) publish() { ff.core.publish(ff.crcErrs, ff.sh.st.BadPkts) }

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
	core, err := newFetchCore(fc)
	if err != nil {
		return nil, err
	}
	class := overload.ClassOf(fc.CC.Name())
	sh := e.shards[int(e.rr.Add(1)-1)%len(e.shards)] // round-robin
	ff := &FetchFlow{
		origin: newOrigin(transport.DefaultBurst, transport.DefaultBurst*respSize, class),
		core:   core, sh: sh, done: make(chan struct{}),
		key: fetchKey{netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port()), fc.ObjID},
	}
	f := &flow{addr: ff.key.addr, id: e.nextID.Add(1), fch: ff}
	if _, dup := sh.fetches.LoadOrStore(ff.key, f); dup {
		return nil, fmt.Errorf("engine: shard %d already fetches object %#x from %s", sh.idx, fc.ObjID, dst)
	}
	if err := e.admitLocal(sh, class); err != nil {
		sh.fetches.Delete(ff.key)
		return nil, err
	}
	sh.enqueue(f)
	return ff, nil
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

// fetchCore is a fetch's scheduler: request selection under the
// controller's window, the retransmit queue, and in-order reassembly
// with integrity verification. Outstanding requests live in a
// transport.Recovery — the same record book, RACK + RTO rules and outage
// survival every sender runs, keyed by request nonce — so a fetch
// behaves like an upload running in the opposite direction. Its shard
// drives it from its one goroutine, in real or virtual time; only what
// publish copies out is read from others (FetchFlow.Stats). Its memory
// is O(window) whatever geometry the server declares: a segment is
// delivered exactly when it is below cum or sits in the buffer.
type fetchCore struct {
	cfg    FetchConfig
	window int // fetchWindow; tests shrink it
	book   transport.Recovery

	retx    []int64 // segment indices awaiting re-request, descending
	retxSet map[int64]bool

	geomKnown bool
	totalSegs int64
	objSize   int64
	metaDone  bool
	metaOut   int // outstanding (not acked/lost) metadata requests, probes aside
	digest    [wire.DigestLen]byte

	buffer    map[int64][]byte // received segments in (cum, cum+window)
	spare     [][]byte         // emptied buffers, for the next out-of-order segment
	cum       int64            // segments [0,cum) delivered in order
	next      int64            // next never-requested segment
	hash      hash.Hash
	delivered int64

	finished bool
	verified bool

	rev revPath
	rtt *stats.LogHist // per-request RTT samples

	reqsSent, segsRx, dups, lostReqs, probes, refetched int64

	// pub is what publish last made of the counters, read by
	// FetchFlow.Stats under pubMu.
	pubMu sync.Mutex
	pub   FetchStats
}

// newFetchCore validates fc and builds a scheduler core.
func newFetchCore(fc FetchConfig) (*fetchCore, error) {
	if fc.CC == nil {
		return nil, errors.New("engine: fetch needs a controller")
	}
	c := &fetchCore{
		cfg:     fc,
		window:  fetchWindow,
		retxSet: make(map[int64]bool),
		buffer:  make(map[int64][]byte),
		hash:    sha256.New(),
		// Geometric bins from 100 µs to 10 s, ~7% relative resolution.
		rtt: stats.NewLogHist(1e-4, 10, 160),
	}
	c.book.Init(fc.CC, c.onLost)
	return c, nil
}

// segWire returns the expected wire size of the response to a request
// for seg (a full segment until the geometry is known).
func (c *fetchCore) segWire(seg int64) int {
	n := wire.SegSize
	if c.geomKnown {
		if rem := c.objSize - seg*wire.SegSize; rem < int64(n) {
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
func (c *fetchCore) pick() (kind int, seg int64, size int) {
	if c.book.InOutage() || c.done() {
		return pickNone, 0, 0
	}
	if !c.metaDone && c.metaOut == 0 {
		kind, size = pickMeta, wire.SegmentHeaderLen+wire.DigestLen
	} else {
		for len(c.retx) > 0 {
			s := c.retx[len(c.retx)-1]
			if c.segDone(s) {
				c.retx = c.retx[:len(c.retx)-1]
				delete(c.retxSet, s)
				continue
			}
			kind, seg, size = pickRetx, s, c.segWire(s)
			break
		}
		if kind == pickNone && c.geomKnown && c.next < c.totalSegs && c.next < c.cum+int64(c.window) {
			kind, seg, size = pickFresh, c.next, c.segWire(c.next)
		}
	}
	if kind == pickNone {
		return pickNone, 0, 0
	}
	if float64(c.book.Inflight()+size) > c.cfg.CC.CWnd() {
		return pickNone, 0, 0
	}
	return kind, seg, size
}

// peekSize returns the expected response size of the next request, or
// false when nothing may be issued now (complete, outage, reassembly
// window full, or congestion-window blocked). The pump takes pacing
// tokens for it before committing with issue.
func (c *fetchCore) peekSize() (int, bool) {
	kind, _, size := c.pick()
	return size, kind != pickNone
}

// issue commits the next request: it is booked, the controller's OnSend
// fires, and the FETCH header to send, less its send stamp, is returned.
// virt is the scheduled (token-bucket) send time — the measurement
// timebase — and now the emission time; the schedule can lead the clock,
// so the request ages from whichever is later (see transport.Record).
func (c *fetchCore) issue(now, virt float64) (wire.FetchHeader, bool) {
	kind, seg, size := c.pick()
	if kind == pickNone {
		return wire.FetchHeader{}, false
	}
	switch kind {
	case pickMeta:
		c.metaOut++
	case pickRetx:
		c.retx = c.retx[:len(c.retx)-1]
		delete(c.retxSet, seg)
	case pickFresh:
		c.next++
	}
	rec := c.book.Add(now, size, virt, max(now, virt))
	rec.Tag = seg
	if kind == pickMeta {
		rec.Tag = metaTag
	}
	c.cfg.CC.OnSend(now, &rec.SentPacket)
	c.reqsSent++
	if kind != pickMeta && c.segDone(seg) {
		c.refetched++ // structurally unreachable; counted to prove it
	}
	return wire.FetchHeader{ObjID: c.cfg.ObjID, Nonce: rec.Seq, Seg: seg, Meta: kind == pickMeta}, true
}

// probe books one keep-alive, for a pump whose book has one due
// (Recovery.ProbeDue), and returns the request: it re-requests a needed
// segment (or the metadata) but is invisible to the controller — no
// OnSend, no inflight accounting.
func (c *fetchCore) probe(now float64) wire.FetchHeader {
	req := wire.FetchHeader{ObjID: c.cfg.ObjID, Nonce: c.book.AddProbe(now, 0).Seq, Meta: !c.metaDone}
	if !req.Meta {
		req.Seg = c.cum // by definition the first undelivered segment
	}
	c.probes++
	return req
}

// onResponse applies one response: request-record retirement with an
// RTT sample and controller OnAck, then payload delivery (late and
// probe responses still deliver — data is data), then loss detection.
// The payload aliases the shard's receive buffer and is valid only
// during the call; a Meta response carries the whole-object digest as
// its payload. recvAt is the response's arrival stamp on the emulated
// path; now is the shard-clock time of processing. It reports whether
// the response ended an outage, so the pacer can re-anchor.
func (c *fetchCore) onResponse(h wire.SegmentHeader, payload []byte, recvAt, now float64) (healed bool) {
	// Any response is liveness; during an outage it proves the path
	// healed.
	healed = c.book.Alive(now)
	if !c.geomKnown && h.TotalSegs > 0 {
		// Every response carries the geometry, so the fetch starts
		// filling the window off whichever response lands first.
		c.geomKnown = true
		c.totalSegs = h.TotalSegs
		c.objSize = h.ObjSize
	}
	if rec := c.book.Find(h.Nonce); rec != nil {
		c.ackRec(rec, now, recvAt)
	}
	c.deliver(h, payload)
	c.book.Detect(now)
	return healed
}

// ackRec retires one outstanding request against its response.
func (c *fetchCore) ackRec(rec *transport.Record, now, recvAt float64) {
	c.book.Ack(rec)
	if rec.Probe {
		return // liveness only: no controller callbacks, no RTT sample
	}
	if rec.Tag == metaTag {
		c.metaOut--
	}
	// The reverse half is calibrated at the first live response.
	c.rev.lock(now, recvAt)
	rtt := c.rev.rtt(rec.SentAt, recvAt)
	c.book.RTT.Update(rtt)
	c.rtt.Add(rtt)
	c.cfg.CC.OnAck(ackOf(rec, now, recvAt, rtt, recvAt-rec.SentAt, c.book.Inflight()))
}

// deliver routes a response's content into the reassembly state. The
// request record's fate is irrelevant here: a segment that arrives
// after its request was declared lost is new data all the same, and
// counting it delivered is what makes retransmissions converge. Only
// segments in [cum, cum+window) were ever requested; anything else is
// stale or forged and is dropped, which bounds the buffer.
func (c *fetchCore) deliver(h wire.SegmentHeader, payload []byte) {
	if h.Meta {
		if c.metaDone {
			c.dups++
			return
		}
		copy(c.digest[:], payload)
		c.metaDone = true
		return
	}
	_, buffered := c.buffer[h.Seg]
	if !c.geomKnown || h.Seg < c.cum || h.Seg >= c.totalSegs || h.Seg-c.cum >= int64(c.window) || buffered {
		c.dups++
		return
	}
	c.segsRx++
	if h.Seg > c.cum {
		var buf []byte
		if n := len(c.spare); n > 0 {
			buf, c.spare = c.spare[n-1], c.spare[:n-1]
		}
		c.buffer[h.Seg] = append(buf[:0], payload...)
		return
	}
	c.deliverCum(payload)
	for payload, ok := c.buffer[c.cum]; ok; payload, ok = c.buffer[c.cum] {
		delete(c.buffer, c.cum)
		c.deliverCum(payload)
		c.spare = append(c.spare, payload)
	}
}

// deliverCum hands segment cum to the hash and the data hook and
// advances cum past it.
func (c *fetchCore) deliverCum(payload []byte) {
	c.hash.Write(payload)
	if c.cfg.OnData != nil {
		c.cfg.OnData(c.cum, payload)
	}
	c.delivered += int64(len(payload))
	c.cum++
}

// segDone reports whether seg has already been received.
func (c *fetchCore) segDone(seg int64) bool {
	_, buffered := c.buffer[seg]
	return seg >= 0 && seg < c.cum || buffered
}

// done reports whether the transfer is complete: geometry and digest
// known, every segment delivered. On the first true it finalizes the
// integrity verdict.
func (c *fetchCore) done() bool {
	if c.finished {
		return true
	}
	if !c.metaDone || !c.geomKnown || c.cum < c.totalSegs {
		return false
	}
	c.finished = true
	c.verified = bytes.Equal(c.hash.Sum(nil), c.digest[:])
	return true
}

// stats returns the core's counters; the flow's CRC failures and its
// shard's rejected datagrams are publish's to add.
func (c *fetchCore) stats() FetchStats {
	return FetchStats{
		ReqsSent: c.reqsSent, SegsRx: c.segsRx, Dups: c.dups,
		LostReqs: c.lostReqs, Probes: c.probes, Refetched: c.refetched,
		Delivered: c.delivered, Inflight: c.book.Inflight(), Pend: c.book.Len(),
		SRTT:   c.book.RTT.SRTT(),
		P50RTT: c.rtt.Quantile(0.50), P95RTT: c.rtt.Quantile(0.95), P99RTT: c.rtt.Quantile(0.99),
		WdTrips: c.book.Trips(), WdRecov: c.book.Recoveries(),
		InOutage: c.book.InOutage(), Done: c.finished, Verified: c.verified,
		SentBytes: (c.reqsSent + c.probes) * wire.FetchLen, // every request is one fixed-size frame
	}
}

// publish makes the core's counters, with the flow's CRC failures and
// its shard's rejected datagrams, what FetchFlow.Stats reads.
func (c *fetchCore) publish(crcErrs, shardBad int64) {
	st := c.stats()
	st.BadResps, st.CrcErrs = crcErrs+shardBad, crcErrs
	c.pubMu.Lock()
	c.pub = st
	c.pubMu.Unlock()
}

// onLost is the core's per-loss bookkeeping, run by the book before
// the controller hears OnLoss: the named segment re-enters the
// retransmit queue unless it has been delivered through another copy in
// the meantime — the rule that makes resumption after a blackout
// re-request only what is actually missing.
func (c *fetchCore) onLost(rec *transport.Record, now float64) {
	c.lostReqs++
	if rec.Tag == metaTag {
		c.metaOut--
	} else if !c.segDone(rec.Tag) {
		c.pushRetx(rec.Tag)
	}
}

// pushRetx queues seg for re-request, keeping the queue sorted (lowest
// last — the segment closest to the delivery point unblocks the most
// window, and a pop off the end keeps the capacity) and deduplicated.
func (c *fetchCore) pushRetx(seg int64) {
	if c.retxSet[seg] {
		return
	}
	c.retxSet[seg] = true
	i := len(c.retx)
	c.retx = append(c.retx, 0)
	for i > 0 && c.retx[i-1] < seg {
		c.retx[i] = c.retx[i-1]
		i--
	}
	c.retx[i] = seg
}
