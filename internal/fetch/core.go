package fetch

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"hash"
	"sync"

	"pccproteus/internal/engine"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// DefaultWindow is the reassembly window in segments: how far past
// the in-order delivery point the fetcher will request. ~5.7 MB at
// the default segment size — comfortably above the BDP of every
// emulated path in this repo, so the congestion window, not the
// reassembly bound, is what gates steady state.
const DefaultWindow = 4096

// Config parameterizes a transfer's scheduler core.
type Config struct {
	ObjID uint64
	CC    transport.Controller
	// SegSize is the segment payload size the server was configured
	// with; both ends must agree (default DefaultSegSize).
	SegSize int
	// Window bounds the reassembly window in segments (default
	// DefaultWindow).
	Window int
	// OnData, when set, observes each segment at in-order delivery.
	// The payload slice is only valid during the call.
	OnData func(seg int64, payload []byte)
}

// Request is one FETCH the core has decided to send: the wire header,
// less the send stamp its driver adds. Response is one SEGMENT handed
// back, declared where the wire driver builds it (engine.FetchCore)
// because the engine cannot import this package.
type (
	Request  = wire.FetchHeader
	Response = engine.FetchResponse
)

// metaTag is the transport.Record.Tag of a metadata request; data
// requests carry their segment index.
const metaTag = -1

// CoreStats is a snapshot of the scheduler's counters.
type CoreStats struct {
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
}

// Core is the transport-agnostic half of a fetcher: request selection
// under the controller's window, the retransmit queue, and in-order
// reassembly with integrity verification. Outstanding requests live in
// a transport.Recovery — the same record book, RACK + RTO rules and
// outage survival every sender runs, keyed by request nonce — so a
// fetch behaves like an upload running in the opposite direction. It
// is single-threaded by contract: an engine shard drives it from its
// one goroutine (engine.FetchCore), in real or virtual time, and only
// what Publish copies out is read from others (Fetcher.Stats). Its memory
// is O(Window) whatever geometry the server declares: a segment is
// delivered exactly when it is below cum or sits in the buffer.
type Core struct {
	cfg  Config
	book transport.Recovery

	retx    []int64 // segment indices awaiting re-request, descending
	retxSet map[int64]bool

	geomKnown bool
	totalSegs int64
	objSize   int64
	metaDone  bool
	metaOut   int // outstanding (not acked/lost) metadata requests, probes aside
	digest    [wire.DigestLen]byte

	buffer    map[int64][]byte // received segments in (cum, cum+Window)
	spare     [][]byte         // emptied buffers, for the next out-of-order segment
	cum       int64            // segments [0,cum) delivered in order
	next      int64            // next never-requested segment
	hash      hash.Hash
	delivered int64

	finished bool
	verified bool

	revBase float64 // reverse-path constant calibrated at the first response
	revCal  bool

	rtt *stats.LogHist // per-request RTT samples

	reqsSent, segsRx, dups, lostReqs, probes, refetched int64

	// pub is what Publish last made of the counters, read by
	// Fetcher.Stats under pubMu.
	pubMu sync.Mutex
	pub   FetcherStats
}

// NewCore validates cfg and builds a scheduler core.
func NewCore(cfg Config) (*Core, error) {
	if cfg.CC == nil {
		return nil, errors.New("fetch: core needs a controller")
	}
	if cfg.SegSize <= 0 {
		cfg.SegSize = DefaultSegSize
	}
	if cfg.SegSize > wire.MaxSegPayload {
		return nil, errors.New("fetch: segment size exceeds wire maximum")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	c := &Core{
		cfg:     cfg,
		retxSet: make(map[int64]bool),
		buffer:  make(map[int64][]byte),
		hash:    sha256.New(),
		// Geometric bins from 100 µs to 10 s, ~7% relative resolution.
		rtt: stats.NewLogHist(1e-4, 10, 160),
	}
	c.book.Init(cfg.CC, c.onLost)
	return c, nil
}

// segWire returns the expected wire size of the response to a request
// for seg (a full segment until the geometry is known).
func (c *Core) segWire(seg int64) int {
	n := c.cfg.SegSize
	if c.geomKnown {
		if rem := c.objSize - seg*int64(c.cfg.SegSize); rem < int64(n) {
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
func (c *Core) pick() (kind int, seg int64, size int) {
	if c.book.InOutage() || c.Done() {
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
		if kind == pickNone && c.geomKnown && c.next < c.totalSegs && c.next < c.cum+int64(c.cfg.Window) {
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

// PeekSize returns the expected response size of the next request, or
// false when nothing may be issued now (complete, outage, reassembly
// window full, or congestion-window blocked). Drivers use it to take
// pacing tokens before committing with Issue.
func (c *Core) PeekSize() (int, bool) {
	kind, _, size := c.pick()
	return size, kind != pickNone
}

// Issue commits the next request: it is booked, the controller's
// OnSend fires, and the descriptor to encode is returned. virt is the
// scheduled (token-bucket) send time — the measurement timebase — and
// now the emission time; the schedule can lead the clock, so the
// request ages from whichever is later (see transport.Record).
func (c *Core) Issue(now, virt float64) (Request, bool) {
	kind, seg, size := c.pick()
	if kind == pickNone {
		return Request{}, false
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
	return Request{ObjID: c.cfg.ObjID, Nonce: rec.Seq, Seg: seg, Meta: kind == pickMeta}, true
}

// Book returns the core's record book of outstanding requests. The
// engine drives it as it drives a sender's: the stall watchdog and RTO
// sweep on its tick, the liveness clock while silence is explained
// (just admitted, paused, draining), the probe cadence during an outage
// and the pacing rate.
func (c *Core) Book() *transport.Recovery { return &c.book }

// Probe books one keep-alive, for a driver whose book has one due
// (Recovery.ProbeDue), and returns the request: it re-requests a needed
// segment (or the metadata) but is invisible to the controller — no
// OnSend, no inflight accounting.
func (c *Core) Probe(now float64) Request {
	req := Request{ObjID: c.cfg.ObjID, Nonce: c.book.AddProbe(now, 0).Seq, Meta: !c.metaDone}
	if !req.Meta {
		req.Seg = c.cum // by definition the first undelivered segment
	}
	c.probes++
	return req
}

// OnResponse applies one response: request-record retirement with an
// RTT sample and controller OnAck, then payload delivery (late and
// probe responses still deliver — data is data), then loss detection.
// recvAt is the response's arrival stamp on the emulated path; now is
// the fetcher-clock time of processing. It reports whether the response
// ended an outage, so a pacing driver can re-anchor its schedule.
func (c *Core) OnResponse(r Response, recvAt, now float64) (healed bool) {
	// Any response is liveness; during an outage it proves the path
	// healed.
	healed = c.book.Alive(now)
	if !c.geomKnown && r.TotalSegs > 0 {
		// Every response carries the geometry, so the fetcher starts
		// filling the window off whichever response lands first.
		c.geomKnown = true
		c.totalSegs = r.TotalSegs
		c.objSize = r.ObjSize
	}
	if rec := c.book.Find(r.Nonce); rec != nil {
		c.ackRec(rec, now, recvAt)
	}
	c.deliver(r)
	c.book.Detect(now)
	return healed
}

// ackRec retires one outstanding request against its response.
func (c *Core) ackRec(rec *transport.Record, now, recvAt float64) {
	c.book.Ack(rec)
	if rec.Probe {
		return // liveness only: no controller callbacks, no RTT sample
	}
	if rec.Tag == metaTag {
		c.metaOut--
	}
	// Timestamp-based RTT exactly as the wire sender measures it: the
	// forward half against the echoed scheduled-send stamp and the
	// response's emulated arrival, the reverse half a constant
	// calibrated once at the first response (a locked constant cannot
	// masquerade as an RTT trend; a drifting minimum can).
	if !c.revCal {
		c.revBase = now - recvAt
		c.revCal = true
	}
	rtt := max((recvAt-rec.SentAt)+c.revBase, 0)
	c.book.RTT.Update(rtt)
	c.rtt.Add(rtt)
	c.cfg.CC.OnAck(transport.Ack{
		Seq: rec.Seq, Bytes: rec.Size, SentAt: rec.SentAt, RecvAt: recvAt,
		Now: now, RTT: rtt, OWD: recvAt - rec.SentAt, MI: rec.MI,
		Inflight: c.book.Inflight(),
	})
}

// deliver routes a response's content into the reassembly state. The
// request record's fate is irrelevant here: a segment that arrives
// after its request was declared lost is new data all the same, and
// counting it delivered is what makes retransmissions converge. Only
// segments in [cum, cum+Window) were ever requested; anything else is
// stale or forged and is dropped, which bounds the buffer.
func (c *Core) deliver(r Response) {
	if r.Meta {
		if c.metaDone {
			c.dups++
			return
		}
		copy(c.digest[:], r.Payload)
		c.metaDone = true
		return
	}
	_, buffered := c.buffer[r.Seg]
	if !c.geomKnown || r.Seg < c.cum || r.Seg >= c.totalSegs || r.Seg-c.cum >= int64(c.cfg.Window) || buffered {
		c.dups++
		return
	}
	c.segsRx++
	if r.Seg > c.cum {
		var buf []byte
		if n := len(c.spare); n > 0 {
			buf, c.spare = c.spare[n-1], c.spare[:n-1]
		}
		c.buffer[r.Seg] = append(buf[:0], r.Payload...)
		return
	}
	c.deliverCum(r.Payload)
	for payload, ok := c.buffer[c.cum]; ok; payload, ok = c.buffer[c.cum] {
		delete(c.buffer, c.cum)
		c.deliverCum(payload)
		c.spare = append(c.spare, payload)
	}
}

// deliverCum hands segment cum to the hash and the data hook and
// advances cum past it.
func (c *Core) deliverCum(payload []byte) {
	c.hash.Write(payload)
	if c.cfg.OnData != nil {
		c.cfg.OnData(c.cum, payload)
	}
	c.delivered += int64(len(payload))
	c.cum++
}

// segDone reports whether seg has already been received.
func (c *Core) segDone(seg int64) bool {
	_, buffered := c.buffer[seg]
	return seg >= 0 && seg < c.cum || buffered
}

// Done reports whether the transfer is complete: geometry and digest
// known, every segment delivered. On the first true it finalizes the
// integrity verdict.
func (c *Core) Done() bool {
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

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() CoreStats {
	return CoreStats{
		ReqsSent: c.reqsSent, SegsRx: c.segsRx, Dups: c.dups,
		LostReqs: c.lostReqs, Probes: c.probes, Refetched: c.refetched,
		Delivered: c.delivered, Inflight: c.book.Inflight(), Pend: c.book.Len(),
		SRTT:   c.book.RTT.SRTT(),
		P50RTT: c.rtt.Quantile(0.50), P95RTT: c.rtt.Quantile(0.95), P99RTT: c.rtt.Quantile(0.99),
		WdTrips: c.book.Trips(), WdRecov: c.book.Recoveries(),
		InOutage: c.book.InOutage(), Done: c.finished, Verified: c.verified,
	}
}

// Publish makes the core's counters, with the fetch's CRC failures and
// its shard's rejected datagrams, what Fetcher.Stats reads. The engine
// calls it on the core's goroutine (engine.FetchCore).
func (c *Core) Publish(crcErrs, shardBad int64) {
	st := FetcherStats{CoreStats: c.Stats(), BadResps: crcErrs + shardBad, CrcErrs: crcErrs}
	st.SentBytes = (st.ReqsSent + st.Probes) * wire.FetchLen // every request is one fixed-size frame
	c.pubMu.Lock()
	c.pub = st
	c.pubMu.Unlock()
}

// published is what Publish last made of the counters.
func (c *Core) published() FetcherStats {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	return c.pub
}

// onLost is the core's per-loss bookkeeping, run by the book before
// the controller hears OnLoss: the named segment re-enters the
// retransmit queue unless it has been delivered through another copy in
// the meantime — the rule that makes resumption after a blackout
// re-request only what is actually missing.
func (c *Core) onLost(rec *transport.Record, now float64) {
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
func (c *Core) pushRetx(seg int64) {
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
