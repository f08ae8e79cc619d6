package engine

import (
	"net/netip"
	"sync"

	"pccproteus/internal/overload"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// fetchKey is what a SEGMENT names: the serving peer and the object.
type fetchKey struct {
	addr netip.AddrPort
	obj  uint64
}

// flow is one event-loop citizen: its identity, the wheel bookkeeping
// shared by every role, and exactly one of the three role states. Owned
// by a single shard goroutine; the only cross-goroutine reads are the
// stats the role states publish and a fetch's stop flag.
type flow struct {
	// A flow is identified on its shard by peer address plus wire flow ID.
	// A fetch flow's ID never goes on the wire — its responses select it
	// through shard.fetches — and only keeps its identity unique. next
	// chains the flows of one table bucket.
	addr netip.AddrPort
	id   uint32
	next *flow

	// Pacing-wheel intrusive state (see wheel.go): while armed, the flow
	// sits on slot wslot's list between wprev and wnext.
	wnext, wprev *flow
	wslot        int
	deadline     float64
	armed        bool

	lastSeen float64 // shard-clock seconds of the last packet either way

	snd *senderFlow // exactly one of snd/rcv/fch is non-nil
	rcv *recvFlow
	fch *FetchFlow
}

// role returns a sender's or fetch's role, nil for a receiver.
func (f *flow) role() role {
	switch {
	case f.snd != nil:
		return f.snd
	case f.fch != nil:
		return f.fch
	}
	return nil
}

// origin returns a sender's or fetch's shared state, nil for a receiver.
func (f *flow) origin() *origin {
	if r := f.role(); r != nil {
		return r.base()
	}
	return nil
}

// Pump constants of the two locally originated roles. Loss declaration,
// RTO backoff, the stall watchdog and the probe cadence live in
// transport.Recovery.
const (
	// rtoCheckEvery is the cadence of the book's periodic work (watchdog,
	// RTO sweep) on the pump path.
	rtoCheckEvery = 0.010
	// ackPoll is the wake cadence while window- or limit-gated; minWake
	// is the shortest pacing sleep worth scheduling.
	ackPoll = 0.001
	minWake = 50e-6
)

// origin is what the two locally originated roles, sender and fetch,
// share: the token bucket their trains are paced from, the controller
// and the record book the one pump drives, the reverse-path constant
// their RTT samples use, the class that fixes who yields under host
// pressure, and the pause the owning shard's Shed action sets (emission
// stops, RTO aging continues).
type origin struct {
	pacer    wire.Pacer
	cc       transport.Controller
	book     transport.Recovery
	rev      revPath
	burst    int
	lastTick float64 // last run of the rtoCheckEvery work
	class    overload.Class
	paused   bool
}

// newOrigin builds the shared state for trains of train bytes under cc,
// whose name fixes the class (overload.ClassOf); onLost is the role's
// per-loss hook (transport.Recovery.Init). The bucket holds two trains
// or pacerDepth of the pacing rate, whichever is more, and starts with
// one train in it: a new flow's first packets leave in the pass that
// admits it.
func newOrigin(burst, train int, cc transport.Controller, onLost func(*transport.Record, float64)) origin {
	o := origin{cc: cc, burst: burst, class: overload.ClassOf(cc.Name())}
	o.book.Init(cc, onLost)
	o.pacer.Cap, o.pacer.Depth = float64(2*train), pacerDepth
	o.pacer.Prime(train)
	return o
}

// role is what a locally originated flow, sender or fetch, gives the
// one pump that serves both. For a paced train: the bucket level a full
// train waits for, what the next packet charges the bucket (false while
// window, limit or lack of work gates the role), and the emission of one
// packet stamped with its scheduled send time. For the rest of a wake:
// its origin (which holds the record book the pump drives), one outage
// keep-alive, making the counters what the handle reads, whether the
// flow has nothing left to do, and until when a peer's push-back holds
// emission.
type role interface {
	base() *origin
	trainBytes() int
	peek() (size int, ok bool)
	emit(sh *shard, f *flow, now, virt float64, size int)
	probe(sh *shard, f *flow, now float64)
	publish()
	finished() bool
	heldUntil() float64
}

func (o *origin) base() *origin { return o }

// pump advances a sender or fetch: the book's periodic work, then a
// paced train while tokens, window, limit and work allow. It returns the
// next wake deadline, or 0 when the flow has nothing left to do.
func (o *origin) pump(r role, sh *shard, f *flow, now float64) float64 {
	book := &o.book
	if now-o.lastTick >= rtoCheckEvery {
		o.lastTick = now
		book.Watchdog(now)
		if book.Expire(now) {
			book.BackOff(now)
		}
		r.publish()
	}
	if r.finished() {
		return 0
	}
	if book.InOutage() {
		// Emission is frozen; only keep-alive probes go out, hunting for
		// the first answer that proves the path healed.
		if book.ProbeDue(now) {
			r.probe(sh, f, now)
		}
		return now + rtoCheckEvery
	}
	// Pushed back, shed, or draining: no emission, but keep waking on
	// the RTO cadence so loss aging (and a push-back's expiry) still run.
	// The silence is explained, so the watchdog's clock does not run.
	held := r.heldUntil()
	if o.paused || now < held || sh.eng.draining.Load() {
		book.Touch(now)
		next := now + rtoCheckEvery
		if !o.paused && now < held && held < next {
			next = held
		}
		return next
	}
	return o.train(r, sh, f, now, book.PacingRate())
}

// train accrues tokens at rate, emits what they cover and returns the
// next wake deadline. Trains are all-or-nothing: wait until the bucket
// covers a full burst, then drain it — everything a late wake let
// accrue, not one burst — each packet stamped with its scheduled send
// time (Pacer.TakeStamped), so the stamps stay on the ideal n/rate grid
// however the wakes fall.
func (o *origin) train(r role, sh *shard, f *flow, now, rate float64) float64 {
	o.pacer.Advance(now, rate)
	if o.pacer.Delay(r.trainBytes(), rate) == 0 {
		for {
			size, ok := r.peek()
			if !ok {
				o.pacer.Unanchor()   // the gate, not the bucket, held the train
				return now + ackPoll // gated: wake on the ack cadence
			}
			virt, ok := o.pacer.TakeStamped(now, rate, size)
			if !ok {
				break
			}
			r.emit(sh, f, now, virt, size)
		}
	}
	return now + max(min(o.pacer.Delay(r.trainBytes(), rate), ackPoll), minWake)
}

// senderFlow drives one congestion-controlled flow from shard events:
// origin.pump on timer fires, onAck() on ack arrival. It is a driver of
// its origin's transport.Recovery — the same record book, loss rules and
// survival machinery the simulated transport runs — adding what is the
// engine's own: pacing, the wire codecs, overload class and push-back.
// All methods run on the owning shard goroutine, so controllers — which
// are not thread-safe — only ever see single-threaded calls.
type senderFlow struct {
	origin
	launched   int64
	limit      int64
	packetSize int

	// busyUntil/busyStreak implement the jittered exponential backoff a
	// peer's BUSY frames demand.
	busyUntil  float64
	busyStreak int

	// st is the flow's counters, owned by the loop; publish completes it
	// from the book and copies it into pub, which Flow.Stats reads under
	// pubMu — on the rtoCheckEvery tick, before done closes and when the
	// flow leaves its shard.
	st    FlowStats
	pubMu sync.Mutex
	pub   FlowStats

	// Per-ack RTT sample log for measurement harnesses (parity runs);
	// off unless FlowConfig.RecordRTT, so the hot path never touches
	// the mutex. Appends happen on the shard goroutine under pubMu while
	// a harness reads concurrently through Flow.RTTSamples.
	rttSamples []float64
	recordRTT  bool

	completed bool // a finite transfer is fully acked: done is closed

	done chan struct{}
}

// newSenderFlow builds the sender state for an (already defaulted)
// flow configuration; the class follows the controller.
func newSenderFlow(fc FlowConfig) *senderFlow {
	s := &senderFlow{
		limit: fc.Limit, packetSize: fc.PacketSize,
		done: make(chan struct{}), recordRTT: fc.RecordRTT,
	}
	s.origin = newOrigin(transport.DefaultBurst, transport.DefaultBurst*fc.PacketSize, fc.CC, s.onLost)
	return s
}

// publish makes the flow's counters, and what the book knows of its
// RTT, outstanding records and outages, what Flow.Stats reads.
func (s *senderFlow) publish() {
	s.st.SRTT = s.book.RTT.SRTT()
	s.st.UnackedRecs = s.book.Len()
	s.st.WatchdogTrips = s.book.Trips()
	s.st.Recoveries = s.book.Recoveries()
	s.st.InOutage = s.book.InOutage()
	s.pubMu.Lock()
	s.pub = s.st
	s.pubMu.Unlock()
}

// finished reports a fully acked finite transfer: nothing to schedule.
func (s *senderFlow) finished() bool { return s.completed && s.book.Len() == 0 }

// heldUntil is the end of the backoff a peer's BUSY frames demand.
func (s *senderFlow) heldUntil() float64 { return s.busyUntil }

// emit books, encodes and queues one data packet stamped
// with its scheduled send time. Stamps are committed a train ahead, so
// the schedule can lead the clock (DESIGN §7): the record ages from
// whichever of emission and stamp is later. The packet that takes
// launched to the limit carries the push bit (wire/packet.go), so a
// replacement sent after a loss re-credit carries it again; reaching the
// limit is the only trigger.
func (s *senderFlow) emit(sh *shard, f *flow, now, virt float64, size int) {
	r := s.book.Add(now, size, virt, max(now, virt))
	s.cc.OnSend(now, &r.SentPacket)
	s.launched += int64(size)
	s.st.SentPkts++
	s.st.SentBytes += int64(size)
	pkt := wire.EncodeData(sh.txBuf(), wire.DataHeader{
		Seq: r.Seq, SentAt: sh.clock.NanosAt(virt), Flow: f.id,
		Push: s.limit > 0 && s.launched >= s.limit,
	}, size)
	sh.queueTx(pkt, f.addr)
}

// probe emits one header-only keep-alive packet during an outage.
func (s *senderFlow) probe(sh *shard, f *flow, now float64) {
	r := s.book.AddProbe(now, wire.DataHeaderLen)
	s.st.ProbesSent++
	pkt := wire.EncodeData(sh.txBuf(), wire.DataHeader{
		Seq: r.Seq, SentAt: sh.clock.NanosAt(now), Flow: f.id,
	}, wire.DataHeaderLen)
	sh.queueTx(pkt, f.addr)
}

// Busy-backoff bounds: the exponent stops doubling after
// maxBusyDoublings steps and the computed backoff never exceeds
// maxBusyBackoff seconds, so a long brownout cannot push a scavenger's
// retry horizon past recovery-detection usefulness.
const (
	maxBusyDoublings = 7
	maxBusyBackoff   = 30.0
)

// onBusy applies one BUSY push-back frame: back off for the peer's
// retry-after hint, doubled per consecutive BUSY and jittered to
// ±25% so a cohort of refused scavengers does not retry in lockstep.
func (s *senderFlow) onBusy(sh *shard, bp wire.BusyPacket, now float64) {
	if s.busyStreak < maxBusyDoublings {
		s.busyStreak++
	}
	backoff := float64(bp.RetryAfterMillis) / 1000
	for i := 1; i < s.busyStreak; i++ {
		backoff *= 2
	}
	if backoff > maxBusyBackoff {
		backoff = maxBusyBackoff
	}
	until := now + backoff*(0.75+0.5*sh.rng.Float64())
	if until > s.busyUntil {
		s.busyUntil = until
	}
	// No back-credit for the pause: pacing re-anchors when emission
	// resumes.
	s.pacer.Reset(now)
}

// onAck applies one decoded ack: retire covered packets with
// controller callbacks, then let the book run loss detection.
func (s *senderFlow) onAck(sh *shard, f *flow, a *wire.AckPacket, now float64) {
	// Any decoded ack is liveness: it resets the backoffs, and during an
	// outage it is proof the path healed.
	s.busyStreak = 0
	if s.book.Alive(now) {
		// The dead time must not turn into a catch-up burst or stale
		// schedule stamps.
		s.pacer.Reset(now)
	}
	// The highest sequence this ack covers bounds the walk below.
	top := max(a.Seq, a.CumAck-1)
	for _, bl := range a.Blocks {
		top = max(top, bl.End-1)
	}
	recvAt := sh.clock.SecondsSince(a.RecvAt)
	// The reverse half is calibrated at the first decoded ack.
	s.rev.lock(now, recvAt)
	// A coalesced ack echoes only its newest packet's stamps. Computing
	// every retired packet's RTT against that one arrival would inflate
	// the older samples by up to ackEvery−1 packet intervals — sawtooth
	// noise a latency-gradient controller reads as queue growth. Take
	// the one accurate sample from the echoed packet's own record and
	// attribute it to everything this ack retires; when the echo has no
	// live record (dup data, already retired) or is a probe, skip the
	// estimator entirely, Karn-style.
	ackRTT := s.book.RTT.SRTT()
	if r := s.book.Find(a.Seq); r != nil && !r.Probe {
		ackRTT = s.rev.rtt(r.SentAt, recvAt)
		s.book.RTT.Update(ackRTT)
		if s.recordRTT {
			s.pubMu.Lock()
			s.rttSamples = append(s.rttSamples, ackRTT)
			s.pubMu.Unlock()
		}
	}
	for q, last := s.book.Lo(), min(top, s.book.Next()-1); q <= last; q++ {
		if r := s.book.Find(q); r != nil && (q < a.CumAck || a.Covers(q)) {
			s.ackRec(r, now, recvAt, ackRTT)
		}
	}
	s.book.Detect(now)
	if s.limit > 0 && !s.completed && s.st.AckedBytes >= s.limit {
		s.completed = true
		s.publish()
		close(s.done)
	}
}

func (s *senderFlow) ackRec(r *transport.Record, now, recvAt, rtt float64) {
	s.book.Ack(r)
	if r.Probe {
		return // liveness only: no bytes the controller should hear about
	}
	s.st.AckedPkts++
	s.st.AckedBytes += int64(r.Size)
	s.cc.OnAck(ackOf(r, now, recvAt, rtt, rtt-s.rev.base, s.book.Inflight()))
}

// revPath is the reverse half of a timestamp-based RTT, in the style of
// TCP timestamps: the forward half is measured against the peer's
// echoed stamps, the reverse half is this constant, calibrated once. The
// congestion signal — the bottleneck queue — lives in the forward path,
// so this loses no queueing while keeping return-path timer noise out of
// the controller's gradient regression. The calibration is locked, not a
// running minimum: a drifting offset reads as an RTT trend, a fixed one
// that is a millisecond off is invisible. Each role picks its moment:
// a sender calibrates at its first decoded ack, a fetch at its first
// live, non-probe response.
type revPath struct {
	base float64
	cal  bool
}

// lock calibrates the constant from one arrival stamped recvAt and
// processed at now, the first time it is called.
func (p *revPath) lock(now, recvAt float64) {
	if !p.cal {
		p.base, p.cal = now-recvAt, true
	}
}

// rtt is one sample: the forward half from sentAt to recvAt plus the
// reverse constant.
func (p *revPath) rtt(sentAt, recvAt float64) float64 { return max((recvAt-sentAt)+p.base, 0) }

// ackOf is the controller's report of one retired record, after
// book.Ack: inflight is the book's once the record has left it.
func ackOf(r *transport.Record, now, recvAt, rtt, owd float64, inflight int) transport.Ack {
	return transport.Ack{
		Seq: r.Seq, Bytes: r.Size, SentAt: r.SentAt, RecvAt: recvAt,
		Now: now, RTT: rtt, OWD: owd, MI: r.MI, Inflight: inflight,
	}
}

// onLost is the flow's per-loss accounting, run by the book before the
// controller hears OnLoss.
func (s *senderFlow) onLost(r *transport.Record, now float64) {
	s.st.LostPkts++
	s.st.LostBytes += int64(r.Size)
	if s.limit > 0 {
		s.launched -= int64(r.Size) // re-credit so a replacement goes out
	}
}

func (s *senderFlow) trainBytes() int { return s.capped(s.burst * s.packetSize) }

func (s *senderFlow) nextSize() int { return s.capped(s.packetSize) }

// peek gates the next packet on the transfer limit and the window.
func (s *senderFlow) peek() (int, bool) {
	size := s.nextSize()
	return size, size > 0 && float64(s.book.Inflight()+size) <= s.cc.CWnd()
}

// capped clamps n to what a finite transfer has left to launch: zero at
// the limit (peek then reports the gate), else never below a bare header.
func (s *senderFlow) capped(n int) int {
	rem := s.limit - s.launched
	switch {
	case s.limit <= 0 || rem >= int64(n):
		return n
	case rem <= 0:
		return 0
	}
	return max(int(rem), wire.DataHeaderLen)
}

// restartCumFloor guards collision detection on reused (addr, flowID)
// pairs: sequence numbers are never reused within one flow's life, so
// seq 0 arriving while the cumulative ack is already past this floor
// can only be a restarted sender that picked the same flow ID from
// the same port — the tracker resets rather than treating the entire
// new flow as duplicates. The floor keeps a network-duplicated
// first packet of a young flow from wiping real state.
const restartCumFloor = 4

// Ack coalescing: a steady in-order flow acks every ackEvery-th
// packet instead of every packet, halving the receiver's transmit
// work — the dominant datapath cost at high aggregate rates. Any
// anomaly (duplicate, outstanding SACK gap) and every packet of a
// young flow acks immediately, so loss detection, fast retransmit,
// and the sender's first-ack RTT calibration see no added latency; so
// does a packet carrying the push bit, which ends a finite transfer, and
// one that fills the last hole below it.
// A wheel-armed delayed ack bounds how long any other odd tail packet
// (an unlimited flow that pauses mid-count) waits.
const (
	ackEvery     = 4
	delayedAckTO = 0.005
)

// recvFlow is the ack-generating side of one flow: a cumulative-ack +
// SACK tracker answering data with (coalesced) acks.
type recvFlow struct {
	wire.AckTracker
	highest int64
	// pushSeq is the newest push-marked sequence number seen, -1 before
	// any: from then on the sender has launched its transfer's last byte.
	pushSeq int64

	// Coalesced-ack state: echo stamps of the newest unacked packet,
	// flushed by the next immediate ack or the delayed-ack timer.
	unacked    int
	pendSeq    int64
	pendSentAt int64
	pendRecvAt int64
}

// finished reports whether the flow has seen its transfer's push-marked
// last packet. A replacement after a loss takes a new sequence number, so
// a finished flow with holes never fills them.
func (rf *recvFlow) finished() bool { return rf.pushSeq >= 0 }

// onData records one data packet and queues the ack. It reports whether
// the transfer is complete — everything up to the push-marked packet in,
// no SACK range open — in which case the ack it queued is the final one.
func (rf *recvFlow) onData(sh *shard, f *flow, h wire.DataHeader, n int, now float64) bool {
	if h.Seq == 0 && rf.Cum > restartCumFloor {
		// Collision: the (addr, flowID) pair was reused by a restarted
		// sender. Rebind as a new flow.
		rf.Cum = 0
		rf.Ranges = rf.Ranges[:0]
		if rf.finished() {
			sh.finished--
		}
		rf.highest, rf.pushSeq = -1, -1
		rf.unacked = 0
		sh.st.Rebinds++
	}
	dup := !rf.Record(h.Seq)
	if dup {
		sh.st.RxDups++
	} else {
		sh.st.Delivered++
		sh.st.DeliveredBytes += int64(n)
	}
	if h.Seq > rf.highest {
		rf.highest = h.Seq
	}
	if h.Push && h.Seq > rf.pushSeq {
		if !rf.finished() {
			sh.finished++
		}
		rf.pushSeq = h.Seq
	}
	// Prefer a shim's emulated arrival stamp: RTTs then measure the
	// emulated path with host delivery jitter excluded. On a bare path
	// the truth is the shard's clock at the read that delivered the
	// packet: one reading serves the whole batch, which one dispatch loop
	// stamps within microseconds anyway.
	recvAt := h.Arrival
	if recvAt == 0 {
		recvAt = sh.clock.NanosAt(now)
	}
	rf.pendSeq, rf.pendSentAt, rf.pendRecvAt = h.Seq, h.SentAt, recvAt
	rf.unacked++
	done := rf.finished() && rf.Cum > rf.pushSeq && len(rf.Ranges) == 0
	if done || dup || len(rf.Ranges) > 0 || rf.Cum <= restartCumFloor || rf.unacked >= ackEvery || h.Push {
		rf.emitAck(sh, f)
		return done
	}
	// Defer: the next in-order packet (or the timer) flushes the ack.
	// A live timer is left alone — one entry per flow, not per packet.
	if !f.armed {
		sh.wh.arm(f, now+delayedAckTO)
	}
	return false
}

// emitFinalAck sends one last cumulative ack for a flow about to be
// evicted, so a sender whose data raced the eviction learns which
// packets landed instead of discovering the gap by RTO after it
// rebinds. No packet is being echoed, so SentAtEcho is zero.
func (rf *recvFlow) emitFinalAck(sh *shard, f *flow) {
	rf.pendSeq, rf.pendSentAt, rf.pendRecvAt = max(rf.highest, 0), 0, sh.clock.WallNanos()
	rf.emitAck(sh, f)
}

// emitAck flushes the coalesced ack state as one ack packet echoing
// the newest received packet's stamps.
func (rf *recvFlow) emitAck(sh *shard, f *flow) {
	rf.unacked = 0
	ack := &sh.ackScratch
	ack.Seq = rf.pendSeq
	ack.SentAtEcho = rf.pendSentAt
	ack.RecvAt = rf.pendRecvAt
	ack.CumAck = rf.Cum
	ack.Blocks = append(ack.Blocks[:0], rf.Ranges...)
	ack.Flow = f.id
	sh.queueTx(ack.Encode(sh.txBuf()), f.addr)
}
