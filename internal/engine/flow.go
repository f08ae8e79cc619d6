package engine

import (
	"net/netip"
	"sync"
	"sync/atomic"

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
// atomic counters inside the role states.
type flow struct {
	// A flow is identified on its shard by peer address plus wire flow ID.
	// Engine-originated flows always carry nonzero IDs (the allocator
	// starts at 1), so ID 0 marks version-1 traffic, which the source
	// address alone tells apart. A fetch flow's ID never goes on the wire
	// — its responses select it through shard.fetches — and only keeps its
	// identity unique. next chains the flows of one table bucket.
	addr netip.AddrPort
	id   uint32
	next *flow

	// Pacing-wheel intrusive state (see wheel.go): gen lazily cancels
	// superseded entries, armed marks a live one.
	gen      uint64
	deadline float64
	armed    bool

	lastSeen float64 // shard-clock seconds of the last packet either way

	snd *senderFlow // exactly one of snd/rcv/fch is non-nil
	rcv *recvFlow
	fch *FetchFlow
}

// origin returns a sender's or fetch's shared state, nil for a receiver.
func (f *flow) origin() *origin {
	switch {
	case f.snd != nil:
		return &f.snd.origin
	case f.fch != nil:
		return &f.fch.origin
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
// share: the token bucket their trains are paced from, the class that
// fixes who yields under host pressure, and the pause the owning
// shard's Shed action sets (emission stops, RTO aging continues).
type origin struct {
	pacer    wire.Pacer
	burst    int
	class    overload.Class
	paused   bool
	lastTick float64 // last run of the rtoCheckEvery work
}

// newOrigin builds the shared state for trains of train bytes. The
// bucket holds two trains or pacerDepth of the pacing rate, whichever is
// more, and starts with one train in it: a new flow's first packets
// leave in the pass that admits it.
func newOrigin(burst, train int, class overload.Class) origin {
	o := origin{burst: burst, class: class}
	o.pacer.Cap, o.pacer.Depth = float64(2*train), pacerDepth
	o.pacer.Prime(train)
	return o
}

// trainer is the role-specific half of a paced train: the bucket level
// a full train waits for, what the next packet charges the bucket (false
// while window, limit or lack of work gates the role), and the emission
// of one packet stamped with its scheduled send time.
type trainer interface {
	trainBytes() int
	peek() (size int, ok bool)
	emit(sh *shard, f *flow, now, virt float64, size int)
}

// train accrues tokens at rate, emits what they cover and returns the
// next wake deadline. Trains are all-or-nothing: wait until the bucket
// covers a full burst, then drain it — everything a late wake let
// accrue, not one burst — each packet stamped with its scheduled send
// time (Pacer.TakeStamped), so the stamps stay on the ideal n/rate grid
// however the wakes fall.
func (o *origin) train(t trainer, sh *shard, f *flow, now, rate float64) float64 {
	o.pacer.Advance(now, rate)
	if o.pacer.Delay(t.trainBytes(), rate) == 0 {
		for {
			size, ok := t.peek()
			if !ok {
				return now + ackPoll // gated: wake on the ack cadence
			}
			virt, ok := o.pacer.TakeStamped(now, rate, size)
			if !ok {
				break
			}
			t.emit(sh, f, now, virt, size)
		}
	}
	return now + max(min(o.pacer.Delay(t.trainBytes(), rate), ackPoll), minWake)
}

// senderFlow drives one congestion-controlled flow from shard events:
// pump() on timer fires, onAck() on ack arrival. It is a driver of
// transport.Recovery — the same record book, loss rules and survival
// machinery the simulated transport runs — adding what is the engine's
// own: pacing, the wire codecs, overload class and push-back. All
// methods run on the owning shard goroutine, so controllers — which
// are not thread-safe — only ever see single-threaded calls.
type senderFlow struct {
	origin
	cc         transport.Controller
	book       transport.Recovery
	launched   int64
	limit      int64
	packetSize int

	revBase float64
	revCal  bool

	// busyUntil/busyStreak implement the jittered exponential backoff a
	// peer's BUSY frames demand.
	busyUntil  float64
	busyStreak int

	// Loop-owned running totals of the four per-packet counters below;
	// the packet path counts here and touches no atomic.
	nSentPkts, nSentBytes, nAckedPkts, nAckedBytes int64

	// Cross-goroutine stats surface (Flow.Stats reads these). publish
	// stores the first six — on the rtoCheckEvery tick, before done closes
	// and when the flow leaves its shard; the rest where they change.
	sentPkts   atomic.Int64
	sentBytes  atomic.Int64
	ackedPkts  atomic.Int64
	ackedBytes atomic.Int64
	srttNanos  atomic.Int64
	unackedLen atomic.Int64 // book.Len()
	lostPkts   atomic.Int64
	lostBytes  atomic.Int64
	probes     atomic.Int64
	wdTrips    atomic.Int64
	wdRecovs   atomic.Int64
	outage     atomic.Bool // mirrors book.InOutage

	// Per-ack RTT sample log for measurement harnesses (parity runs);
	// off unless FlowConfig.RecordRTT, so the hot path never touches
	// the mutex. Appends happen on the shard goroutine while a harness
	// reads concurrently through Flow.RTTSamples.
	recordRTT  bool
	rttMu      sync.Mutex
	rttSamples []float64

	completed bool
	done      chan struct{}
}

// newSenderFlow builds the sender state for an (already defaulted)
// flow configuration.
func newSenderFlow(fc FlowConfig) *senderFlow {
	s := &senderFlow{
		origin: newOrigin(fc.Burst, fc.Burst*fc.PacketSize, fc.Class),
		cc:     fc.CC, limit: fc.Limit,
		packetSize: fc.PacketSize, done: make(chan struct{}),
		recordRTT: fc.RecordRTT,
	}
	s.book.Init(fc.CC, s.onLost)
	return s
}

// publish stores the loop-owned totals where Flow.Stats reads them.
func (s *senderFlow) publish() {
	s.sentPkts.Store(s.nSentPkts)
	s.sentBytes.Store(s.nSentBytes)
	s.ackedPkts.Store(s.nAckedPkts)
	s.ackedBytes.Store(s.nAckedBytes)
	s.srttNanos.Store(int64(s.book.RTT.SRTT() * 1e9))
	s.unackedLen.Store(int64(s.book.Len()))
}

// pump advances the flow: the book's periodic work, then a paced train
// while tokens, window, and limit allow. It returns the next wake
// deadline, or 0 when the flow has nothing left to do.
func (s *senderFlow) pump(sh *shard, f *flow, now float64) float64 {
	if now-s.lastTick >= rtoCheckEvery {
		s.lastTick = now
		if s.book.Watchdog(now) {
			s.outage.Store(true)
			s.wdTrips.Add(1)
		}
		if s.book.Expire(now) {
			s.book.BackOff(now)
		}
		s.publish()
	}
	if s.completed && s.book.Len() == 0 {
		return 0 // fully acked finite transfer: nothing to schedule
	}
	if s.book.InOutage() {
		// Data sending is frozen; only keep-alive probes go out, hunting
		// for the first ack that proves the path healed.
		if s.book.ProbeDue(now) {
			s.sendProbe(sh, f, now)
		}
		return now + rtoCheckEvery
	}
	// Pushed back, shed, or draining: no emission, but keep waking on
	// the RTO cadence so loss aging (and a busy expiry) still run. The
	// silence is explained, so the watchdog's clock does not run.
	if s.paused || now < s.busyUntil || sh.eng.draining.Load() {
		s.book.Touch(now)
		next := now + rtoCheckEvery
		if !s.paused && now < s.busyUntil && s.busyUntil < next {
			next = s.busyUntil
		}
		return next
	}
	return s.train(s, sh, f, now, s.book.PacingRate())
}

// emit books, encodes and queues one version-2 data packet stamped
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
	s.nSentPkts++
	s.nSentBytes += int64(size)
	pkt := wire.EncodeDataV2(sh.txBuf(), wire.DataHeader{
		Seq: r.Seq, SentAt: sh.clock.NanosAt(virt), Flow: f.id,
		Push: s.limit > 0 && s.launched >= s.limit,
	}, size)
	sh.queueTx(pkt, f.addr)
}

// sendProbe emits one header-only keep-alive packet during an outage.
func (s *senderFlow) sendProbe(sh *shard, f *flow, now float64) {
	r := s.book.AddProbe(now, wire.DataHeaderLenV2)
	s.probes.Add(1)
	pkt := wire.EncodeDataV2(sh.txBuf(), wire.DataHeader{
		Seq: r.Seq, SentAt: sh.clock.NanosAt(now), Flow: f.id,
	}, wire.DataHeaderLenV2)
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
		s.outage.Store(false)
		s.wdRecovs.Add(1)
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
	// Timestamp-based RTT, in the style of TCP timestamps: the forward
	// half is measured against the receiver's echoed arrival stamp, the
	// reverse half is a constant calibrated once at the first ack. The
	// congestion signal — the bottleneck queue — lives in the forward
	// path, so this loses no queueing while keeping ack-path timer noise
	// out of the controller's gradient regression. The calibration is
	// locked, not a running minimum: a drifting offset reads as an RTT
	// trend, a fixed one that is a millisecond off is invisible.
	if !s.revCal {
		s.revBase = now - recvAt
		s.revCal = true
	}
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
		ackRTT = max((recvAt-r.SentAt)+s.revBase, 0)
		s.book.RTT.Update(ackRTT)
		if s.recordRTT {
			s.rttMu.Lock()
			s.rttSamples = append(s.rttSamples, ackRTT)
			s.rttMu.Unlock()
		}
	}
	for q, last := s.book.Lo(), min(top, s.book.Next()-1); q <= last; q++ {
		if r := s.book.Find(q); r != nil && (q < a.CumAck || a.Covers(q)) {
			s.ackRec(r, now, recvAt, ackRTT)
		}
	}
	s.book.Detect(now)
	if s.limit > 0 && !s.completed && s.nAckedBytes >= s.limit {
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
	s.nAckedPkts++
	s.nAckedBytes += int64(r.Size)
	s.cc.OnAck(transport.Ack{
		Seq: r.Seq, Bytes: r.Size, SentAt: r.SentAt, RecvAt: recvAt,
		Now: now, RTT: rtt, OWD: rtt - s.revBase, MI: r.MI,
		Inflight: s.book.Inflight(),
	})
}

// onLost is the flow's per-loss accounting, run by the book before the
// controller hears OnLoss.
func (s *senderFlow) onLost(r *transport.Record, now float64) {
	s.lostPkts.Add(1)
	s.lostBytes.Add(int64(r.Size))
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
	return max(int(rem), wire.DataHeaderLenV2)
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
// does a packet carrying the push bit, which ends a finite transfer.
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
	pkts    int64
	dups    int64

	// Coalesced-ack state: echo stamps of the newest unacked packet,
	// flushed by the next immediate ack or the delayed-ack timer.
	unacked    int
	pendSeq    int64
	pendSentAt int64
	pendRecvAt int64
}

// onData records one data packet and queues the ack, echoing the
// packet's wire version.
func (rf *recvFlow) onData(sh *shard, f *flow, h wire.DataHeader, n int, now float64) {
	if h.Seq == 0 && rf.Cum > restartCumFloor {
		// Collision: the (addr, flowID) pair was reused by a restarted
		// sender. Rebind as a new flow.
		rf.Cum = 0
		rf.Ranges = rf.Ranges[:0]
		rf.highest = -1
		rf.pkts, rf.dups = 0, 0
		rf.unacked = 0
		sh.ctr.rebinds.Add(1)
	}
	dup := !rf.Record(h.Seq)
	if dup {
		rf.dups++
		sh.ctr.rxDups.Add(1)
	} else {
		rf.pkts++
		sh.nDelivered++
		sh.nDeliveredBytes += int64(n)
	}
	if h.Seq > rf.highest {
		rf.highest = h.Seq
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
	if dup || len(rf.Ranges) > 0 || rf.Cum <= restartCumFloor || rf.unacked >= ackEvery || h.Push {
		rf.emitAck(sh, f)
		return
	}
	// Defer: the next in-order packet (or the timer) flushes the ack.
	// A live timer is left alone — one entry per flow, not per packet.
	if !f.armed {
		sh.wh.arm(f, now+delayedAckTO)
	}
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
	buf := sh.txBuf()
	var pkt []byte
	if f.id != 0 {
		ack.Flow = f.id
		pkt = ack.EncodeV2(buf)
	} else {
		ack.Flow = 0
		pkt = ack.Encode(buf)
	}
	sh.queueTx(pkt, f.addr)
}
