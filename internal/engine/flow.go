package engine

import (
	"math"
	"net/netip"
	"sync"
	"sync/atomic"

	"pccproteus/internal/overload"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// flowKey identifies one flow on a shard: peer address plus the wire
// flow ID. Engine-originated flows always carry nonzero IDs (the
// engine allocator starts at 1), so ID 0 marks version-1 traffic,
// which is keyed by source address alone.
type flowKey struct {
	addr netip.AddrPort
	id   uint32
}

// flow is one event-loop citizen: the wheel bookkeeping shared by
// both roles plus exactly one of the two role states. Owned by a
// single shard goroutine; the only cross-goroutine reads are the
// atomic counters inside senderFlow/recvFlow.
type flow struct {
	key flowKey

	// Pacing-wheel intrusive state (see wheel.go): gen lazily cancels
	// superseded entries, armed marks a live one.
	gen      uint64
	deadline float64
	armed    bool

	lastSeen float64 // shard-clock seconds of the last packet either way

	snd *senderFlow // exactly one of snd/rcv is non-nil
	rcv *recvFlow
}

// Sender datapath constants.
const (
	dupAckThreshold = 3 // matches the simulated transport
	// rtoCheckEvery throttles the timeout scan (and the watchdog check
	// that rides on it) on the pump path.
	rtoCheckEvery = 0.010
	// maxRTOBackoff caps the exponential RTO backoff exponent: across
	// consecutive ack-less expiries the effective RTO doubles up to
	// 2^maxRTOBackoff times, so a dead path costs geometrically fewer
	// spurious loss declarations instead of one per scan forever.
	// maxRTOCap bounds the backed-off RTO in seconds (unless the base
	// estimate already exceeds it).
	maxRTOBackoff = 4
	maxRTOCap     = 3.0
	// watchdogFloor is the minimum ack silence (seconds) before the
	// stall watchdog may trip; 2·RTO applies when that is larger.
	watchdogFloor = 0.5
	// probeEvery is the keep-alive probe cadence (seconds) during an
	// outage: header-only packets that bypass the controller and whose
	// first ack proves the path has healed.
	probeEvery = 0.25
	// maxUnackedRecs bounds in-flight bookkeeping: the backstop
	// guaranteeing no state growth when acks never come.
	maxUnackedRecs = 1 << 16
	// schedSlack is how far past one bucket depth the pacing schedule
	// may trail the clock before an idle restart re-anchors it. Steady
	// sending keeps the schedule within a bucket depth, so only a
	// genuine stall re-anchors; rate changes never do.
	schedSlack = 0.25
	// ackPoll is the wake cadence while window- or limit-gated; minWake
	// is the shortest pacing sleep worth scheduling.
	ackPoll = 0.001
	minWake = 50e-6
)

// rec is the sender-side record of one in-flight packet, recycled
// through a per-flow freelist. sentAt is the scheduled (token-bucket)
// send time — the measurement timebase. agedFrom is what loss and RTO
// aging count from: the actual emission time, since aging must follow
// elapsed time — or sentAt when that is later. Stamps are committed a
// train ahead, so the schedule leads the clock by up to one train time
// at the flow's start-up rate (DESIGN §7); the shim releases a packet
// no earlier than its stamp and the RTO is built from RTTs measured
// from the stamp, so aging a leading packet from its emission would
// declare a whole standing queue lost just before its acks arrive.
type rec struct {
	seq      int64
	size     int
	sentAt   float64
	agedFrom float64
	mi       int64
	acked    bool
	lost     bool
	probe    bool // keep-alive probe: invisible to the controller
}

// senderFlow drives one congestion-controlled flow from shard events:
// pump() on timer fires, onAck() on ack arrival, with the same
// OnSend/OnAck/OnLoss semantics as the simulated transport. All
// methods run on the owning shard goroutine, so controllers — which
// are not thread-safe — only ever see single-threaded calls.
type senderFlow struct {
	cc         transport.Controller
	rtt        transport.RTTEstimator
	pacer      wire.Pacer
	unacked    []*rec
	freelist   []*rec
	sp         transport.SentPacket // reused OnSend scratch
	seq        int64
	inflight   int
	launched   int64
	limit      int64
	burst      int
	packetSize int
	maxSack    int64

	sched        float64
	schedAnchor  bool
	lastRTOCheck float64
	rtoBackoff   int
	lastAckAt    float64
	revBase      float64
	revCal       bool

	// Survival machinery: exponential RTO backoff plus a stall watchdog
	// that freezes the controller during a path outage, probes with
	// header-only keep-alives, and resumes from the last ack-time rate
	// once the path heals.
	lastGoodRate float64 // controller rate (B/s) at the last ack
	resumeRate   float64 // rate restored on recovery
	nextProbeAt  float64
	outage       atomic.Bool

	// Overload state. class fixes who yields under host pressure;
	// paused is set by the owning shard's Shed action (emission stops,
	// RTO aging continues); busyUntil/busyStreak implement the jittered
	// exponential backoff a peer's BUSY frames demand.
	class      overload.Class
	paused     bool
	busyUntil  float64
	busyStreak int

	// Cross-goroutine stats surface (Flow.Stats reads these).
	sentPkts   atomic.Int64
	sentBytes  atomic.Int64
	ackedPkts  atomic.Int64
	ackedBytes atomic.Int64
	lostPkts   atomic.Int64
	lostBytes  atomic.Int64
	srttNanos  atomic.Int64
	probes     atomic.Int64
	wdTrips    atomic.Int64
	wdRecovs   atomic.Int64
	unackedLen atomic.Int64 // len(unacked), refreshed on the RTO cadence

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

// pump advances the flow: RTO scan, stall watchdog, pacer accrual, and
// a burst of emissions while tokens, window, and limit allow. It
// returns the next wake deadline, or 0 when the flow has nothing left
// to do.
func (s *senderFlow) pump(sh *shard, f *flow, now float64) float64 {
	if now-s.lastRTOCheck >= rtoCheckEvery {
		s.lastRTOCheck = now
		s.checkRTO(now)
		// Stall watchdog: with data outstanding (prune leaves the head
		// record live, so non-empty unacked means outstanding) and no
		// ack for 2·RTO (floored), declare an outage.
		if !s.outage.Load() && len(s.unacked) > 0 && now-s.lastAckAt >= s.watchdogTimeout() {
			s.tripWatchdog(now)
		}
		s.unackedLen.Store(int64(len(s.unacked)))
	}
	if s.completed && len(s.unacked) == 0 {
		return 0 // fully acked finite transfer: nothing to schedule
	}
	if s.outage.Load() {
		// Data sending is frozen; only keep-alive probes go out, hunting
		// for the first ack that proves the path healed.
		if now >= s.nextProbeAt {
			s.nextProbeAt = now + probeEvery
			s.sendProbe(sh, f, now)
		}
		return now + rtoCheckEvery
	}
	// Pushed back, shed, or draining: no emission, but keep waking on
	// the RTO cadence so loss aging (and a busy expiry) still run. The
	// silence is explained, so the watchdog's clock does not run.
	if s.paused || now < s.busyUntil || sh.eng.draining.Load() {
		s.lastAckAt = now
		next := now + rtoCheckEvery
		if !s.paused && now < s.busyUntil && s.busyUntil < next {
			next = s.busyUntil
		}
		return next
	}
	rate := s.pacingRate()
	s.pacer.Advance(now, rate)
	gated := false
	// Trains are all-or-nothing: wait until the bucket covers a full
	// burst, then drain it. Each packet is stamped not with the clock
	// but with its *scheduled* send time, kept on a leaky-bucket
	// timeline that advances by exactly size/rate per packet, so the
	// timebase the receiver and the impairment shim measure against is
	// that of a perfectly paced sender no matter how wakes jitter —
	// which is what the controllers' gradient regression needs.
	if s.pacer.Delay(s.trainBytes(), rate) == 0 {
		finite := rate > 0 && rate <= wire.MaxFiniteRate
		if !finite || !s.schedAnchor || now-s.sched > s.pacer.Cap/rate+schedSlack {
			// Re-anchor after idle: no back-credit, so a post-idle
			// catch-up burst never carries stamps from the dead time.
			s.sched = now
			s.schedAnchor = true
		}
		for {
			if s.limitReached() {
				gated = true
				break
			}
			size := s.nextSize()
			if float64(s.inflight+size) > s.cc.CWnd() {
				gated = true
				break
			}
			if !s.pacer.Take(size) {
				break
			}
			virt := now
			if finite {
				virt = s.sched
				s.sched += float64(size) / rate
			}
			s.emit(sh, f, now, virt, size)
		}
	}
	if gated || s.limitReached() {
		return now + ackPoll // window/limit-blocked: wake on ack cadence
	}
	d := s.pacer.Delay(s.trainBytes(), rate)
	if d > ackPoll {
		d = ackPoll
	}
	if d < minWake {
		d = minWake
	}
	return now + d
}

// emit encodes and queues one version-2 data packet stamped with its
// scheduled send time.
func (s *senderFlow) emit(sh *shard, f *flow, now, virt float64, size int) {
	s.capUnacked(now)
	s.sp = transport.SentPacket{Seq: s.seq, Size: size, SentAt: virt}
	s.cc.OnSend(now, &s.sp)
	r := s.newRec()
	r.seq, r.size, r.sentAt, r.agedFrom, r.mi = s.seq, size, virt, max(now, virt), s.sp.MI
	r.acked, r.lost, r.probe = false, false, false
	s.seq++
	s.unacked = append(s.unacked, r)
	s.inflight += size
	s.launched += int64(size)
	s.sentPkts.Add(1)
	s.sentBytes.Add(int64(size))
	buf := sh.txBuf()
	pkt := wire.EncodeDataV2(buf, wire.DataHeader{
		Seq: r.seq, SentAt: sh.clock.NanosAt(virt), Flow: f.key.id,
	}, size)
	sh.queueTx(pkt, f.key.addr)
}

// sendProbe emits one header-only keep-alive packet during an outage.
// Probes carry real sequence numbers (so the receiver acks them like
// any data) but are invisible to the controller: no OnSend, no
// inflight, no byte accounting.
func (s *senderFlow) sendProbe(sh *shard, f *flow, now float64) {
	s.capUnacked(now)
	r := s.newRec()
	r.seq, r.size, r.sentAt, r.agedFrom, r.mi = s.seq, wire.DataHeaderLenV2, now, now, 0
	r.acked, r.lost, r.probe = false, false, true
	s.seq++
	s.unacked = append(s.unacked, r)
	s.probes.Add(1)
	pkt := wire.EncodeDataV2(sh.txBuf(), wire.DataHeader{
		Seq: r.seq, SentAt: sh.clock.NanosAt(now), Flow: f.key.id,
	}, wire.DataHeaderLenV2)
	sh.queueTx(pkt, f.key.addr)
}

func (s *senderFlow) watchdogTimeout() float64 {
	return math.Max(2*s.rtt.RTO(), watchdogFloor)
}

// tripWatchdog enters outage mode: data sending freezes, the
// controller's measurement state is parked (OutageAware when the
// controller supports it, the app-pause path otherwise), and probing
// begins on the next wake.
func (s *senderFlow) tripWatchdog(now float64) {
	s.outage.Store(true)
	s.wdTrips.Add(1)
	s.resumeRate = s.lastGoodRate
	s.nextProbeAt = now
	switch cc := s.cc.(type) {
	case transport.OutageAware:
		cc.OnOutage(now)
	case transport.PauseAware:
		cc.OnAppPause(now)
	}
}

// recoverFromOutage leaves outage mode at the first delivered ack and
// restores the pre-outage rate, so the controller re-enters probing
// from there rather than crawling up from a loss-collapsed rate.
func (s *senderFlow) recoverFromOutage(now float64) {
	s.outage.Store(false)
	s.wdRecovs.Add(1)
	switch cc := s.cc.(type) {
	case transport.OutageAware:
		cc.OnRecovery(now, s.resumeRate)
	case transport.PauseAware:
		cc.OnAppResume(now)
	}
	// Re-anchor pacing: the dead time must not turn into a catch-up
	// burst or stale schedule stamps.
	s.schedAnchor = false
	s.pacer.Reset(now)
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
	// No back-credit for the pause: re-anchor the pacing timeline when
	// emission resumes.
	s.schedAnchor = false
}

// onAck applies one decoded ack: retire covered packets with
// controller callbacks, run RACK-style loss detection, prune.
func (s *senderFlow) onAck(sh *shard, f *flow, a *wire.AckPacket, now float64) {
	// Any decoded ack is liveness: it resets the backoffs, and during an
	// outage it is proof the path healed.
	s.lastAckAt = now
	s.rtoBackoff = 0
	s.busyStreak = 0
	if s.outage.Load() {
		s.recoverFromOutage(now)
	}
	if a.Seq > s.maxSack {
		s.maxSack = a.Seq
	}
	if a.CumAck-1 > s.maxSack {
		s.maxSack = a.CumAck - 1
	}
	for _, bl := range a.Blocks {
		if bl.End-1 > s.maxSack {
			s.maxSack = bl.End - 1
		}
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
	// live record (dup data, already retired), skip the estimator
	// entirely, Karn-style.
	ackRTT := s.rtt.SRTT()
	lo, hi := 0, len(s.unacked)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.unacked[mid].seq < a.Seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.unacked) {
		if r := s.unacked[lo]; r.seq == a.Seq && !r.acked && !r.lost && !r.probe {
			ackRTT = (recvAt - r.sentAt) + s.revBase
			if ackRTT < 0 {
				ackRTT = 0
			}
			s.rtt.Update(ackRTT)
			s.srttNanos.Store(int64(s.rtt.SRTT() * 1e9))
			if s.recordRTT {
				s.rttMu.Lock()
				s.rttSamples = append(s.rttSamples, ackRTT)
				s.rttMu.Unlock()
			}
		}
	}
	for _, r := range s.unacked {
		if r.acked || r.lost {
			continue
		}
		if r.seq >= a.CumAck && !a.Covers(r.seq) {
			if r.seq > s.maxSack {
				break // sorted by seq: nothing further is covered
			}
			continue
		}
		s.ackRec(r, now, recvAt, ackRTT)
	}
	s.detectLosses(now)
	s.prune()
	// The last ack-time rate is what recovery restores: acks stop the
	// moment an outage starts, so this is the pre-outage rate, not the
	// loss-collapsed one the controller decays to while blacked out.
	if r := s.cc.PacingRate(); r > 0 {
		s.lastGoodRate = r
	}
	if s.limit > 0 && !s.completed && s.ackedBytes.Load() >= s.limit {
		s.completed = true
		close(s.done)
	}
}

func (s *senderFlow) ackRec(r *rec, now, recvAt, rtt float64) {
	r.acked = true
	if r.probe {
		return // liveness only: no bytes the controller should hear about
	}
	s.inflight -= r.size
	s.ackedPkts.Add(1)
	s.ackedBytes.Add(int64(r.size))
	s.cc.OnAck(transport.Ack{
		Seq: r.seq, Bytes: r.size, SentAt: r.sentAt, RecvAt: recvAt,
		Now: now, RTT: rtt, OWD: rtt - s.revBase, MI: r.mi,
		Inflight: s.inflight,
	})
}

// detectLosses is the RACK-style rule shared with the simulated
// transport: a packet dupAckThreshold behind the highest SACKed
// sequence is lost only once it is also older than srtt + reorder
// window, so path reordering does not manufacture losses.
func (s *senderFlow) detectLosses(now float64) {
	window := s.rtt.SRTT() + s.reorderWindow()
	for _, r := range s.unacked {
		if r.seq > s.maxSack-dupAckThreshold {
			break
		}
		if !r.acked && !r.lost && now-r.agedFrom > window {
			s.markLost(r, now)
		}
	}
}

func (s *senderFlow) reorderWindow() float64 {
	w := 4 * s.rtt.RTTVar()
	if w < 0.004 {
		w = 0.004
	}
	return w
}

// checkRTO declares every outstanding packet older than the
// backed-off RTO lost — the backstop when acks stop entirely.
func (s *senderFlow) checkRTO(now float64) {
	rto := s.effRTO()
	declared := false
	for _, r := range s.unacked {
		if r.acked || r.lost {
			continue
		}
		if now-r.agedFrom < rto {
			break // sorted by send time: the rest are younger
		}
		s.markLost(r, now)
		declared = true
	}
	// Back off only when the expiry happened in true ack silence:
	// straggler declarations while acks still flow are ordinary
	// congestion, not a dead path.
	if declared && now-s.lastAckAt >= rto && s.rtoBackoff < maxRTOBackoff {
		s.rtoBackoff++
	}
	s.prune()
}

func (s *senderFlow) effRTO() float64 {
	base := s.rtt.RTO()
	rto := base
	for i := 0; i < s.rtoBackoff; i++ {
		rto *= 2
	}
	if rto > maxRTOCap {
		rto = math.Max(maxRTOCap, base)
	}
	return rto
}

func (s *senderFlow) markLost(r *rec, now float64) {
	r.lost = true
	if r.probe {
		return // never in inflight, never reported to the controller
	}
	s.inflight -= r.size
	s.lostPkts.Add(1)
	s.lostBytes.Add(int64(r.size))
	if s.limit > 0 {
		s.launched -= int64(r.size) // re-credit so a replacement goes out
	}
	s.cc.OnLoss(transport.Loss{
		Seq: r.seq, Bytes: r.size, SentAt: r.sentAt, Now: now,
		MI: r.mi, Inflight: s.inflight,
	})
}

func (s *senderFlow) capUnacked(now float64) {
	if len(s.unacked) < maxUnackedRecs {
		return
	}
	if r := s.unacked[0]; !r.acked && !r.lost {
		s.markLost(r, now)
	}
	s.prune()
}

func (s *senderFlow) prune() {
	i := 0
	for i < len(s.unacked) && (s.unacked[i].acked || s.unacked[i].lost) {
		s.freelist = append(s.freelist, s.unacked[i])
		i++
	}
	if i > 0 {
		n := copy(s.unacked, s.unacked[i:])
		for j := n; j < len(s.unacked); j++ {
			s.unacked[j] = nil
		}
		s.unacked = s.unacked[:n]
	}
}

func (s *senderFlow) newRec() *rec {
	if n := len(s.freelist); n > 0 {
		r := s.freelist[n-1]
		s.freelist[n-1] = nil
		s.freelist = s.freelist[:n-1]
		return r
	}
	return &rec{}
}

func (s *senderFlow) pacingRate() float64 {
	if r := s.cc.PacingRate(); r > 0 {
		return r
	}
	if !s.rtt.Valid() {
		return math.Inf(1)
	}
	cwnd := s.cc.CWnd()
	if math.IsInf(cwnd, 1) {
		return math.Inf(1)
	}
	return 1.25 * cwnd / s.rtt.SRTT()
}

func (s *senderFlow) trainBytes() int {
	n := s.burst * s.packetSize
	if s.limit > 0 {
		if rem := s.limit - s.launched; rem < int64(n) {
			n = int(rem)
			if n < wire.DataHeaderLenV2 {
				n = wire.DataHeaderLenV2
			}
		}
	}
	return n
}

func (s *senderFlow) nextSize() int {
	size := s.packetSize
	if s.limit > 0 {
		if rem := s.limit - s.launched; rem < int64(size) {
			size = int(rem)
			if size < wire.DataHeaderLenV2 {
				size = wire.DataHeaderLenV2
			}
		}
	}
	return size
}

func (s *senderFlow) limitReached() bool {
	return s.limit > 0 && s.launched >= s.limit
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
// and the sender's first-ack RTT calibration see no added latency.
// A wheel-armed delayed ack bounds how long an odd tail packet
// (e.g. the last packet of a finite transfer) waits.
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
		sh.ctr.delivered.Add(1)
		sh.ctr.deliveredBytes.Add(int64(n))
	}
	if h.Seq > rf.highest {
		rf.highest = h.Seq
	}
	// Prefer a shim's emulated arrival stamp: RTTs then measure the
	// emulated path with host delivery jitter excluded. On a bare path
	// the local wall clock is the truth.
	recvAt := h.Arrival
	if recvAt == 0 {
		recvAt = sh.clock.WallNanos()
	}
	rf.pendSeq, rf.pendSentAt, rf.pendRecvAt = h.Seq, h.SentAt, recvAt
	rf.unacked++
	if dup || len(rf.Ranges) > 0 || rf.Cum <= restartCumFloor || rf.unacked >= ackEvery {
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
	if f.key.id != 0 {
		ack.Flow = f.key.id
		pkt = ack.EncodeV2(buf)
	} else {
		ack.Flow = 0
		pkt = ack.Encode(buf)
	}
	sh.queueTx(pkt, f.key.addr)
}
