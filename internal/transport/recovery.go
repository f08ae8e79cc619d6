package transport

import "math"

// Loss-recovery and survival constants: one definition for the
// simulated sender, the engine flow and the fetch core.
const (
	dupAckThreshold = 3

	// maxRecords bounds the book when acks never come: at the cap the
	// oldest live record is force-retired as lost. The ring starts at
	// minRing and doubles up to it.
	maxRecords = 1 << 16
	minRing    = 16

	// maxRTOBackoff caps the exponential RTO backoff exponent: the
	// effective RTO is base·2^backoff, clamped to maxRTO. Without
	// backoff, every expiry re-fires at the base RTO and floods the
	// controller with duplicate loss signals for packets sent into an
	// outage.
	maxRTOBackoff = 4
	// maxRTO is the ceiling of the backed-off retransmission timeout
	// (unless the base estimate already exceeds it).
	maxRTO = 3.0
	// watchdogFloor is the minimum ack silence (with data outstanding)
	// before the stall watchdog declares an outage; the actual
	// threshold is max(2·RTO, watchdogFloor).
	watchdogFloor = 0.5
	// probeInterval is the keep-alive send period during a declared
	// outage: cheap enough to be negligible, frequent enough to detect
	// path healing within a fraction of a second.
	probeInterval = 0.25
)

// Record is the book's entry for one outstanding packet (or, in the
// fetch core, one outstanding request). The embedded SentPacket is what
// the controller's OnSend sees; SentAt is the measurement timebase.
type Record struct {
	SentPacket
	// AgedFrom is what loss and RTO aging count from. The caller
	// supplies it: the simulator emits at the stamp, so it passes
	// SentAt; the real datapaths stamp packets on a schedule that can
	// lead the clock (DESIGN §7) and pass max(emission, stamp), because
	// RTT — and so the RTO — is measured from the stamp, and aging a
	// leading packet from its emission would declare a standing queue
	// lost just before its acks arrive.
	AgedFrom float64
	// Tag belongs to the caller; the book never reads it.
	Tag int64
	// Probe marks an outage keep-alive: outside inflight, never shown
	// to the controller or to the caller's loss hook.
	Probe bool

	acked, lost bool
}

// Live reports whether the record is still awaiting its ack.
func (r *Record) Live() bool { return !r.acked && !r.lost }

// Recovery is the sans-IO loss-recovery and survival book every sender
// in this repository drives: the outstanding records, the RTT
// estimator, the RACK loss rule, the RTO sweep with silence-gated
// exponential backoff, and the stall watchdog that freezes the
// controller across a path outage and restores it at the first ack. It
// owns no clock, timer or socket and never asks who is calling: what
// differs between drivers reaches it as data (AgedFrom, Tag, the probe
// size) or as the calls the driver chooses to make. Single-threaded by
// contract. Call Init before use.
//
// Sequence numbers are consecutive, so records are values in a
// power-of-two ring indexed by sequence. A *Record the book hands out
// (Add, AddProbe, Find, the loss hook's argument) is valid until the
// next Add or AddProbe, which may grow the ring or, at the cap, reuse
// the slot; the loss hook and the controller's OnLoss must not book.
type Recovery struct {
	RTT RTTEstimator

	cc     Controller
	onLost func(r *Record, now float64)

	ring     []Record // power-of-two length; sequence q lives at ring[q&(len-1)]
	lo       int64    // [lo, nextSeq) is the book; its first record is live
	nextSeq  int64
	maxAcked int64 // highest acked seq: the RACK reference
	inflight int

	backoff      int
	lastAlive    float64 // the liveness clock: last ack, or explained silence
	lastGoodRate float64 // controller rate (B/s) at the last ack
	resumeRate   float64
	outage       bool
	outageAt     float64
	nextProbeAt  float64
	trips        int64
	recoveries   int64
}

// Init binds the book to its controller and to the driver's per-loss
// side effects (accounting, re-credit, retransmit queueing). onLost
// runs before the controller's OnLoss; pass a method value created
// once, so declaring a loss allocates nothing.
func (r *Recovery) Init(cc Controller, onLost func(rec *Record, now float64)) {
	r.cc, r.onLost, r.maxAcked = cc, onLost, -1
}

// Add books one packet emitted at now, assigning the next sequence
// number. The caller passes the returned record's SentPacket to the
// controller's OnSend.
func (r *Recovery) Add(now float64, size int, sentAt, agedFrom float64) *Record {
	rec := r.add(now, size, sentAt, agedFrom)
	r.inflight += size
	return rec
}

// AddProbe books one outage keep-alive. Probes take real sequence
// numbers, so the peer acks them like data, but stay outside inflight
// and are invisible to the controller.
func (r *Recovery) AddProbe(now float64, size int) *Record {
	rec := r.add(now, size, now, now)
	rec.Probe = true
	return rec
}

func (r *Recovery) add(now float64, size int, sentAt, agedFrom float64) *Record {
	if r.Len() >= maxRecords {
		r.markLost(r.at(r.lo), now)
		r.prune()
	}
	if r.Len() == len(r.ring) {
		r.grow()
	}
	rec := r.at(r.nextSeq)
	*rec = Record{SentPacket: SentPacket{Seq: r.nextSeq, Size: size, SentAt: sentAt}, AgedFrom: agedFrom}
	r.nextSeq++
	return rec
}

// at returns the slot of seq, which must be within [lo, nextSeq].
func (r *Recovery) at(seq int64) *Record { return &r.ring[seq&int64(len(r.ring)-1)] }

// grow doubles a full ring. A record's slot depends on the ring's size,
// so the book is re-placed by sequence, not copied.
func (r *Recovery) grow() {
	old := r.ring
	r.ring = make([]Record, max(2*len(old), minRing))
	for q := r.lo; q < r.nextSeq; q++ {
		*r.at(q) = old[q&int64(len(old)-1)]
	}
}

// Find returns the live record for seq, or nil when it was never
// booked, is already retired, or was declared lost.
func (r *Recovery) Find(seq int64) *Record {
	if seq < r.lo || seq >= r.nextSeq {
		return nil
	}
	if rec := r.at(seq); rec.Live() {
		return rec
	}
	return nil
}

// Lo and Next bound the book: every sequence in [Lo, Next) has a
// record, possibly retired (Find says). Acks that cover ranges walk it.
func (r *Recovery) Lo() int64   { return r.lo }
func (r *Recovery) Next() int64 { return r.nextSeq }

// Len returns the number of records held (probes included).
func (r *Recovery) Len() int { return int(r.nextSeq - r.lo) }

// Inflight returns the bytes booked and not yet acked or lost.
func (r *Recovery) Inflight() int { return r.inflight }

// Alive records proof of path liveness — any decoded ack: the RTO
// backoff resets and, if the watchdog had declared an outage, the
// controller is restored at the last rate that was delivering before
// it. It reports whether an outage just ended.
func (r *Recovery) Alive(now float64) (recovered bool) {
	r.lastAlive = now
	r.backoff = 0
	if !r.outage {
		return false
	}
	r.outage = false
	r.recoveries++
	switch cc := r.cc.(type) {
	case OutageAware:
		cc.OnRecovery(now, r.resumeRate)
	case PauseAware:
		cc.OnAppResume(now)
	}
	return true
}

// Touch restarts the liveness clock without claiming the path is
// alive. Drivers call it while silence is explained — the flow is
// paused, pushed back or draining, or has only just been admitted — so
// that silence never reads as an outage or backs the RTO off.
func (r *Recovery) Touch(now float64) { r.lastAlive = now }

// Silence returns how long the liveness clock has been running.
func (r *Recovery) Silence(now float64) float64 { return now - r.lastAlive }

// Ack retires a live record as delivered. RTT sampling and the
// controller's OnAck stay with the caller, whose ack shape decides
// them; call Detect once the arrival's records are all applied.
func (r *Recovery) Ack(rec *Record) {
	rec.acked = true
	if rec.Seq > r.maxAcked {
		r.maxAcked = rec.Seq
	}
	if !rec.Probe {
		r.inflight -= rec.Size
	}
}

// Detect closes one ack arrival: it remembers the controller's rate as
// the one recovery restores (acks stop the moment an outage starts, so
// the last ack-time rate is the pre-outage rate, not the collapsed one
// the controller decays to while blacked out), then applies the RACK
// rule (RFC 8985 in spirit): a record dupAckThreshold sequence numbers
// behind the highest ack is lost only once it is also older than
// srtt + reorder window. Pure sequence counting misfires on jittery
// paths, where packets of one burst routinely reorder by more than the
// threshold.
func (r *Recovery) Detect(now float64) {
	if rate := r.cc.PacingRate(); rate > 0 {
		r.lastGoodRate = rate
	}
	window := r.RTT.SRTT() + r.reorderWindow()
	for q := r.lo; q <= r.maxAcked-dupAckThreshold; q++ {
		if rec := r.at(q); rec.Live() && now-rec.AgedFrom > window {
			r.markLost(rec, now)
		}
	}
	r.prune()
}

// reorderWindow is the extra delay tolerated for out-of-order delivery
// before a sequence gap is treated as loss.
func (r *Recovery) reorderWindow() float64 {
	return math.Max(4*r.RTT.RTTVar(), 0.004)
}

// Expire is the RTO sweep — the backstop when acks stop entirely: every
// record older than the backed-off RTO is declared lost. It reports
// whether any was. A driver with an exact timer calls it at Deadline;
// a polling driver calls it on its cadence.
func (r *Recovery) Expire(now float64) (declared bool) {
	// The slack absorbs the rounding of a timer armed at exactly
	// AgedFrom + RTO.
	rto := r.effRTO() - 1e-12
	for q := r.lo; q < r.nextSeq; q++ {
		rec := r.at(q)
		if !rec.Live() {
			continue
		}
		if now-rec.AgedFrom < rto {
			break // booked in emission order: the rest are younger
		}
		r.markLost(rec, now)
		declared = true
	}
	r.prune()
	return declared
}

// Deadline returns when the oldest live record reaches the backed-off
// RTO; ok is false when nothing is outstanding.
func (r *Recovery) Deadline() (at float64, ok bool) {
	if r.Len() == 0 {
		return 0, false
	}
	return r.at(r.lo).AgedFrom + r.effRTO(), true
}

// BackOff doubles the RTO after an Expire that declared losses — but
// only when the expiry fell in true ack silence (nothing heard for a
// full RTO). Straggler declarations while acks still flow are ordinary
// congestion; backing off there would delay the loss signal the
// controllers depend on. Any ack resets the ladder (Alive).
func (r *Recovery) BackOff(now float64) {
	if r.Silence(now) >= r.effRTO() && r.backoff < maxRTOBackoff {
		r.backoff++
	}
}

// effRTO is the RFC 6298 timeout doubled per backoff step, capped at
// maxRTO or at the base when the base is already larger.
func (r *Recovery) effRTO() float64 {
	base := r.RTT.RTO()
	rto := base * float64(int64(1)<<uint(r.backoff))
	if rto > maxRTO {
		return math.Max(maxRTO, base)
	}
	return rto
}

// watchdogTimeout is the ack silence (with data outstanding) that
// declares an outage.
func (r *Recovery) watchdogTimeout() float64 {
	return math.Max(2*r.RTT.RTO(), watchdogFloor)
}

// Watchdog declares an outage after prolonged silence with records
// outstanding — an outage, not a loss rate: the controller is frozen
// (OutageAware, or the app-pause path as a fallback) so its gradient
// machinery does not rate-collapse on a flood of timeout losses, the
// pre-outage rate is remembered, and probing begins at once. Call it
// before Expire, so the freeze precedes the sweep's loss flood. It
// reports whether it tripped.
func (r *Recovery) Watchdog(now float64) (tripped bool) {
	if r.outage || r.Len() == 0 || r.Silence(now) < r.watchdogTimeout() {
		return false
	}
	r.outage = true
	r.outageAt = now
	r.trips++
	r.resumeRate = r.lastGoodRate
	r.nextProbeAt = now
	switch cc := r.cc.(type) {
	case OutageAware:
		cc.OnOutage(now)
	case PauseAware:
		cc.OnAppPause(now)
	}
	return true
}

// ProbeDue reports whether a keep-alive is due and, if so, starts the
// next probeInterval; the driver then sends one and books it with
// AddProbe. The first probe is due at the trip itself.
func (r *Recovery) ProbeDue(now float64) bool {
	if !r.outage || now < r.nextProbeAt {
		return false
	}
	r.nextProbeAt = now + probeInterval
	return true
}

// InOutage reports whether the watchdog currently has the flow frozen.
func (r *Recovery) InOutage() bool { return r.outage }

// OutageAt returns when the latest outage was declared.
func (r *Recovery) OutageAt() float64 { return r.outageAt }

// Trips returns how many outages the watchdog has declared.
func (r *Recovery) Trips() int64 { return r.trips }

// Recoveries returns how many declared outages ended with an ack.
func (r *Recovery) Recoveries() int64 { return r.recoveries }

// PacingRate is the datapath's pacing convention: an explicit
// controller rate wins; a window-based controller is paced at
// 1.25·cwnd/srtt once an RTT estimate exists — close to how Linux
// paces TCP — and unpaced before that (the initial window leaves as a
// burst; ack clocking takes over within one RTT).
func (r *Recovery) PacingRate() float64 {
	if rate := r.cc.PacingRate(); rate > 0 {
		return rate
	}
	if !r.RTT.Valid() {
		return math.Inf(1)
	}
	cwnd := r.cc.CWnd()
	if math.IsInf(cwnd, 1) {
		return math.Inf(1)
	}
	return 1.25 * cwnd / r.RTT.SRTT()
}

func (r *Recovery) markLost(rec *Record, now float64) {
	rec.lost = true
	if rec.Probe {
		return // probes lost into an outage are expected
	}
	r.inflight -= rec.Size
	r.onLost(rec, now)
	r.cc.OnLoss(Loss{
		Seq: rec.Seq, Bytes: rec.Size, SentAt: rec.SentAt, Now: now,
		MI: rec.MI, Inflight: r.inflight,
	})
}

// prune steps past retired records at the front, so the first record
// of the book is always live.
func (r *Recovery) prune() {
	for r.lo < r.nextSeq && !r.at(r.lo).Live() {
		r.lo++
	}
}
