// Package transport implements the end-to-end sender machinery every
// congestion controller in this repository plugs into: rate pacing and
// window gating, per-packet acknowledgments carrying RTT and one-way
// delay, duplicate-ACK and RTO loss detection, RFC 6298 RTT estimation,
// finite transfers with implicit retransmission accounting, and
// pause/resume for application-limited flows (video).
//
// This is the single codebase the paper's "flexibility" goal calls for:
// primary protocols, scavengers, and hybrids are all Controller
// implementations behind one interface, and PCC-style controllers can
// even swap utility functions on a live connection.
//
// Loss recovery and outage survival live once, in Recovery: Sender
// (here, on the simulator), the engine's sender flow and the fetch core
// are drivers of that one book.
package transport

import (
	"math"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/trace"
)

// SentPacket is the sender-side description of one transmitted packet.
// The controller's OnSend hook may set MI to tag the packet with a
// monitor interval (PCC-style controllers do; others leave it zero).
type SentPacket struct {
	Seq    int64
	Size   int
	SentAt float64
	MI     int64
}

// Ack describes one acknowledgment delivered to the controller.
type Ack struct {
	Seq      int64
	Bytes    int
	SentAt   float64
	RecvAt   float64 // arrival time at the receiver (OWD = RecvAt-SentAt)
	Now      float64 // ACK arrival time at the sender
	RTT      float64
	OWD      float64 // one-way delay, for LEDBAT-style controllers
	MI       int64
	Inflight int // bytes in flight after this ack
}

// Loss describes one packet declared lost.
type Loss struct {
	Seq      int64
	Bytes    int
	SentAt   float64
	Now      float64
	MI       int64
	Inflight int
}

// Controller is a congestion-control algorithm. The sender enforces
// both constraints it reports: packets are paced at PacingRate and never
// leave more than CWnd bytes in flight.
//
// Convention: a window-based protocol (CUBIC, LEDBAT) returns
// PacingRate() == 0, meaning "pace me at 1.25·cwnd/srtt" — close to how
// Linux paces TCP — while a rate-based protocol (PCC family, BBR)
// returns its explicit rate. A purely rate-based protocol returns
// math.Inf(1) from CWnd.
type Controller interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// OnSend is invoked for every transmitted packet, before it enters
	// the network. The controller may tag pkt.MI.
	OnSend(now float64, pkt *SentPacket)
	// OnAck is invoked for every acknowledgment.
	OnAck(ack Ack)
	// OnLoss is invoked for every packet declared lost (dup-ACK or RTO).
	OnLoss(loss Loss)
	// PacingRate returns the target sending rate in bytes/sec, or 0 to
	// request default cwnd-based pacing.
	PacingRate() float64
	// CWnd returns the congestion window in bytes.
	CWnd() float64
}

// PauseAware is implemented by controllers that must know when the
// application stops requesting data (e.g. a full video playback buffer),
// so they can discard measurement intervals that span idle periods.
type PauseAware interface {
	OnAppPause(now float64)
	OnAppResume(now float64)
}

// OutageAware is implemented by controllers that want the sender's
// stall watchdog to freeze and restore them across a path outage.
// OnOutage must discard open measurement state and stop adapting (no
// acks will arrive); OnRecovery is called at the first ack after the
// outage with the last pacing rate that was actually delivering before
// it (bytes/sec, 0 when unknown), so the controller can re-probe from
// the pre-outage operating point instead of from wherever the loss
// flood drove it. Controllers that implement only PauseAware get
// OnAppPause/OnAppResume as a degraded fallback.
type OutageAware interface {
	OnOutage(now float64)
	OnRecovery(now float64, resumeRate float64)
}

// TraceAware is implemented by controllers that emit their own
// flight-recorder events (MI decisions, rate changes, mode switches).
// The sender hands each such controller its flow's tracer at Start.
type TraceAware interface {
	SetTracer(t trace.Tracer)
}

// Timer is a cancelable scheduled callback, as returned by Clock.At.
type Timer interface{ Stop() bool }

// Clock is the time base and timer service a Sender runs on. It exists
// so the sender's clock is an injected dependency rather than an
// implication of the simulator: the discrete-event engine provides the
// default (SimClock), tests substitute hand-driven fakes, and the wire
// datapath reuses the same controller-facing conventions (seconds as
// float64, absolute-time scheduling) against the host's real clock.
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
	// At schedules fn at absolute time t and returns a cancel handle.
	At(t float64, fn func()) Timer
}

// simClock adapts *sim.Sim to Clock.
type simClock struct{ s *sim.Sim }

func (c simClock) Now() float64                  { return c.s.Now() }
func (c simClock) At(t float64, fn func()) Timer { return c.s.At(t, fn) }
func (c simClock) Schedule(t float64, fn func()) { c.s.Schedule(t, fn) }

// scheduler is the optional part of a Clock: Schedule(t, fn) is At(t,
// fn) for a caller that will never cancel, so no handle is allocated.
type scheduler interface{ Schedule(t float64, fn func()) }

// SimClock returns the Clock backed by a discrete-event simulator —
// the default time base for senders on an emulated path.
func SimClock(s *sim.Sim) Clock { return simClock{s} }

// RTTEstimator maintains RFC 6298 smoothed RTT state plus the lifetime
// minimum.
type RTTEstimator struct {
	srtt   float64
	rttvar float64
	minRTT float64
	init   bool
}

// Update incorporates an RTT sample.
func (e *RTTEstimator) Update(rtt float64) {
	if !e.init {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.minRTT = rtt
		e.init = true
		return
	}
	if rtt < e.minRTT {
		e.minRTT = rtt
	}
	d := math.Abs(e.srtt - rtt)
	e.rttvar = 0.75*e.rttvar + 0.25*d
	e.srtt = 0.875*e.srtt + 0.125*rtt
}

// SRTT returns the smoothed RTT (0 before any sample).
func (e *RTTEstimator) SRTT() float64 { return e.srtt }

// MinRTT returns the lifetime minimum RTT (0 before any sample).
func (e *RTTEstimator) MinRTT() float64 { return e.minRTT }

// RTTVar returns the smoothed mean deviation of the RTT — the basis of
// the RTO and of the RACK reordering window. Exported so other
// datapaths (the wire sender) reuse this estimator verbatim.
func (e *RTTEstimator) RTTVar() float64 { return e.rttvar }

// RTO returns the retransmission timeout, floored at 200 ms.
func (e *RTTEstimator) RTO() float64 {
	if !e.init {
		return 1.0
	}
	rto := e.srtt + 4*e.rttvar
	if rto < 0.2 {
		rto = 0.2
	}
	return rto
}

// Valid reports whether any sample has been observed.
func (e *RTTEstimator) Valid() bool { return e.init }

const (
	// DefaultBurst is the per-pacing-event packet train length used when
	// Sender.Burst is zero. Four packets approximates Linux's default
	// GSO/pacing behavior at these rates.
	DefaultBurst = 4

	// probeBytes is the size of a simulated keep-alive probe: header
	// only, as on the wire (wire.DataHeaderLenV2).
	probeBytes = 30
)

// Sender drives one flow. Create with NewSender, then Start.
type Sender struct {
	ID   int
	Path *netem.Path
	CC   Controller

	// Clock is the sender's time base. Leave nil for the default:
	// SimClock over the path's simulator. Set before Start.
	Clock Clock

	// Limit, when positive, bounds the transfer: the flow completes once
	// Limit bytes are acknowledged. Lost bytes are re-credited so the
	// flow keeps transmitting replacements, modeling retransmission.
	Limit int64
	// OnComplete fires once when a finite transfer finishes.
	OnComplete func(now float64)
	// OnDeliver fires at the receiver for every arriving packet, at the
	// packet's arrival time — the hook applications (video, web) consume.
	OnDeliver func(now float64, bytes int)
	// RecordRTT enables retention of every RTT sample for percentile
	// analysis.
	RecordRTT bool
	// Burst is the number of packets released back-to-back per pacing
	// event, modeling segmentation offload and interrupt coalescing in
	// real sender stacks (Linux pacing emits multi-packet trains). The
	// pacing gap after a burst covers the whole burst, so the average
	// rate is unchanged. Zero means DefaultBurst.
	Burst int
	// NoPacing disables rate pacing for window-based controllers: the
	// sender transmits whenever the window allows, at line rate — the
	// classic non-paced TCP behavior whose window-sized bursts are a
	// major source of transient queueing.
	NoPacing bool
	// Survival enables the book's outage machinery — exponential RTO
	// backoff and the stall watchdog with keep-alive probing — which the
	// real datapaths always run. It is opt-in here so fault-free
	// experiments replay bit-identically to earlier versions; chaos
	// scenarios and the adversary harness switch it on.
	Survival bool

	book     Recovery // records, RTT, loss declaration, survival
	launched int64    // bytes released minus re-credited losses
	acked    int64
	lostB    int64
	recvd    int64

	tr         trace.Tracer
	nextSend   float64
	timerSet   bool
	blocked    bool
	paused     bool
	done       bool
	started    bool
	rtoTimer   Timer
	probeTimer Timer
	pace       scheduler // the clock's handle-free At, or nil
	rttSamples []float64
	startTime  float64

	// Method values, bound once at Start so the per-packet path does
	// not allocate one per use.
	emitFn, onRTOFn func()
	deliverFn       func(p *netem.Packet, arrival float64)
	handleAckFn     func(p *netem.Packet, recvAt float64)
}

// clk returns the sender's clock, defaulting to the path's simulator.
func (s *Sender) clk() Clock {
	if s.Clock == nil {
		s.Clock = simClock{s.Path.Link.Sim}
	}
	return s.Clock
}

// NewSender wires a flow onto a path with the given controller.
func NewSender(id int, path *netem.Path, cc Controller) *Sender {
	return &Sender{ID: id, Path: path, CC: cc}
}

// Start begins transmission at the current simulation time.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.startTime = s.clk().Now()
	s.pace, _ = s.Clock.(scheduler)
	s.emitFn, s.onRTOFn, s.deliverFn, s.handleAckFn = s.emit, s.onRTO, s.deliver, s.handleAck
	s.book.Init(s.CC, s.onLost)
	s.book.Touch(s.startTime)
	s.tr = s.Path.Link.Sim.FlowTracer(s.ID)
	if ta, ok := s.CC.(TraceAware); ok {
		ta.SetTracer(s.tr)
	}
	s.armRTO()
	s.trySend()
}

// Stop halts the flow permanently.
func (s *Sender) Stop() {
	s.done = true
	if s.rtoTimer != nil {
		s.rtoTimer.Stop()
	}
	if s.probeTimer != nil {
		s.probeTimer.Stop()
		s.probeTimer = nil
	}
}

// Pause suspends transmission (application-limited). In-flight packets
// still drain and ack. Pausing a completed finite transfer is valid and
// keeps a subsequent Extend from transmitting until Resume.
func (s *Sender) Pause() {
	if s.paused {
		return
	}
	s.paused = true
	if pa, ok := s.CC.(PauseAware); ok {
		pa.OnAppPause(s.clk().Now())
	}
}

// Resume restarts a paused flow.
func (s *Sender) Resume() {
	if !s.paused {
		return
	}
	s.paused = false
	if pa, ok := s.CC.(PauseAware); ok {
		pa.OnAppResume(s.clk().Now())
	}
	now := s.clk().Now()
	if s.nextSend < now {
		s.nextSend = now
	}
	s.trySend()
}

// Extend adds more bytes to a finite transfer (e.g. the next video
// chunk) and resumes if needed. A completed flow is revived.
func (s *Sender) Extend(bytes int64) {
	s.Limit += bytes
	if s.done && s.started {
		s.done = false
		s.armRTO()
	}
	now := s.clk().Now()
	if s.nextSend < now {
		s.nextSend = now
	}
	if s.started {
		s.trySend()
	}
}

// AckedBytes returns cumulative acknowledged bytes.
func (s *Sender) AckedBytes() int64 { return s.acked }

// ReceivedBytes returns cumulative bytes that arrived at the receiver.
func (s *Sender) ReceivedBytes() int64 { return s.recvd }

// LostBytes returns cumulative bytes declared lost.
func (s *Sender) LostBytes() int64 { return s.lostB }

// InflightBytes returns bytes currently in flight.
func (s *Sender) InflightBytes() int { return s.book.Inflight() }

// RTTSamples returns the retained RTT samples (RecordRTT must be set).
func (s *Sender) RTTSamples() []float64 { return s.rttSamples }

// SRTT exposes the smoothed RTT for diagnostics.
func (s *Sender) SRTT() float64 { return s.book.RTT.SRTT() }

// MinRTT exposes the observed minimum RTT.
func (s *Sender) MinRTT() float64 { return s.book.RTT.MinRTT() }

// Done reports whether a finite transfer has completed.
func (s *Sender) Done() bool { return s.done }

// WatchdogTrips returns how many times the stall watchdog declared an
// outage.
func (s *Sender) WatchdogTrips() int64 { return s.book.Trips() }

// WatchdogRecoveries returns how many declared outages ended with a
// recovery ack.
func (s *Sender) WatchdogRecoveries() int64 { return s.book.Recoveries() }

// InOutage reports whether the stall watchdog currently has the flow
// in outage mode.
func (s *Sender) InOutage() bool { return s.book.InOutage() }

// OutstandingPackets returns the number of sender-side packet records
// currently retained — the state that must stay bounded during an
// outage.
func (s *Sender) OutstandingPackets() int { return s.book.Len() }

func (s *Sender) pacingRate() float64 {
	if s.NoPacing && s.CC.PacingRate() <= 0 {
		return math.Inf(1)
	}
	return s.book.PacingRate()
}

func (s *Sender) sendAllowed() bool {
	if s.done || s.paused || !s.started || s.book.InOutage() {
		return false
	}
	if s.Limit > 0 && s.launched >= s.Limit {
		return false
	}
	return true
}

func (s *Sender) trySend() {
	if s.timerSet || !s.sendAllowed() {
		return
	}
	if float64(s.book.Inflight()+netem.MTU) > s.CC.CWnd() {
		s.blocked = true
		return
	}
	clk := s.clk()
	now := clk.Now()
	at := s.nextSend
	if at < now {
		at = now
	}
	s.timerSet = true
	if s.pace != nil {
		s.pace.Schedule(at, s.emitFn) // the pacing timer is never stopped
	} else {
		clk.At(at, s.emitFn)
	}
}

func (s *Sender) emit() {
	s.timerSet = false
	if !s.sendAllowed() {
		return
	}
	now := s.clk().Now()
	burst := s.Burst
	if burst <= 0 {
		burst = DefaultBurst
	}
	if burst > 1 {
		// Randomize the train length (mean ≈ burst) so aggregate arrivals
		// at the bottleneck are stochastic. This is what gives a nearly
		// saturated queue its realistic variance (the M/D/1 blow-up as
		// utilization approaches 1) — the early competition signal §4.2
		// builds on. A fixed train length would produce an artificially
		// periodic, low-variance pattern. Randomness stays with the
		// simulation's seeded source even when the clock is injected.
		burst = 1 + s.Path.Link.Sim.Rand().Intn(2*burst-1)
	}
	sent := 0
	for i := 0; i < burst; i++ {
		if !s.sendAllowed() {
			break
		}
		if float64(s.book.Inflight()+netem.MTU) > s.CC.CWnd() {
			s.blocked = true
			break
		}
		size := netem.MTU
		if s.Limit > 0 {
			if rem := s.Limit - s.launched; rem < int64(size) {
				size = int(rem)
			}
		}
		pkt := s.book.Add(now, size, now, now)
		s.CC.OnSend(now, &pkt.SentPacket)
		s.launched += int64(size)
		sent += size

		// A tail drop at the queue is discovered through dup-ACKs or
		// RTO like any other loss.
		s.Path.Send(s.newPacket(netem.Packet{FlowID: s.ID, Seq: pkt.Seq, Size: size, SentAt: now, MI: pkt.MI}), s.deliverFn)
	}
	if sent == 0 {
		return
	}
	if s.rtoTimer == nil {
		s.armRTO()
	}
	rate := s.pacingRate()
	if math.IsInf(rate, 1) {
		s.nextSend = now
	} else {
		s.nextSend = now + float64(sent)/rate
	}
	s.trySend()
}

// deliver runs at the receiver when a data packet arrives.
func (s *Sender) deliver(p *netem.Packet, arrival float64) {
	s.recvd += int64(p.Size)
	if s.OnDeliver != nil {
		s.OnDeliver(arrival, p.Size)
	}
	// A receiver clock jump shifts the arrival stamps the sender's
	// controller sees (OWD, ack-interval clocking) without touching
	// sender-side RTT measurement — exactly the wire behavior.
	recvStamp := arrival + s.Path.StampOffset
	s.Path.SendAck(arrival, s.handleAckFn, p, recvStamp)
}

// newPacket takes a packet from the pool of the path's first link.
func (s *Sender) newPacket(v netem.Packet) *netem.Packet {
	p := s.Path.Link.NewPacket()
	*p = v
	return p
}

func (s *Sender) handleAck(p *netem.Packet, recvAt float64) {
	// The ack is the last reference to p: the link hands a receiver each
	// packet once and the reverse path carries it here or drops it.
	seq := p.Seq
	s.Path.Link.Release(p)
	if s.done && s.Limit > 0 {
		return
	}
	now := s.clk().Now()
	// Any delivered ack proves the path is alive.
	if s.book.Alive(now) {
		s.tr.Fault(now, "watchdog-recover", 0, now-s.book.OutageAt())
		if s.probeTimer != nil {
			s.probeTimer.Stop()
			s.probeTimer = nil
		}
		s.kick(now)
	}
	sp := s.book.Find(seq)
	if sp == nil {
		return // already declared lost, or stale after completion
	}
	s.book.Ack(sp)
	if sp.Probe {
		// Keep-alive probes prove liveness and nothing else: no RTT
		// sample, no controller callback, no transfer accounting.
		s.book.Detect(now)
		s.armRTO()
		return
	}
	rtt := now - sp.SentAt
	s.book.RTT.Update(rtt)
	s.acked += int64(sp.Size)
	s.tr.RTTSample(now, seq, rtt, s.book.RTT.SRTT(), s.acked, s.book.Inflight())
	if s.RecordRTT {
		s.rttSamples = append(s.rttSamples, rtt)
	}
	s.CC.OnAck(Ack{
		Seq: seq, Bytes: sp.Size, SentAt: sp.SentAt, RecvAt: recvAt,
		Now: now, RTT: rtt, OWD: recvAt - sp.SentAt, MI: sp.MI,
		Inflight: s.book.Inflight(),
	})
	s.book.Detect(now)
	s.armRTO()
	if s.Limit > 0 && s.acked >= s.Limit && !s.done {
		s.done = true
		if s.rtoTimer != nil {
			s.rtoTimer.Stop()
		}
		if s.OnComplete != nil {
			s.OnComplete(now)
		}
		return
	}
	if s.blocked || !s.timerSet {
		s.kick(now)
	}
}

// kick restarts emission after an ack, an expiry or a recovery may have
// opened the window.
func (s *Sender) kick(now float64) {
	s.blocked = false
	if s.nextSend < now {
		s.nextSend = now
	}
	s.trySend()
}

// onLost is the sender's per-loss accounting, run by the book before
// the controller hears OnLoss.
func (s *Sender) onLost(sp *Record, now float64) {
	s.lostB += int64(sp.Size)
	s.tr.PacketDrop(now, sp.Seq, sp.Size, s.Path.Link.QueueBytes(), "declared")
	if s.Limit > 0 {
		// Re-credit the bytes so replacements are transmitted.
		s.launched -= int64(sp.Size)
	}
}

func (s *Sender) armRTO() {
	deadline, ok := s.book.Deadline()
	if s.done || !ok {
		if s.rtoTimer != nil {
			s.rtoTimer.Stop()
			s.rtoTimer = nil
		}
		return
	}
	clk := s.clk()
	if deadline < clk.Now() {
		deadline = clk.Now()
	}
	// Every ack moves the deadline. A timer that can be moved in place
	// (the simulator's) keeps its handle; any other is replaced.
	if s.rtoTimer != nil {
		if r, ok := s.rtoTimer.(resettable); ok && r.Reset(deadline) {
			return
		}
		s.rtoTimer.Stop()
	}
	s.rtoTimer = clk.At(deadline, s.onRTOFn)
}

// resettable is the optional part of a Timer: Reset(t) on a pending
// timer is Stop followed by Clock.At(t, the same callback).
type resettable interface{ Reset(t float64) bool }

// sendProbe emits one keep-alive packet during an outage, bypassing
// the (frozen) controller entirely, and reschedules itself on the
// book's cadence. The first probe the healed path delivers produces
// the recovery ack.
func (s *Sender) sendProbe() {
	s.probeTimer = nil
	now := s.clk().Now()
	if s.done || !s.book.ProbeDue(now) {
		return
	}
	pkt := s.book.AddProbe(now, probeBytes)
	s.Path.Send(s.newPacket(netem.Packet{FlowID: s.ID, Seq: pkt.Seq, Size: pkt.Size, SentAt: now}), s.deliverFn)
	if s.rtoTimer == nil {
		s.armRTO()
	}
	s.probeTimer = s.clk().At(now+probeInterval, s.sendProbe)
}

func (s *Sender) onRTO() {
	s.rtoTimer = nil
	if s.done {
		return
	}
	now := s.clk().Now()
	if s.paused {
		s.book.Touch(now) // silence is self-inflicted
	}
	// Survival decides whether the watchdog and the backoff run at all;
	// without it the sweep fires at the base RTO, as it always has.
	if s.Survival && s.book.Watchdog(now) {
		s.tr.Fault(now, "watchdog-trip", 1, s.book.Silence(now))
		s.sendProbe()
	}
	if s.book.Expire(now) && s.Survival {
		s.book.BackOff(now)
	}
	s.armRTO()
	if s.blocked || !s.timerSet {
		s.kick(now)
	}
}
