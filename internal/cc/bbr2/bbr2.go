// Package bbr2 implements a BBRv2-style controller (Cardwell et al.,
// IETF drafts 2019–2021): the v1 model — windowed-max bottleneck
// bandwidth, windowed-min propagation delay, gain-cycled pacing — with
// v2's two structural changes. First, the fixed eight-phase gain cycle
// is replaced by the ProbeBW sub-state machine Down → Cruise → Refill
// → Up, which probes for bandwidth on a timer instead of every cycle
// and cruises with headroom between probes. Second, the controller
// keeps two explicit inflight bounds learned from loss. inflight_hi is
// the long-term ceiling: it is cut multiplicatively only when a probe
// proves too much — a lossy round while probing up (or during a lossy
// startup) — and is raised again by clean probing rounds. inflight_lo
// is the short-term reaction to loss outside a probe: each lossy
// cruise round cuts it, and it is released (reset to +Inf) at the next
// Refill, when the controller deliberately re-probes. Both bounds feed
// the congestion window: cwnd = min(gain·BDP, inflight_lo,
// inflight_hi), where inflight_hi keeps 15% headroom while cruising —
// so bbr2, unlike v1, responds to loss at a bounded rate instead of
// ignoring it.
package bbr2

import (
	"math"

	"pccproteus/internal/cc/bbr"
	"pccproteus/internal/netem"
	"pccproteus/internal/stats"
	"pccproteus/internal/trace"
	"pccproteus/internal/transport"
)

const (
	mss = float64(netem.MTU)

	startupGain   = 2.885 // 2/ln2, as v1
	drainGain     = 1 / 2.885
	cwndGain      = 2.0
	probeUpGain   = 1.25
	probeDownGain = 0.75

	// Loss response: a round whose lost/(lost+delivered) byte fraction
	// exceeds lossThresh is "lossy"; each lossy round cuts inflight_hi
	// by beta. A round must also lose at least minLossPkts packets to
	// count — on a tiny window a single stray (e.g. random-media) loss
	// is a huge fraction, and cutting on it wedges the bound at the
	// floor. headroom is the fraction of inflight_hi usable outside an
	// active probe.
	lossThresh  = 0.02
	minLossPkts = 2
	beta        = 0.7
	headroom    = 0.85

	btlbwWindowRounds = 10   // bandwidth max-filter, in round trips
	rtpropWindow      = 10.0 // seconds
	probeRTTInterval  = 5.0  // v2 probes min-RTT twice as often as v1...
	probeRTTDuration  = 0.2
	probeRTTCwndGain  = 0.5 // ...but with half a BDP instead of 4 packets

	// bwProbeWait is the cruise time before the next Refill/Up probe
	// (v2 randomizes 2–3 s; a fixed midpoint keeps runs reproducible).
	bwProbeWait = 2.5

	// upMaxRounds bounds one Up probe; each clean Up round raises
	// inflight_hi at a doubling growth step.
	upMaxRounds = 3
)

type mode int

const (
	modeStartup mode = iota
	modeDrain
	modeProbeBW
	modeProbeRTT
)

// phase is the ProbeBW sub-state.
type phase int

const (
	phaseDown phase = iota
	phaseCruise
	phaseRefill
	phaseUp
)

func (m mode) String() string {
	switch m {
	case modeStartup:
		return "startup"
	case modeDrain:
		return "drain"
	case modeProbeBW:
		return "probe_bw"
	default:
		return "probe_rtt"
	}
}

func (p phase) String() string {
	switch p {
	case phaseDown:
		return "probe_down"
	case phaseCruise:
		return "cruise"
	case phaseRefill:
		return "refill"
	default:
		return "probe_up"
	}
}

// Controller is one bbr2 connection.
type Controller struct {
	mode       mode
	phase      phase
	btlbw      stats.WindowedMax // bytes/sec, keyed by round count
	rtprop     stats.WindowedMin // seconds, keyed by time
	pacingGain float64

	inflightHi float64 // probe-learned long-term inflight ceiling, bytes
	inflightLo float64 // short-term loss bound, reset at each Refill

	delivered    int64
	deliveredAt  float64
	snapshots    bbr.Snapshots
	round        int64
	nextRoundSeq int64
	maxSeqSent   int64
	fullBW       float64
	fullBWRounds int
	inflight     int

	// Per-round loss accounting.
	roundAcked   int64
	roundLost    int64
	lossyRound   bool // set at the round edge, consumed by step
	startupLossy int  // consecutive lossy rounds during startup

	cruiseStart   float64
	refillRound   int64
	upRounds      int
	upGrowth      float64 // packets added to inflight_hi next clean Up round
	rtpropStamp   float64
	probeRTTUntil float64

	started      bool
	nowForRtprop float64

	tr trace.Tracer
}

// New returns a bbr2 controller.
func New() *Controller {
	return &Controller{
		mode:       modeStartup,
		pacingGain: startupGain,
		btlbw:      stats.WindowedMax{Window: btlbwWindowRounds},
		rtprop:     stats.WindowedMin{Window: rtpropWindow},
		inflightHi: math.Inf(1),
		inflightLo: math.Inf(1),
		upGrowth:   1,
	}
}

// SetTracer implements transport.TraceAware: mode and ProbeBW-phase
// transitions are emitted as ModeSwitch events (value = pacing gain).
func (c *Controller) SetTracer(t trace.Tracer) { c.tr = t }

// Name implements transport.Controller.
func (c *Controller) Name() string { return "bbr2" }

// Mode returns the current mode, with the ProbeBW sub-state spelled
// out (for tests and diagnostics).
func (c *Controller) Mode() string {
	if c.mode == modeProbeBW {
		return c.phase.String()
	}
	return c.mode.String()
}

// InflightHi returns the probe-learned inflight ceiling in bytes
// (+Inf until the first lossy probe).
func (c *Controller) InflightHi() float64 { return c.inflightHi }

// InflightLo returns the short-term loss bound in bytes (+Inf while
// no loss has been seen since the last Refill).
func (c *Controller) InflightLo() float64 { return c.inflightLo }

// BtlBw returns the bottleneck bandwidth estimate in bytes/sec.
func (c *Controller) BtlBw() float64 {
	bw, _ := c.btlbw.Get(float64(c.round))
	return bw
}

// RTProp returns the propagation-delay estimate in seconds.
func (c *Controller) RTProp() float64 {
	rt, ok := c.rtprop.Get(c.nowForRtprop)
	if !ok {
		return 0.1
	}
	return rt
}

var _ transport.Controller = (*Controller)(nil)

// OnSend implements transport.Controller.
func (c *Controller) OnSend(now float64, pkt *transport.SentPacket) {
	if c.deliveredAt == 0 {
		c.deliveredAt = now
	}
	c.snapshots.Put(pkt.Seq, bbr.Snapshot{Delivered: c.delivered, DeliveredAt: c.deliveredAt, SentAt: now})
	if pkt.Seq > c.maxSeqSent {
		c.maxSeqSent = pkt.Seq
	}
	c.inflight += pkt.Size
	if !c.started {
		c.started = true
		c.rtpropStamp = now
		c.cruiseStart = now
	}
}

// OnLoss implements transport.Controller: losses feed the per-round
// loss rate that drives the inflight_hi response.
func (c *Controller) OnLoss(loss transport.Loss) {
	c.snapshots.Take(loss.Seq)
	c.inflight -= loss.Bytes
	if c.inflight < 0 {
		c.inflight = 0
	}
	c.roundLost += int64(loss.Bytes)
}

// OnAck implements transport.Controller.
func (c *Controller) OnAck(ack transport.Ack) {
	c.nowForRtprop = ack.Now
	c.inflight -= ack.Bytes
	if c.inflight < 0 {
		c.inflight = 0
	}
	c.delivered += int64(ack.Bytes)
	c.deliveredAt = ack.Now
	c.roundAcked += int64(ack.Bytes)

	if ack.Seq >= c.nextRoundSeq {
		c.round++
		c.nextRoundSeq = c.maxSeqSent + 1
		c.onRound(ack.Now)
	}

	// Delivery-rate sample, exactly as v1 (see bbr.Controller.OnAck).
	if snap, ok := c.snapshots.Take(ack.Seq); ok {
		sendElapsed := snap.SentAt - snap.DeliveredAt
		ackElapsed := ack.Now - snap.DeliveredAt
		elapsed := ackElapsed
		if sendElapsed > elapsed {
			elapsed = sendElapsed
		}
		if elapsed > 0 {
			c.btlbw.Add(float64(c.round), float64(c.delivered-snap.Delivered)/elapsed)
		}
	}

	if prev, ok := c.rtprop.Get(ack.Now); !ok || ack.RTT < prev {
		c.rtpropStamp = ack.Now
	}
	c.rtprop.Add(ack.Now, ack.RTT)

	c.step(ack.Now)
}

// onRound closes the per-round loss ledger; in startup it runs the v1
// full-pipe estimator, and in an Up probe it does the once-per-round
// inflight_hi growth bookkeeping.
func (c *Controller) onRound(now float64) {
	tot := c.roundAcked + c.roundLost
	c.lossyRound = float64(c.roundLost) >= minLossPkts*mss &&
		float64(c.roundLost)/float64(tot) > lossThresh
	c.roundAcked, c.roundLost = 0, 0

	switch c.mode {
	case modeStartup:
		bw := c.BtlBw()
		if bw > c.fullBW*1.25 {
			c.fullBW = bw
			c.fullBWRounds = 0
		} else {
			c.fullBWRounds++
		}
		if c.lossyRound {
			c.startupLossy++
		} else {
			c.startupLossy = 0
		}
	case modeProbeBW:
		if c.phase == phaseUp {
			c.upRounds++
			if !c.lossyRound && !math.IsInf(c.inflightHi, 1) {
				// A clean probing round: raise the bound toward what
				// the probe proved deliverable, doubling the step.
				hi := c.inflightHi + c.upGrowth*mss
				if proved := float64(c.inflight); proved > hi {
					hi = proved
				}
				c.inflightHi = hi
				c.upGrowth *= 2
				if c.upGrowth > 64 {
					c.upGrowth = 64
				}
				c.tr.ModeSwitch(now, "inflight_hi_raise", c.inflightHi/mss)
			}
		}
	}
}

// cutInflightHi is the loss response: a multiplicative cut of the
// inflight bound, floored so the window never collapses entirely.
func (c *Controller) cutInflightHi(now float64) {
	bound := c.inflightHi
	if math.IsInf(bound, 1) {
		bound = float64(c.inflight)
		if b := c.bdp(); b > bound {
			bound = b
		}
	}
	bound *= beta
	if bound < 4*mss {
		bound = 4 * mss
	}
	c.inflightHi = bound
	c.upGrowth = 1
	c.tr.ModeSwitch(now, "inflight_hi_cut", c.inflightHi/mss)
}

// adaptInflightLo is the short-term loss response outside a probe:
// cut the transient bound, to be released at the next Refill.
func (c *Controller) adaptInflightLo(now float64) {
	lo := c.inflightLo
	if math.IsInf(lo, 1) {
		lo = float64(c.inflight)
		if b := c.bdp(); b > lo {
			lo = b
		}
	}
	lo *= beta
	if lo < 4*mss {
		lo = 4 * mss
	}
	c.inflightLo = lo
	c.tr.ModeSwitch(now, "inflight_lo_cut", c.inflightLo/mss)
}

func (c *Controller) step(now float64) {
	switch c.mode {
	case modeStartup:
		// Exit on a full pipe (v1) or on sustained loss (v2: startup
		// must not blast through a shallow buffer for three rounds).
		if c.fullBWRounds >= 3 || c.startupLossy >= 2 {
			if c.startupLossy >= 2 {
				c.cutInflightHi(now)
				c.startupLossy = 0
			}
			c.mode = modeDrain
			c.pacingGain = drainGain
			c.tr.ModeSwitch(now, "drain", c.pacingGain)
		}
	case modeDrain:
		if float64(c.inflight) <= c.bdp() {
			c.enterProbeBW(now, phaseCruise)
		}
	case modeProbeBW:
		c.stepProbeBW(now)
		if now-c.rtpropStamp > probeRTTInterval {
			c.enterProbeRTT(now)
		}
	case modeProbeRTT:
		if now >= c.probeRTTUntil {
			c.rtpropStamp = now
			c.enterProbeBW(now, phaseCruise)
		}
	}
	if c.mode == modeProbeBW && c.lossyRound &&
		(c.phase == phaseDown || c.phase == phaseCruise) {
		// Loss outside a probe is a short-term signal: cut the
		// transient inflight_lo bound (released at the next Refill),
		// leaving the probe-learned inflight_hi intact.
		c.adaptInflightLo(now)
	}
	c.lossyRound = false
}

// stepProbeBW advances the Down → Cruise → Refill → Up sub-machine.
func (c *Controller) stepProbeBW(now float64) {
	switch c.phase {
	case phaseDown:
		if float64(c.inflight) <= c.inflightTarget() {
			c.enterPhase(now, phaseCruise)
		}
	case phaseCruise:
		if now-c.cruiseStart > bwProbeWait {
			c.enterPhase(now, phaseRefill)
		}
	case phaseRefill:
		// One round refilling the pipe to the bound, then probe up.
		if c.round > c.refillRound {
			c.enterPhase(now, phaseUp)
		}
	case phaseUp:
		if c.lossyRound {
			c.cutInflightHi(now)
			c.enterPhase(now, phaseDown)
			return
		}
		if c.upRounds >= upMaxRounds {
			c.enterPhase(now, phaseDown)
		}
	}
}

// inflightTarget is the steady-state inflight bound: cruise keeps 15%
// headroom under inflight_hi, and never below one BDP's worth of use.
func (c *Controller) inflightTarget() float64 {
	t := c.bdp()
	if !math.IsInf(c.inflightHi, 1) {
		if h := headroom * c.inflightHi; h < t {
			t = h
		}
	}
	if t < 4*mss {
		t = 4 * mss
	}
	return t
}

func (c *Controller) enterProbeBW(now float64, p phase) {
	c.mode = modeProbeBW
	c.enterPhase(now, p)
}

func (c *Controller) enterPhase(now float64, p phase) {
	c.phase = p
	switch p {
	case phaseDown:
		c.pacingGain = probeDownGain
	case phaseCruise:
		c.pacingGain = 1.0
		c.cruiseStart = now
	case phaseRefill:
		c.pacingGain = 1.0
		c.refillRound = c.round
		c.inflightLo = math.Inf(1) // deliberate re-probe releases the bound
	case phaseUp:
		c.pacingGain = probeUpGain
		c.upRounds = 0
	}
	c.tr.ModeSwitch(now, p.String(), c.pacingGain)
}

func (c *Controller) enterProbeRTT(now float64) {
	c.mode = modeProbeRTT
	c.probeRTTUntil = now + probeRTTDuration
	c.pacingGain = 1.0
	c.tr.ModeSwitch(now, "probe_rtt", c.pacingGain)
}

func (c *Controller) bdp() float64 { return c.BtlBw() * c.RTProp() }

// PacingRate implements transport.Controller.
func (c *Controller) PacingRate() float64 {
	bw := c.BtlBw()
	if bw == 0 {
		return 10 * mss / 0.1 * c.pacingGain
	}
	if c.mode == modeProbeRTT {
		return bw
	}
	return c.pacingGain * bw
}

// CWnd implements transport.Controller: the v1 gain-scaled BDP window
// capped by the loss-learned inflight bound (with cruise headroom
// outside an active Refill/Up probe).
func (c *Controller) CWnd() float64 {
	if c.mode == modeProbeRTT {
		w := probeRTTCwndGain * c.bdp()
		if w < 4*mss {
			w = 4 * mss
		}
		return w
	}
	bdp := c.bdp()
	if bdp == 0 {
		return 10 * mss
	}
	gain := cwndGain
	if c.mode == modeStartup {
		gain = startupGain
	}
	w := gain * bdp
	if c.mode == modeProbeBW {
		bound := c.inflightLo
		if !math.IsInf(c.inflightHi, 1) {
			hi := c.inflightHi
			if c.phase == phaseDown || c.phase == phaseCruise {
				hi = headroom * c.inflightHi
			}
			if hi < bound {
				bound = hi
			}
		}
		if bound < w {
			w = bound
		}
	}
	if w < 4*mss {
		w = 4 * mss
	}
	return w
}
