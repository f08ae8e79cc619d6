package bbr

import (
	"math"

	"pccproteus/internal/transport"
)

const (
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

	v2ProbeRTTInterval = 5.0 // v2 probes min-RTT twice as often as v1...
	probeRTTCwndGain   = 0.5 // ...but with half a BDP instead of 4 packets

	// bwProbeWait is the cruise time before the next Refill/Up probe
	// (v2 randomizes 2–3 s; a fixed midpoint keeps runs reproducible).
	bwProbeWait = 2.5

	// upMaxRounds bounds one Up probe; each clean Up round raises
	// inflight_hi at a doubling growth step.
	upMaxRounds = 3
)

// phase is the ProbeBW sub-state.
type phase int

const (
	phaseDown phase = iota
	phaseCruise
	phaseRefill
	phaseUp
)

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

// V2 is one connection of a BBRv2-style controller (Cardwell et al.,
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
type V2 struct {
	model
	phase phase

	inflightHi float64 // probe-learned long-term inflight ceiling, bytes
	inflightLo float64 // short-term loss bound, reset at each Refill

	// Per-round loss accounting.
	roundAcked   int64
	roundLost    int64
	lossyRound   bool // set at the round edge, consumed by step
	startupLossy int  // consecutive lossy rounds during startup

	cruiseStart float64
	refillRound int64
	upRounds    int
	upGrowth    float64 // packets added to inflight_hi next clean Up round
}

// NewV2 returns a bbr2 controller.
func NewV2() *V2 {
	return &V2{
		model:      newModel(),
		inflightHi: math.Inf(1),
		inflightLo: math.Inf(1),
		upGrowth:   1,
	}
}

// Name implements transport.Controller.
func (c *V2) Name() string { return "bbr2" }

// Mode returns the current mode, with the ProbeBW sub-state spelled
// out (for tests and diagnostics).
func (c *V2) Mode() string {
	if c.mode == modeProbeBW {
		return c.phase.String()
	}
	return c.mode.String()
}

// InflightHi returns the probe-learned inflight ceiling in bytes
// (+Inf until the first lossy probe).
func (c *V2) InflightHi() float64 { return c.inflightHi }

var _ transport.Controller = (*V2)(nil)

// OnSend implements transport.Controller.
func (c *V2) OnSend(now float64, pkt *transport.SentPacket) {
	if c.send(now, pkt) {
		c.cruiseStart = now
	}
}

// OnLoss implements transport.Controller: losses feed the per-round
// loss rate that drives the inflight_hi response.
func (c *V2) OnLoss(loss transport.Loss) {
	c.loss(loss)
	c.roundLost += int64(loss.Bytes)
}

// OnAck implements transport.Controller.
func (c *V2) OnAck(ack transport.Ack) {
	c.roundAcked += int64(ack.Bytes)
	if c.ack(ack) {
		c.onRound(ack.Now)
	}
	c.sample(ack)
	c.step(ack.Now)
}

// onRound closes the per-round loss ledger; in startup it runs the v1
// full-pipe estimator, and in an Up probe it does the once-per-round
// inflight_hi growth bookkeeping.
func (c *V2) onRound(now float64) {
	tot := c.roundAcked + c.roundLost
	c.lossyRound = float64(c.roundLost) >= minLossPkts*mss &&
		float64(c.roundLost)/float64(tot) > lossThresh
	c.roundAcked, c.roundLost = 0, 0

	switch c.mode {
	case modeStartup:
		c.checkFullPipe()
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

// cut is one multiplicative loss cut of an inflight bound. An unset
// (+Inf) bound starts from what is in flight or one BDP, whichever is
// more; the result is floored so the window never collapses entirely.
func (c *V2) cut(bound float64) float64 {
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
	return bound
}

// cutInflightHi is the loss response to a probe that proved too much.
func (c *V2) cutInflightHi(now float64) {
	c.inflightHi = c.cut(c.inflightHi)
	c.upGrowth = 1
	c.tr.ModeSwitch(now, "inflight_hi_cut", c.inflightHi/mss)
}

// adaptInflightLo is the short-term loss response outside a probe:
// cut the transient bound, to be released at the next Refill.
func (c *V2) adaptInflightLo(now float64) {
	c.inflightLo = c.cut(c.inflightLo)
	c.tr.ModeSwitch(now, "inflight_lo_cut", c.inflightLo/mss)
}

func (c *V2) step(now float64) {
	switch c.mode {
	case modeStartup:
		// Exit on a full pipe (v1) or on sustained loss (v2: startup
		// must not blast through a shallow buffer for three rounds).
		if c.fullBWRounds >= 3 || c.startupLossy >= 2 {
			if c.startupLossy >= 2 {
				c.cutInflightHi(now)
				c.startupLossy = 0
			}
			c.enterDrain(now)
		}
	case modeDrain:
		if float64(c.inflight) <= c.bdp() {
			c.enterProbeBW(now, phaseCruise)
		}
	case modeProbeBW:
		c.stepProbeBW(now)
		if now-c.rtpropStamp > v2ProbeRTTInterval {
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
func (c *V2) stepProbeBW(now float64) {
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
func (c *V2) inflightTarget() float64 {
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

func (c *V2) enterProbeBW(now float64, p phase) {
	c.mode = modeProbeBW
	c.enterPhase(now, p)
}

func (c *V2) enterPhase(now float64, p phase) {
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

func (c *V2) enterProbeRTT(now float64) {
	c.mode = modeProbeRTT
	c.probeRTTUntil = now + probeRTTDuration
	c.pacingGain = 1.0
	c.tr.ModeSwitch(now, "probe_rtt", c.pacingGain)
}

// CWnd implements transport.Controller: the v1 gain-scaled BDP window
// capped by the loss-learned inflight bound (with cruise headroom
// outside an active Refill/Up probe).
func (c *V2) CWnd() float64 {
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
