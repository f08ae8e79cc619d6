// Package bbr implements BBR v1 (Cardwell et al., 2016): a model-based
// controller that estimates the bottleneck bandwidth (windowed max of
// delivery-rate samples) and the round-trip propagation delay (windowed
// min), and paces at gain-cycled multiples of the bandwidth estimate
// through the Startup / Drain / ProbeBW / ProbeRTT state machine.
//
// The package also provides BBR-S, the paper's §7.1 demonstration that
// the RTT-deviation idea generalizes: a BBR sender that forces itself
// into ProbeRTT (its minimal-inflight state) for at least MinYield
// whenever the RTT swing exceeds a threshold, thereby behaving as a
// scavenger; and V2, a BBRv2-class baseline. All three run one path
// model (model.go) under their own state machines.
package bbr

import (
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
)

const (
	probeRTTCwnd     = 4 * mss
	probeRTTInterval = 10.0 // seconds
)

var gainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// Controller is one BBR connection.
type Controller struct {
	// ScavengerDevThreshold, when positive, enables BBR-S (§7.1): when
	// the RTT swing (windowed max − min over the last ~1.5 s) exceeds
	// this many seconds, the sender is forced into ProbeRTT for at least
	// ScavengerMinYield seconds — and it stays yielded while swings keep
	// appearing, because any swing observed while holding a four-packet
	// window must be another flow's doing.
	ScavengerDevThreshold float64
	// ScavengerMinYield is the minimum forced-yield duration (40 ms in
	// the paper's demonstration).
	ScavengerMinYield float64

	model
	cycleIdx   int
	cycleStart float64

	swingMax   stats.WindowedMax // raw RTT, scavenger competition signal
	swingMin   stats.WindowedMin
	forceYield bool
	graceUntil float64 // no re-trigger until then (post-yield settling)
	srtt       float64
}

// New returns a standard BBR controller.
func New() *Controller { return &Controller{model: newModel()} }

// NewScavenger returns BBR-S. The paper's demonstration uses a 20 ms
// smoothed-deviation trigger on a kernel stack; this emulation's RTT
// variance at a contested bottleneck is a few times smaller (see
// DESIGN.md §5), so the trigger is scaled to 6 ms. The 40 ms minimum
// yield matches §7.1.
func NewScavenger() *Controller {
	c := New()
	c.ScavengerDevThreshold = 0.005
	c.ScavengerMinYield = 0.040
	c.swingMax = stats.WindowedMax{Window: 1.5}
	c.swingMin = stats.WindowedMin{Window: 1.5}
	return c
}

// Name implements transport.Controller.
func (c *Controller) Name() string {
	if c.ScavengerDevThreshold > 0 {
		return "bbr-s"
	}
	return "bbr"
}

// Mode returns the current state-machine mode (for tests/diagnostics).
func (c *Controller) Mode() string { return c.mode.String() }

var _ transport.Controller = (*Controller)(nil)

// OnSend implements transport.Controller.
func (c *Controller) OnSend(now float64, pkt *transport.SentPacket) {
	if c.send(now, pkt) {
		c.cycleStart = now
	}
}

// OnLoss implements transport.Controller. BBR v1 does not react to
// individual losses; only the in-flight accounting is maintained.
func (c *Controller) OnLoss(loss transport.Loss) { c.loss(loss) }

// OnAck implements transport.Controller.
func (c *Controller) OnAck(ack transport.Ack) {
	roundEnd := c.ack(ack)

	// Smoothed RTT (for the BBR-S post-yield grace period).
	if c.srtt == 0 {
		c.srtt = ack.RTT
	} else {
		c.srtt = 0.875*c.srtt + 0.125*ack.RTT
	}

	if roundEnd && c.mode == modeStartup {
		c.checkFullPipe()
	}
	c.sample(ack)

	if c.ScavengerDevThreshold > 0 {
		c.swingMax.Add(ack.Now, ack.RTT)
		c.swingMin.Add(ack.Now, ack.RTT)
	}

	c.step(ack.Now)
}

func (c *Controller) step(now float64) {
	// BBR-S: force ProbeRTT when the RTT swing signals competition, and
	// keep extending the yield while the swings persist.
	if c.ScavengerDevThreshold > 0 {
		hi, ok1 := c.swingMax.Get(now)
		lo, ok2 := c.swingMin.Get(now)
		swinging := ok1 && ok2 && hi-lo > c.ScavengerDevThreshold
		if swinging {
			if c.mode != modeProbeRTT && now >= c.graceUntil {
				c.forceYield = true
				c.enterProbeRTT(now, c.ScavengerMinYield)
			} else if c.mode == modeProbeRTT && c.forceYield && now+c.ScavengerMinYield > c.probeRTTUntil {
				c.probeRTTUntil = now + c.ScavengerMinYield
			}
		}
	}
	switch c.mode {
	case modeStartup:
		if c.fullBWRounds >= 3 {
			c.enterDrain(now)
		}
	case modeDrain:
		if float64(c.inflight) <= c.bdp() {
			c.enterProbeBW(now)
		}
	case modeProbeBW:
		rt := c.RTProp()
		if now-c.cycleStart > rt {
			c.cycleIdx = (c.cycleIdx + 1) % len(gainCycle)
			c.cycleStart = now
			c.pacingGain = gainCycle[c.cycleIdx]
		}
		if now-c.rtpropStamp > probeRTTInterval {
			c.enterProbeRTT(now, probeRTTDuration)
		}
	case modeProbeRTT:
		if now >= c.probeRTTUntil {
			c.rtpropStamp = now
			if c.forceYield {
				// Grace period: the release itself refills the queue and
				// swings the RTT; do not read our own recovery (or a
				// fellow scavenger's) as fresh competition.
				c.graceUntil = now + 30*c.srtt
			}
			c.forceYield = false
			c.enterProbeBW(now)
		}
	}
}

func (c *Controller) enterProbeBW(now float64) {
	c.mode = modeProbeBW
	c.cycleIdx = 2 // skip the 1.25 phase right after drain
	c.cycleStart = now
	c.pacingGain = gainCycle[c.cycleIdx]
	c.tr.ModeSwitch(now, "probe_bw", c.pacingGain)
}

func (c *Controller) enterProbeRTT(now float64, dur float64) {
	c.mode = modeProbeRTT
	if dur < probeRTTDuration && c.ScavengerDevThreshold == 0 {
		dur = probeRTTDuration
	}
	c.probeRTTUntil = now + dur
	c.pacingGain = 1.0
	if c.forceYield {
		c.tr.ModeSwitch(now, "probe_rtt_yield", c.pacingGain)
	} else {
		c.tr.ModeSwitch(now, "probe_rtt", c.pacingGain)
	}
}

// CWnd implements transport.Controller.
func (c *Controller) CWnd() float64 {
	if c.mode == modeProbeRTT {
		return probeRTTCwnd
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
	if w < 4*mss {
		w = 4 * mss
	}
	return w
}
