// Package bbr implements BBR v1 (Cardwell et al., 2016): a model-based
// controller that estimates the bottleneck bandwidth (windowed max of
// delivery-rate samples) and the round-trip propagation delay (windowed
// min), and paces at gain-cycled multiples of the bandwidth estimate
// through the Startup / Drain / ProbeBW / ProbeRTT state machine.
//
// The package also provides BBR-S, the paper's §7.1 demonstration that
// the RTT-deviation idea generalizes: a BBR sender that forces itself
// into ProbeRTT (its minimal-inflight state) for at least MinYield
// whenever the smoothed RTT deviation exceeds a threshold, thereby
// behaving as a scavenger.
package bbr

import (
	"math"

	"pccproteus/internal/netem"
	"pccproteus/internal/stats"
	"pccproteus/internal/trace"
	"pccproteus/internal/transport"
)

const (
	mss = float64(netem.MTU)

	startupGain  = 2.885 // 2/ln2
	drainGain    = 1 / 2.885
	cwndGain     = 2.0
	probeRTTCwnd = 4 * mss

	btlbwWindowRounds = 10   // bandwidth filter, in round trips
	rtpropWindow      = 10.0 // seconds
	probeRTTInterval  = 10.0 // seconds
	probeRTTDuration  = 0.2  // seconds
)

var gainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

type mode int

const (
	modeStartup mode = iota
	modeDrain
	modeProbeBW
	modeProbeRTT
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

// Snapshot is the delivery state a packet carries from send to ack.
type Snapshot struct {
	Delivered   int64
	DeliveredAt float64 // when that delivered count was reached
	SentAt      float64
}

// Snapshots holds the Snapshot of every packet sent and neither acked
// nor declared lost, in a power-of-two ring indexed by sequence number:
// no hashing and, once it spans the window, no allocation. bbr2 shares it.
type Snapshots struct{ slots []snapSlot }

type snapSlot struct {
	seq  int64
	live bool
	snap Snapshot
}

// Put records v for seq, replacing what seq held. Live sequence numbers
// span at most a window, so a live slot of another seq in the way means
// the ring is too small: it doubles, which keeps live entries apart.
func (r *Snapshots) Put(seq int64, v Snapshot) {
	for {
		if n := len(r.slots); n > 0 {
			if s := &r.slots[seq&int64(n-1)]; !s.live || s.seq == seq {
				*s = snapSlot{seq, true, v}
				return
			}
		}
		old := r.slots
		r.slots = make([]snapSlot, max(64, 2*len(old)))
		for _, s := range old {
			if s.live {
				r.slots[s.seq&int64(len(r.slots)-1)] = s
			}
		}
	}
}

// Take removes and returns seq's snapshot; ok iff put and not taken since.
func (r *Snapshots) Take(seq int64) (v Snapshot, ok bool) {
	if n := len(r.slots); n > 0 {
		if s := &r.slots[seq&int64(n-1)]; s.live && s.seq == seq {
			s.live = false
			return s.snap, true
		}
	}
	return v, false
}

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

	mode       mode
	btlbw      stats.WindowedMax // bytes/sec, keyed by round count
	rtprop     stats.WindowedMin // seconds, keyed by time
	pacingGain float64

	delivered     int64
	deliveredAt   float64
	snapshots     Snapshots
	round         int64
	nextRoundSeq  int64
	maxSeqSent    int64
	fullBW        float64
	fullBWRounds  int
	cycleIdx      int
	cycleStart    float64
	rtpropStamp   float64 // when rtprop was last reduced
	probeRTTUntil float64
	inflight      int

	debugSample func(rate float64)

	swingMax   stats.WindowedMax // raw RTT, scavenger competition signal
	swingMin   stats.WindowedMin
	forceYield bool
	graceUntil float64 // no re-trigger until then (post-yield settling)

	srtt         float64
	rttvar       float64 // smoothed RTT deviation, as the kernel computes it
	started      bool
	nowForRtprop float64 // latest ack time, for time-keyed filter expiry

	tr trace.Tracer
}

// SetTracer implements transport.TraceAware: mode transitions are
// emitted as ModeSwitch events (value = pacing gain), with the forced
// BBR-S yield distinguished as "probe_rtt_yield".
func (c *Controller) SetTracer(t trace.Tracer) { c.tr = t }

// New returns a standard BBR controller.
func New() *Controller {
	return &Controller{
		mode:       modeStartup,
		pacingGain: startupGain,
		btlbw:      stats.WindowedMax{Window: btlbwWindowRounds},
		rtprop:     stats.WindowedMin{Window: rtpropWindow},
	}
}

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

// BtlBw returns the current bottleneck bandwidth estimate in bytes/sec.
func (c *Controller) BtlBw() float64 {
	bw, _ := c.btlbw.Get(float64(c.round))
	return bw
}

// RTProp returns the current propagation-delay estimate in seconds.
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
	c.snapshots.Put(pkt.Seq, Snapshot{Delivered: c.delivered, DeliveredAt: c.deliveredAt, SentAt: now})
	if pkt.Seq > c.maxSeqSent {
		c.maxSeqSent = pkt.Seq
	}
	c.inflight += pkt.Size
	if !c.started {
		c.started = true
		c.cycleStart = now
		c.rtpropStamp = now
	}
}

// OnLoss implements transport.Controller. BBR v1 does not react to
// individual losses; only the in-flight accounting is maintained.
func (c *Controller) OnLoss(loss transport.Loss) {
	c.snapshots.Take(loss.Seq)
	c.inflight -= loss.Bytes
	if c.inflight < 0 {
		c.inflight = 0
	}
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

	// Smoothed RTT and deviation (for BBR-S).
	if c.srtt == 0 {
		c.srtt = ack.RTT
		c.rttvar = ack.RTT / 2
	} else {
		d := math.Abs(c.srtt - ack.RTT)
		c.rttvar = 0.75*c.rttvar + 0.25*d
		c.srtt = 0.875*c.srtt + 0.125*ack.RTT
	}

	// Round accounting: a round trip completes when a packet sent at or
	// after the previous round's end-of-send is acknowledged.
	if ack.Seq >= c.nextRoundSeq {
		c.round++
		c.nextRoundSeq = c.maxSeqSent + 1
		c.onRound()
	}

	// Delivery-rate sample, per the BBR rate-sample algorithm: the
	// interval is the larger of the send interval and the ack (delivery)
	// interval, so queue growth between send and ack does not deflate
	// the sample and pipe-filling probes can ratchet the estimate up.
	if snap, ok := c.snapshots.Take(ack.Seq); ok {
		sendElapsed := snap.SentAt - snap.DeliveredAt
		ackElapsed := ack.Now - snap.DeliveredAt
		elapsed := ackElapsed
		if sendElapsed > elapsed {
			elapsed = sendElapsed
		}
		if elapsed > 0 {
			rate := float64(c.delivered-snap.Delivered) / elapsed
			if c.debugSample != nil {
				c.debugSample(rate)
			}
			c.btlbw.Add(float64(c.round), rate)
		}
	}

	// RTprop sample.
	if prev, ok := c.rtprop.Get(ack.Now); !ok || ack.RTT < prev {
		c.rtpropStamp = ack.Now
	}
	c.rtprop.Add(ack.Now, ack.RTT)

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
			c.mode = modeDrain
			c.pacingGain = drainGain
			c.tr.ModeSwitch(now, "drain", c.pacingGain)
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

func (c *Controller) onRound() {
	if c.mode != modeStartup {
		return
	}
	bw := c.BtlBw()
	if bw > c.fullBW*1.25 {
		c.fullBW = bw
		c.fullBWRounds = 0
	} else {
		c.fullBWRounds++
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

func (c *Controller) bdp() float64 {
	return c.BtlBw() * c.RTProp()
}

// PacingRate implements transport.Controller.
func (c *Controller) PacingRate() float64 {
	bw := c.BtlBw()
	if bw == 0 {
		// No estimate yet: start at ~10 packets per assumed 100 ms RTT.
		return 10 * mss / 0.1 * c.pacingGain
	}
	if c.mode == modeProbeRTT {
		return bw // pacing is irrelevant; cwnd clamps inflight
	}
	return c.pacingGain * bw
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
