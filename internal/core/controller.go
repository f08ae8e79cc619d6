package core

import (
	"math"
	"math/rand"

	"pccproteus/internal/stats"
	"pccproteus/internal/trace"
	"pccproteus/internal/transport"
)

// The rate-control and noise-tolerance parameters, at the paper's values
// (§5; Vivace's for the monitor interval and the step controller). Every
// PCC family member shares them. The floats are typed: an untyped
// minRateMbps*Epsilon would fold to exactly 0.005 rather than the
// float64 product 0.005000000000000001, and move the figures.
const (
	// Monitor intervals.
	miMin        float64 = 0.010 // minimum MI duration, seconds
	miRTTMult    float64 = 1.5   // MI duration as a multiple of smoothed RTT
	minPktsPerMI         = 8     // an MI does not seal until it carries this many packets

	// Rate control.
	initialRateMbps float64 = 1
	minRateMbps     float64 = 0.1
	maxRateMbps     float64 = 10000
	Epsilon         float64 = 0.05 // probing rate perturbation (±ε); internal/equi's too
	theta0          float64 = 0.5  // gradient→rate conversion factor, Mbps per utility-slope unit
	omegaInit       float64 = 0.05 // initial rate-change boundary, fraction of rate
	omegaStep       float64 = 0.10 // boundary growth per consecutive boundary hit
	ampMax                  = 50   // cap on the confidence amplifier

	// Noise tolerance (§5).
	ackIntervalRatio float64 = 50 // consecutive ACK-interval ratio threshold
	trendK                   = 6  // MIs of trending history
	g1               float64 = 2  // trending-gradient anomaly threshold, in deviations
	g2               float64 = 4  // deviation anomaly threshold, in deviations
	noiseWarmupMIs           = 24 // MIs of full-gain noise-model learning
)

// Config selects the PCC family member: the probing rule and which §5
// noise-tolerance mechanisms run. Every field is read as given; build
// one with ProteusConfig or VivaceConfig.
type Config struct {
	Rng        *rand.Rand // required: the simulation's deterministic source
	ProbePairs int        // 2 = Vivace consistency, 3 = Proteus majority rule

	// Noise tolerance (§5).
	UseAckFilter           bool    // per-ACK RTT sample filtering
	UseRegressionTolerance bool    // per-MI regression-error tolerance
	FixedGradTolerance     float64 // Vivace-style flat tolerance (used when regression tolerance is off)
	UseTrending            bool    // MI-history trending tolerance
}

// ProteusConfig returns the full Proteus configuration: majority-of-three
// probing and all four noise-tolerance mechanisms enabled.
func ProteusConfig(rng *rand.Rand) Config {
	return Config{
		Rng:                    rng,
		ProbePairs:             3,
		UseAckFilter:           true,
		UseRegressionTolerance: true,
		UseTrending:            true,
	}
}

// VivaceConfig returns the PCC Vivace baseline configuration: two-pair
// consistency probing and only a fixed gradient-tolerance threshold.
func VivaceConfig(rng *rand.Rand) Config {
	return Config{
		Rng:                rng,
		ProbePairs:         2,
		FixedGradTolerance: 0.005,
	}
}

type ctrlState int

const (
	stateStarting ctrlState = iota
	stateProbing
)

func (s ctrlState) String() string {
	if s == stateStarting {
		return "starting"
	}
	return "probing"
}

// Stats carries controller-internal counters for diagnostics and the
// ablation experiments.
type Stats struct {
	MIsCompleted   int64
	MIsDiscarded   int64
	RTTFilteredOut int64
	DecisionsUp    int64
	DecisionsDown  int64
	ProbesRepeated int64
	UtilitySwaps   int64
	Outages        int64
	Recoveries     int64
}

// Controller is the Proteus/Vivace congestion controller: a utility
// module plus the gradient-based rate-control module, implementing
// transport.Controller. One instance drives one flow.
type Controller struct {
	cfg  Config
	util UtilityFunc
	mon  *monitor

	label string
	state ctrlState
	rate  float64 // base sending rate, Mbps

	// Starting state.
	startPrevUtil float64
	startPrevSet  bool
	startPrevRate float64
	startEvalRate float64 // the doubled rate whose utility we await

	// Probing state bookkeeping. probeQueue holds rates for MIs not yet
	// begun; probeSlot maps a live MI id to its slot (pair*2 + position);
	// probeUtil/probeRate record finalized results.
	probeQueue []float64
	probeSlot  map[int64]int
	probeUtil  []float64
	probeRate  []float64
	probeGot   int

	// Gradient-step state: confidence amplifier and dynamic boundary,
	// carried across consecutive same-direction decisions.
	dir   float64
	amp   int
	omega float64

	nextUtil UtilityFunc // swap applied at the next MI boundary
	paused   bool

	// tr is the flight-recorder handle, bound by the transport sender
	// at Start (via transport.TraceAware); disabled by default.
	tr trace.Tracer

	stats Stats
}

// New creates a controller with the given configuration and utility
// function. Use the preset constructors below for the paper's variants.
func New(label string, cfg Config, util UtilityFunc) *Controller {
	c := &Controller{
		cfg:           cfg,
		util:          util,
		label:         label,
		state:         stateStarting,
		rate:          initialRateMbps,
		startEvalRate: initialRateMbps,
		omega:         omegaInit,
	}
	c.mon = newMonitor(&c.cfg)
	return c
}

// NewProteusP returns Proteus in primary mode.
func NewProteusP(rng *rand.Rand) *Controller {
	return New("proteus-p", ProteusConfig(rng), NewPrimary())
}

// NewProteusS returns Proteus in scavenger mode.
func NewProteusS(rng *rand.Rand) *Controller {
	return New("proteus-s", ProteusConfig(rng), NewScavenger())
}

// NewProteusH returns Proteus in hybrid mode together with the Hybrid
// utility so callers can adjust the switching threshold.
func NewProteusH(rng *rand.Rand) (*Controller, *Hybrid) {
	h := NewHybrid()
	return New("proteus-h", ProteusConfig(rng), h), h
}

// NewVivace returns the PCC Vivace baseline: the same machinery with
// Vivace's utility, its two-pair consistency rule and a fixed
// gradient-tolerance threshold in place of Proteus's noise mechanisms —
// exactly the delta the paper's §5 introduces.
func NewVivace(rng *rand.Rand) *Controller {
	return New("vivace", VivaceConfig(rng), NewVivaceUtility())
}

// NewAllegro returns the PCC Allegro baseline: the same machinery with
// Allegro's loss-only utility and the original consistency probing with
// multiplicative step escalation (two pairs), and no latency-noise
// mechanisms — it has no latency terms to protect. The utility ignores
// latency, so no gradient tolerance is needed, but a nonzero one selects
// the fixed-threshold path over regression tolerance.
func NewAllegro(rng *rand.Rand) *Controller {
	return New("allegro", Config{Rng: rng, ProbePairs: 2, FixedGradTolerance: 1e9}, AllegroUtility{})
}

// Name implements transport.Controller.
func (c *Controller) Name() string { return c.label }

// RateMbps returns the controller's current base sending rate.
func (c *Controller) RateMbps() float64 { return c.rate }

// State returns the rate-control state name (starting/probing/moving).
func (c *Controller) State() string { return c.state.String() }

// Utility returns the active utility function.
func (c *Controller) Utility() UtilityFunc { return c.util }

// Stats returns a snapshot of internal counters.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.RTTFilteredOut = c.mon.filteredOut
	return s
}

// SetUtility swaps the utility function at the next MI boundary — the
// flexibility API of §3: "a simple API call", usable mid-flow.
func (c *Controller) SetUtility(u UtilityFunc) {
	c.nextUtil = u
	c.stats.UtilitySwaps++
}

// SetTracer implements transport.TraceAware: the controller emits
// MIDecision, UtilitySample, RateChange, and ModeSwitch events at its
// decision points when a flight recorder is attached.
func (c *Controller) SetTracer(t trace.Tracer) { c.tr = t }

// OnAppPause implements transport.PauseAware: open MIs spanning an
// application stall are discarded, their utility being meaningless.
func (c *Controller) OnAppPause(now float64) {
	c.paused = true
	c.stats.MIsDiscarded += c.mon.discardOpen()
	c.abortDecisionState(now)
}

// OnAppResume implements transport.PauseAware.
func (c *Controller) OnAppResume(float64) {
	c.paused = false
	c.mon.current = nil // force a fresh MI on the next send
}

// OnOutage implements transport.OutageAware: the sender's stall
// watchdog detected a path outage. Open monitor intervals are
// discarded (their utility is meaningless) and the controller freezes —
// no acks will arrive, so any decision made now would only encode the
// outage itself into the gradient state.
func (c *Controller) OnOutage(now float64) {
	c.stats.Outages++
	c.paused = true
	c.stats.MIsDiscarded += c.mon.discardOpen()
	c.abortDecisionState(now)
	c.tr.ModeSwitch(now, "outage", c.rate)
}

// OnRecovery implements transport.OutageAware: the path healed. The
// controller resumes from resumeRate — the rate that was actually
// being delivered before the outage (bytes/sec; 0 keeps the current
// rate) — with the gradient state reset, re-entering probing exactly
// as after a utility swap. Without this, the loss flood from packets
// sent into the outage would have rate-collapsed the gradient
// machinery, and re-climbing from the floor takes many seconds the
// recovery invariant does not allow.
func (c *Controller) OnRecovery(now float64, resumeRate float64) {
	c.stats.Recoveries++
	c.paused = false
	if resumeRate > 0 {
		prev := c.rate
		c.rate = c.clampRate(resumeRate * 8 / 1e6)
		c.tr.RateChange(now, c.rate, prev, 0, 0, "recover")
	}
	c.dir = 0
	c.amp = 0
	c.omega = omegaInit
	c.startPrevSet = false
	c.mon.current = nil // force a fresh MI on the next send
	c.tr.ModeSwitch(now, "recover", c.rate)
	c.enterProbing(now)
}

// abortDecisionState returns to probing from any half-made decision.
func (c *Controller) abortDecisionState(now float64) {
	if c.state != stateStarting {
		c.enterProbing(now)
	}
}

// OnSend implements transport.Controller: rolls monitor intervals and
// tags each packet with its MI.
func (c *Controller) OnSend(now float64, pkt *transport.SentPacket) {
	cur := c.mon.current
	if cur == nil || cur.sealed ||
		(now >= cur.end && cur.sentPkts >= minPktsPerMI) {
		c.rollMI(now)
	}
	c.mon.onSend(now, pkt.Size)
	pkt.MI = c.mon.current.id
}

func (c *Controller) rollMI(now float64) {
	if res, ok := c.mon.seal(now, c.util); ok {
		c.handleResult(now, res)
	}
	if c.nextUtil != nil {
		if c.tr.Enabled(trace.KindModeSwitch) {
			c.tr.ModeSwitch(now, "utility:"+c.nextUtil.Name(), c.rate)
		}
		c.util = c.nextUtil
		c.nextUtil = nil
	}
	target := c.rate
	if c.state == stateProbing && len(c.probeQueue) > 0 {
		target = c.probeQueue[0]
		c.probeQueue = c.probeQueue[1:]
		m := c.mon.beginMI(now, target, c.srtt())
		c.probeSlot[m.id] = c.probeGotAssigned()
		return
	}
	c.mon.beginMI(now, target, c.srtt())
}

// probeGotAssigned returns the next unassigned probe slot index.
func (c *Controller) probeGotAssigned() int {
	n := 2*c.cfg.ProbePairs - (len(c.probeQueue) + 1)
	return n
}

func (c *Controller) srtt() float64 {
	if c.mon.ewmaRTT.Initialized() {
		return c.mon.ewmaRTT.Avg()
	}
	return 0
}

// OnAck implements transport.Controller.
func (c *Controller) OnAck(ack transport.Ack) {
	// The monitor's ack filter clocks intervals on the receiver-side
	// arrival stamp (immune to reverse-path jitter); transports that do
	// not stamp arrivals fall back to the sender-side ack time.
	recvAt := ack.RecvAt
	if recvAt <= 0 {
		recvAt = ack.Now
	}
	res, done := c.mon.onAck(recvAt, ack.MI, ack.SentAt, ack.RTT, c.util)
	if done {
		c.handleResult(ack.Now, res)
	}
}

// OnLoss implements transport.Controller.
func (c *Controller) OnLoss(loss transport.Loss) {
	res, done := c.mon.onLoss(loss.MI, c.util)
	if done {
		c.handleResult(loss.Now, res)
	}
}

// PacingRate implements transport.Controller: the target rate of the MI
// in progress (probe MIs perturb the base rate by ±ε).
func (c *Controller) PacingRate() float64 {
	r := c.rate
	if cur := c.mon.current; cur != nil && !cur.sealed {
		r = cur.targetMbps
	}
	return r * 1e6 / 8
}

// CWnd implements transport.Controller. Proteus is purely rate-based;
// the window is only a safety cap of 4·rate·max(srtt, 100ms) to bound
// in-flight state on pathological paths.
func (c *Controller) CWnd() float64 {
	srtt := c.srtt()
	if srtt < 0.1 {
		srtt = 0.1
	}
	return 4 * (c.rate * 1e6 / 8) * srtt
}

// --- decision logic ---

func (c *Controller) handleResult(now float64, res miResult) {
	c.stats.MIsCompleted++
	switch c.state {
	case stateStarting:
		c.handleStarting(now, res)
	case stateProbing:
		c.handleProbing(now, res)
	}
	c.tr.MIDecision(now, res.id, res.target, res.rate, res.utility, c.rate, c.state.String())
	if c.tr.Enabled(trace.KindUtilitySample) {
		c.tr.UtilitySample(now, res.id, res.utility,
			res.metrics.RTTGradient, res.metrics.RTTDeviation, res.metrics.LossRate,
			c.util.Name())
	}
}

// handleStarting doubles the rate each round while utility keeps growing
// (slow-start analog), then falls back to the last good rate and starts
// probing. Because MI results lag the rate changes by roughly one RTT,
// several MIs run at each rate; only the first result at the rate under
// evaluation counts.
func (c *Controller) handleStarting(now float64, res miResult) {
	if res.target != c.startEvalRate {
		return // stale result from before the last doubling
	}
	if !c.startPrevSet || res.utility > c.startPrevUtil {
		c.startPrevSet = true
		c.startPrevUtil = res.utility
		c.startPrevRate = c.rate
		c.rate = c.clampRate(c.rate * 2)
		if c.rate > c.startPrevRate {
			c.tr.RateChange(now, c.rate, c.startPrevRate, 0, 1, "double")
			c.startEvalRate = c.rate
			return
		}
		// Hit the rate cap: nothing left to double into.
	}
	prev := c.rate
	c.rate = c.startPrevRate
	c.tr.RateChange(now, c.rate, prev, 0, 1, "fallback")
	c.enterProbing(now)
}

func (c *Controller) enterProbing(now float64) {
	if c.state != stateProbing {
		c.tr.ModeSwitch(now, "probing", c.rate)
	}
	c.state = stateProbing
	c.clearProbes()
	c.setupProbes()
}

func (c *Controller) clearProbes() {
	c.probeQueue = nil
	c.probeSlot = make(map[int64]int)
	c.probeUtil = make([]float64, 2*c.cfg.ProbePairs)
	c.probeRate = make([]float64, 2*c.cfg.ProbePairs)
	c.probeGot = 0
}

// setupProbes schedules ProbePairs pairs of MIs at rate·(1±ε), each pair
// in random order (§5 majority rule: Proteus uses three pairs and takes
// the majority direction; Vivace uses two and requires consistency).
func (c *Controller) setupProbes() {
	hi := c.clampRate(c.rate * (1 + Epsilon))
	lo := c.clampRate(c.rate * (1 - Epsilon))
	for p := 0; p < c.cfg.ProbePairs; p++ {
		if c.cfg.Rng.Intn(2) == 0 {
			c.probeQueue = append(c.probeQueue, hi, lo)
		} else {
			c.probeQueue = append(c.probeQueue, lo, hi)
		}
	}
}

func (c *Controller) handleProbing(now float64, res miResult) {
	slot, ok := c.probeSlot[res.id]
	if !ok {
		return // a filler MI at the base rate while results trickle in
	}
	delete(c.probeSlot, res.id)
	idx := slot
	if idx < 0 || idx >= len(c.probeUtil) {
		return
	}
	c.probeUtil[idx] = res.utility
	c.probeRate[idx] = res.target
	c.probeGot++
	if c.probeGot < 2*c.cfg.ProbePairs {
		return
	}
	c.decideFromProbes(now)
}

// decideFromProbes tallies the per-pair votes and either moves the rate
// in the majority direction or re-probes on a tie.
func (c *Controller) decideFromProbes(now float64) {
	votes := 0
	var grads []float64
	pairs := c.cfg.ProbePairs
	for p := 0; p < pairs; p++ {
		u1, u2 := c.probeUtil[2*p], c.probeUtil[2*p+1]
		r1, r2 := c.probeRate[2*p], c.probeRate[2*p+1]
		if r1 == r2 {
			continue
		}
		g := (u1 - u2) / (r1 - r2)
		grads = append(grads, g)
		if g > 0 {
			votes++
		} else if g < 0 {
			votes--
		}
	}
	if len(grads) == 0 {
		c.clearProbes()
		c.setupProbes()
		return
	}
	var grad float64
	var conclusive bool
	var dir float64
	if pairs >= 3 {
		// Proteus majority rule (§5): the median pair gradient has the
		// majority's sign by construction and discards the magnitude of
		// an outlier pair — one probe MI that randomly caught a transient
		// congestion spike (or a loss burst) must not dictate the step
		// size of the whole decision.
		grad = stats.Median(grads)
		conclusive = grad != 0
		if grad > 0 {
			dir = 1
		} else {
			dir = -1
		}
	} else {
		// Vivace consistency rule: both pairs must agree on direction.
		sum := 0.0
		for _, g := range grads {
			sum += g
		}
		grad = sum / float64(len(grads))
		conclusive = votes >= pairs || -votes >= pairs
		if votes > 0 {
			dir = 1
		} else {
			dir = -1
		}
	}
	if conclusive {
		c.applyDecision(now, dir, grad)
		return
	}
	// Inconclusive: keep the rate and test the same pair of rates again
	// — the slow ramp-up §5's majority rule addresses.
	c.stats.ProbesRepeated++
	c.dir = 0
	c.amp = 1
	c.omega = omegaInit
	c.clearProbes()
	c.setupProbes()
}

// applyDecision performs one gradient-ascent rate change after a
// conclusive probing round: Δ = θ0·m·|grad|, bounded by the dynamic
// boundary ω·rate. The confidence amplifier m grows across consecutive
// same-direction decisions and resets on a direction flip; the boundary
// ω grows only while consecutive steps keep hitting it (Vivace's
// confidence-amplified rate controller). The controller then immediately
// probes again around the new rate.
func (c *Controller) applyDecision(now, dir, grad float64) {
	if dir == c.dir {
		if c.amp < ampMax {
			c.amp++
		}
	} else {
		c.amp = 1
		c.omega = omegaInit
	}
	c.dir = dir
	if dir > 0 {
		c.stats.DecisionsUp++
	} else {
		c.stats.DecisionsDown++
	}
	raw := theta0 * float64(c.amp) * math.Abs(grad)
	bound := c.omega * c.rate
	step := raw
	if step >= bound {
		step = bound
		c.omega += omegaStep
	} else {
		c.omega = omegaInit
	}
	if min := minRateMbps * Epsilon; step < min {
		step = min
	}
	prev := c.rate
	c.rate = c.clampRate(c.rate + dir*step)
	if dir > 0 {
		c.tr.RateChange(now, c.rate, prev, grad, c.amp, "up")
	} else {
		c.tr.RateChange(now, c.rate, prev, grad, c.amp, "down")
	}
	c.clearProbes()
	c.setupProbes()
}

func (c *Controller) clampRate(r float64) float64 {
	if r < minRateMbps {
		return minRateMbps
	}
	if r > maxRateMbps {
		return maxRateMbps
	}
	return r
}
