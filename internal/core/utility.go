// Package core implements the paper's primary contribution: the PCC
// Proteus congestion-control framework. It separates congestion control
// into a utility module (a library of utility functions — primary,
// scavenger, hybrid, custom — computed over per-monitor-interval
// performance metrics) and a rate-control module (Vivace-style online
// gradient ascent, extended with Proteus's majority-of-three rule), plus
// the noise-tolerance mechanisms of §5 (per-ACK RTT sample filtering,
// per-MI regression-error tolerance, MI-history trending tolerance).
//
// A single Controller instance can switch utility functions mid-flow via
// SetUtility — the paper's flexibility goal — so an application moves
// between primary, scavenger, and hybrid service without restarting the
// connection.
package core

import "math"

// Metrics summarizes one monitor interval, in the units the paper's
// utility functions use: rates in Mbps, times in seconds.
type Metrics struct {
	RateMbps     float64 // average sending rate over the MI
	LossRate     float64 // fraction of the MI's packets lost
	RTTGradient  float64 // d(RTT)/dt, seconds per second (post-tolerance)
	RTTDeviation float64 // σ(RTT) within the MI, seconds (post-tolerance)
	AvgRTT       float64 // mean RTT of the MI, seconds
	Duration     float64 // MI length, seconds
}

// UtilityFunc maps MI metrics to a scalar utility. Implementations must
// be pure functions of the metrics (plus their own parameters) so the
// rate controller can compare utilities across sending rates.
type UtilityFunc interface {
	Name() string
	Utility(m Metrics) float64
}

// The constants of the Proteus-P utility function (eq. 1), the PCC
// Vivace values the paper adopts in §6. t and b are exported for the
// equilibrium model (internal/equi), which solves the same utility.
const (
	UtilT float64 = 0.9   // throughput exponent t ∈ (0,1); concavity
	UtilB float64 = 900   // latency-gradient coefficient b > 0
	utilC float64 = 11.35 // loss coefficient c (11.35 tolerates 5% random loss)
)

// Primary is the Proteus-P utility (eq. 1):
//
//	u_P(x) = x^t − b·x·max(0, d(RTT)/dt) − c·x·L
//
// Negative RTT gradient is ignored — the paper's modification to Vivace
// that avoids slow convergence from over-rewarding queue drain.
type Primary struct{}

// NewPrimary returns Proteus-P.
func NewPrimary() *Primary { return &Primary{} }

// Name implements UtilityFunc.
func (u *Primary) Name() string { return "proteus-p" }

// Utility implements UtilityFunc.
func (u *Primary) Utility(m Metrics) float64 {
	x := m.RateMbps
	if x < 0 {
		x = 0
	}
	grad := m.RTTGradient
	if grad < 0 {
		grad = 0
	}
	return math.Pow(x, UtilT) - UtilB*x*grad - utilC*x*m.LossRate
}

// Scavenger is the Proteus-S utility (eq. 2):
//
//	u_S(x) = u_P(x) − d·x·σ(RTT)
//
// RTT deviation — the standard deviation of RTT samples within the MI —
// is the competition indicator of §4.2: it fires on the buffer-occupancy
// oscillation that competing senders' probing produces, earlier than
// loss or sustained gradient, and it is a metric primary protocols do
// not themselves penalize.
type Scavenger struct{}

// NewScavenger returns Proteus-S with this implementation's deviation
// coefficient, DefaultScavengerD.
func NewScavenger() *Scavenger { return &Scavenger{} }

// DefaultScavengerD is the RTT-deviation coefficient d of eq. 2. The
// paper uses 1500 (σ in seconds) on its Emulab/kernel substrate; this
// emulation's smoothed per-MI deviations at a contested bottleneck run
// roughly a third of a kernel stack's magnitude (no interrupt jitter,
// no cross traffic, burst-head RTT sampling), so the default is scaled
// accordingly. See DESIGN.md §5 on substitution calibration; the
// scavenger equilibrium x_S ≈ (t/(d·σ̄))^(1/(1-t)) is what is being
// calibrated.
const DefaultScavengerD float64 = 5000

// Name implements UtilityFunc.
func (u *Scavenger) Name() string { return "proteus-s" }

// Utility implements UtilityFunc.
func (u *Scavenger) Utility(m Metrics) float64 {
	x := m.RateMbps
	if x < 0 {
		x = 0
	}
	return (&Primary{}).Utility(m) - DefaultScavengerD*x*m.RTTDeviation
}

// Hybrid is the Proteus-H piecewise utility (eq. 3): primary below the
// switching threshold, scavenger at or above it. The threshold is set by
// the application (e.g. the video rules of §4.4) and may change at any
// time; there is no explicit mode switch in the control algorithm — the
// mode emerges from comparing utilities of different sending rates.
type Hybrid struct {
	P *Primary
	S *Scavenger

	thresholdMbps float64
}

// NewHybrid returns Proteus-H with default P and S components and an
// infinite threshold (pure primary until the application sets one).
func NewHybrid() *Hybrid {
	return &Hybrid{P: NewPrimary(), S: NewScavenger(), thresholdMbps: math.Inf(1)}
}

// Name implements UtilityFunc.
func (u *Hybrid) Name() string { return "proteus-h" }

// SetThreshold updates the switching threshold in Mbps. An infinite
// threshold makes Proteus-H behave as Proteus-P (the §4.4 emergency
// rule); zero makes it a pure scavenger.
func (u *Hybrid) SetThreshold(mbps float64) { u.thresholdMbps = mbps }

// Threshold returns the current switching threshold in Mbps.
func (u *Hybrid) Threshold() float64 { return u.thresholdMbps }

// Utility implements UtilityFunc.
func (u *Hybrid) Utility(m Metrics) float64 {
	if m.RateMbps < u.thresholdMbps {
		return u.P.Utility(m)
	}
	return u.S.Utility(m)
}

// Custom wraps an arbitrary function as a UtilityFunc, letting
// applications express needs beyond the built-in modes.
type Custom struct {
	Label string
	Fn    func(m Metrics) float64
}

// Name implements UtilityFunc.
func (u *Custom) Name() string { return u.Label }

// Utility implements UtilityFunc.
func (u *Custom) Utility(m Metrics) float64 { return u.Fn(m) }

// VivaceUtility is the unmodified PCC Vivace utility: like Proteus-P but
// rewarding negative RTT gradient as well (no max(0,·) clamp). Used by
// the Vivace baseline.
type VivaceUtility struct{}

// NewVivaceUtility returns the Vivace utility.
func NewVivaceUtility() *VivaceUtility { return &VivaceUtility{} }

// Name implements UtilityFunc.
func (u *VivaceUtility) Name() string { return "vivace" }

// Utility implements UtilityFunc.
func (u *VivaceUtility) Utility(m Metrics) float64 {
	x := m.RateMbps
	if x < 0 {
		x = 0
	}
	return math.Pow(x, UtilT) - UtilB*x*m.RTTGradient - utilC*x*m.LossRate
}

// AllegroUtility is the utility of PCC Allegro (Dong et al., NSDI '15),
// the first protocol of the PCC family and the direct ancestor of Vivace
// and Proteus (§8): a loss-based sigmoid,
//
//	u(x) = T·sigmoid(c·(L−0.05)) − x·L,
//
// where T is the achieved throughput and L the loss rate. It reacts only
// to loss, not latency, and therefore bloats buffers (the paper: "PCC
// Allegro … uses a loss-based utility function, and also suffers from
// bufferbloat") — the shortcoming that motivated Vivace's and Proteus's
// latency-aware designs, which the Allegro baseline exists to exhibit.
// Rates are in Mbps; the sigmoid steepness and the 5% loss threshold
// follow the NSDI '15 design.
type AllegroUtility struct{}

// Name implements UtilityFunc.
func (AllegroUtility) Name() string { return "allegro" }

// Utility implements UtilityFunc.
func (AllegroUtility) Utility(m Metrics) float64 {
	x := m.RateMbps
	if x < 0 {
		x = 0
	}
	goodput := x * (1 - m.LossRate)
	// Sigmoid cutting in sharply above 5% loss (α=100 as in the paper's
	// TCP-friendly variant).
	sig := 1 / (1 + math.Exp(100*(m.LossRate-0.05)))
	return goodput*sig - x*m.LossRate
}

// Proportional is the §2.2 "same metrics, greater penalty" strawman: the
// proportional-bandwidth-allocation utility of the Vivace paper, in
// which a sender's aggressiveness is scaled by a weight w —
//
//	u_w(x) = w·x^t − b·x·max(0, d(RTT)/dt) − c·x·L
//
// so a w < 1 sender tolerates less loss and backs off earlier than a
// w = 1 sender of the same family. The paper rejects this route for a
// scavenger for two reasons this implementation lets experiments
// demonstrate: achieving a small share against a loss-based primary
// requires *inducing* persistent loss, and against a latency-sensitive
// primary the weight is irrelevant because the latency-based sender
// backs off long before the loss signal this utility listens to ever
// fires.
type Proportional struct {
	W float64 // throughput weight; < 1 deprioritizes, > 1 prioritizes
}

// NewProportional returns the proportional-allocation utility with the
// given weight and Proteus-P's constants.
func NewProportional(w float64) *Proportional { return &Proportional{W: w} }

// Name implements UtilityFunc.
func (u *Proportional) Name() string { return "proportional" }

// Utility implements UtilityFunc.
func (u *Proportional) Utility(m Metrics) float64 {
	x := m.RateMbps
	if x < 0 {
		x = 0
	}
	grad := m.RTTGradient
	if grad < 0 {
		grad = 0
	}
	return u.W*math.Pow(x, UtilT) - UtilB*x*grad - utilC*x*m.LossRate
}
