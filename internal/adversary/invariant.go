package adversary

import (
	"fmt"
	"math"
	"slices"

	"pccproteus/internal/exp"
	"pccproteus/internal/overload"
	"pccproteus/internal/trace"
)

// Verdict is one invariant's judgment of one run. Margin is a
// normalized distance to violation: positive means the invariant held
// with that much headroom, negative means it was violated by that
// much. The guided search minimizes the smallest margin, so a margin
// that shrinks continuously as behavior worsens is what steers the
// hunt toward a violation.
type Verdict struct {
	Invariant string  `json:"invariant"`
	Margin    float64 `json:"margin"`
	Detail    string  `json:"detail,omitempty"`
}

// Violated reports whether the invariant failed.
func (v Verdict) Violated() bool { return v.Margin < 0 }

func (v Verdict) String() string {
	state := "ok"
	if v.Violated() {
		state = "VIOLATED"
	}
	s := fmt.Sprintf("%-16s %-8s margin=%+.4f", v.Invariant, state, v.Margin)
	if v.Detail != "" {
		s += "  (" + v.Detail + ")"
	}
	return s
}

// Checker evaluates one behavioral invariant against a completed run.
type Checker interface {
	Name() string
	Check(rc *RunContext) Verdict
}

// Tunables of the invariant library. They are part of the
// counterexample contract: changing one can flip the verdict of a
// checked-in golden schedule, so treat them like a file-format version.
const (
	// RecoveryT is the settling time the recovery invariant grants
	// after the last perturbation ends, and recoveryWindow the
	// measurement window after that. Gradient-ascent controllers climb
	// multiplicatively (≈5–25% per ~6-MI decision), so recovering from
	// a deep cut to a 40 Mbps operating point takes tens of decisions.
	RecoveryT        = 20.0
	recoveryWindow   = 10.0
	recoveryFraction = 0.85 // must regain this share of the clean-run rate

	// rate-bound: an explicit pacing rate may not exceed
	// rateBoundTol × the best capacity seen over the trailing
	// rateBoundWin seconds, plus a small absolute slack. The window
	// forgives decision lag after a capacity drop; a violation means
	// the controller is genuinely pinned above the path.
	rateBoundWin = 5
	rateBoundTol = 4.0
	rateBoundMbp = 2.0 // absolute slack, Mbps

	// progress: in every progressWin-second window after warmup the
	// target must average at least progressFloor Mbps. The floor is
	// far below every controller's minimum rate; hitting it means a
	// stall (RTO storm, rate collapse), not politeness.
	progressWin   = 10
	progressFloor = 0.02

	// scavenger-yield: with a primary flow present for yieldGrace
	// seconds under otherwise-clean conditions, a scavenger must drop
	// to yieldFraction of its pre-arrival throughput.
	yieldGrace    = 15.0
	yieldFraction = 0.5
	yieldMinDur   = 25.0 // flow segments shorter than this are not judged
	yieldMinPre   = 2.0  // Mbps the scavenger must have been using to be judged

	// hybrid-floor: Proteus-H competing with a primary must keep at
	// least hybridFraction of its configured threshold.
	hybridFraction = 0.5
)

// Checkers returns the invariant library for a target protocol: the
// universal checkers plus the role-specific ones.
func Checkers(proto string) []Checker {
	cs := []Checker{finiteChecker{}, rateBoundChecker{}, progressChecker{}, recoveryChecker{}}
	if overload.ClassOf(proto) == overload.ClassScavenger {
		cs = append(cs, scavengerYieldChecker{})
	}
	if proto == exp.ProtoProteusH {
		cs = append(cs, hybridFloorChecker{})
	}
	return cs
}

// CheckAll runs every applicable checker, in a fixed order.
func CheckAll(rc *RunContext) []Verdict {
	checkers := Checkers(rc.Scenario.Proto)
	out := make([]Verdict, len(checkers))
	for i, c := range checkers {
		out[i] = c.Check(rc)
		out[i].Invariant = c.Name()
	}
	return out
}

// MinMargin returns the smallest margin across verdicts — the fitness
// the guided search minimizes (+Inf for an empty list).
func MinMargin(vs []Verdict) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		if v.Margin < m {
			m = v.Margin
		}
	}
	return m
}

// --- finite: no NaN, no infinity, no negative rate --------------------

// finiteChecker asserts numeric sanity of everything the controller
// reported: monitor-interval decisions, rate changes, utility samples,
// and the per-second pacing-rate/cwnd probes. Any NaN, infinity, or
// negative rate is an unconditional violation — these values feed
// multiplications in the rate controller and corrupt silently.
type finiteChecker struct{}

func (finiteChecker) Name() string { return "finite" }

func (finiteChecker) Check(rc *RunContext) Verdict {
	bad := func(detail string) Verdict {
		return Verdict{Margin: -1, Detail: detail}
	}
	for _, ev := range rc.Events {
		for _, x := range [4]float64{ev.A, ev.B, ev.C, ev.D} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return bad(fmt.Sprintf("non-finite payload in %s event at t=%.3f", ev.Kind, ev.T))
			}
		}
		if ev.Kind == trace.KindMIDecision && ev.D < 0 {
			return bad(fmt.Sprintf("negative base rate %.4g at t=%.3f", ev.D, ev.T))
		}
		if ev.Kind == trace.KindRateChange && ev.A < 0 {
			return bad(fmt.Sprintf("negative rate %.4g at t=%.3f", ev.A, ev.T))
		}
	}
	for i, p := range rc.PacingMbps {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return bad(fmt.Sprintf("bad pacing rate %v at t=%d", p, i+1))
		}
	}
	for i, w := range rc.CWnd {
		if math.IsNaN(w) || w < 0 { // +Inf cwnd is the rate-based convention
			return bad(fmt.Sprintf("bad cwnd %v at t=%d", w, i+1))
		}
	}
	return Verdict{Margin: 1}
}

// --- rate-bound: pacing stays tethered to capacity --------------------

type rateBoundChecker struct{}

func (rateBoundChecker) Name() string { return "rate-bound" }

func (rateBoundChecker) Check(rc *RunContext) Verdict {
	sc, sch := rc.Scenario, rc.Schedule
	// Capacity per second, from the same pure function the emulation
	// applied.
	caps := make([]float64, len(rc.PacingMbps))
	for i := range caps {
		caps[i] = sch.RateAt(sc, float64(i)+0.5)
	}
	v := Verdict{Margin: 1}
	for i, pace := range rc.PacingMbps {
		if pace <= 0 { // window-based controller: physically capacity-bound
			continue
		}
		best := 0.0
		for j := i - rateBoundWin + 1; j <= i; j++ {
			if j >= 0 && caps[j] > best {
				best = caps[j]
			}
		}
		bound := rateBoundTol*best + rateBoundMbp
		m := (bound - pace) / bound
		if m < v.Margin {
			v.Margin = m
			v.Detail = fmt.Sprintf("pacing %.2f Mbps vs bound %.2f Mbps at t=%d", pace, bound, i+1)
		}
	}
	v.Margin = clamp(v.Margin, -1, 1)
	return v
}

// --- progress: the flow never stalls ----------------------------------

type progressChecker struct{}

func (progressChecker) Name() string { return "progress" }

func (progressChecker) Check(rc *RunContext) Verdict {
	sc := rc.Scenario
	v := Verdict{Margin: 1}
	for lo := int(sc.Warmup); lo+progressWin <= len(rc.TargetMbps); lo += progressWin / 2 {
		// A window a blackout touches (plus the watchdog's settling
		// time) is excused: the path was destroyed, and not sending is
		// the survival machinery working, not a stall. Path-model outage
		// windows (satellite handovers) get the identical grace.
		if rc.Schedule.blackoutOverlaps(float64(lo), float64(lo+progressWin)) ||
			sc.outageOverlaps(float64(lo), float64(lo+progressWin)) {
			continue
		}
		tput := meanOver(rc.TargetMbps, lo, lo+progressWin)
		m := clamp(tput/progressFloor-1, -1, 1)
		if m < v.Margin {
			v.Margin = m
			v.Detail = fmt.Sprintf("%.4f Mbps over [%d,%d)s (floor %.2g)", tput, lo, lo+progressWin, progressFloor)
		}
	}
	return v
}

// --- recovery: perturbations end, throughput comes back ---------------

type recoveryChecker struct{}

func (recoveryChecker) Name() string { return "recovery" }

func (recoveryChecker) Check(rc *RunContext) Verdict {
	if rc.Baseline == nil {
		return Verdict{Margin: 1, Detail: "no baseline attached"}
	}
	sc := rc.Scenario
	start := int(rc.Schedule.quietAfter(sc) + RecoveryT)
	end := len(rc.TargetMbps)
	if start+int(recoveryWindow/2) > end {
		return Verdict{Margin: 1, Detail: "no recovery window"}
	}
	base := meanOver(rc.Baseline.TargetMbps, start, end)
	if base < 1 {
		return Verdict{Margin: 1, Detail: "baseline idle"}
	}
	got := meanOver(rc.TargetMbps, start, end)
	m := clamp(got/(recoveryFraction*base)-1, -1, 1)
	return Verdict{
		Margin: m,
		Detail: fmt.Sprintf("%.2f Mbps over [%d,%d)s vs %.0f%% of clean %.2f", got, start, end, recoveryFraction*100, base),
	}
}

// --- scavenger-yield: a scavenger backs off when a primary arrives ----

type scavengerYieldChecker struct{}

func (scavengerYieldChecker) Name() string { return "scavenger-yield" }

func (scavengerYieldChecker) Check(rc *RunContext) Verdict {
	v := Verdict{Margin: 1, Detail: "no qualifying primary window"}
	for _, g := range rc.Schedule.Segments {
		if g.Kind != KindFlow || !slices.Contains(exp.Primaries, g.Proto) || g.Dur < yieldMinDur {
			continue
		}
		// Only judge clean competition: an overlapping loss burst or
		// capacity cut suppresses the primary itself, and failing to
		// yield to a flow that cannot use the link is not a bug.
		if rc.Schedule.envOverlaps(g.At-recoveryWindow, g.end()) {
			continue
		}
		pre := meanOver(rc.TargetMbps, int(g.At-recoveryWindow), int(g.At))
		if pre < yieldMinPre {
			continue
		}
		during := meanOver(rc.TargetMbps, int(g.At+yieldGrace), int(g.end()))
		m := clamp(1-during/(yieldFraction*pre), -1, 1)
		if m < v.Margin || v.Detail == "no qualifying primary window" {
			v.Margin = m
			v.Detail = fmt.Sprintf("%.2f Mbps beside %s vs %.2f before (must drop to %.0f%%)",
				during, g.Proto, pre, yieldFraction*100)
		}
	}
	return v
}

// --- hybrid-floor: Proteus-H defends its threshold --------------------

type hybridFloorChecker struct{}

func (hybridFloorChecker) Name() string { return "hybrid-floor" }

func (hybridFloorChecker) Check(rc *RunContext) Verdict {
	tau := rc.HybridThreshold
	if tau <= 0 {
		return Verdict{Margin: 1, Detail: "no threshold configured"}
	}
	v := Verdict{Margin: 1, Detail: "no qualifying primary window"}
	for _, g := range rc.Schedule.Segments {
		if g.Kind != KindFlow || !slices.Contains(exp.Primaries, g.Proto) || g.Dur < yieldMinDur {
			continue
		}
		if rc.Schedule.envOverlaps(g.At-recoveryWindow, g.end()) {
			continue
		}
		during := meanOver(rc.TargetMbps, int(g.At+yieldGrace), int(g.end()))
		floor := hybridFraction * tau
		m := clamp(during/floor-1, -1, 1)
		if m < v.Margin || v.Detail == "no qualifying primary window" {
			v.Margin = m
			v.Detail = fmt.Sprintf("%.2f Mbps beside %s vs floor %.2f (τ=%.1f)", during, g.Proto, floor, tau)
		}
	}
	return v
}
