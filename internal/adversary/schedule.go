// Package adversary is the guided adversarial stress-testing subsystem:
// it hunts for network schedules — composed sequences of bandwidth steps
// and oscillations, delay spikes, loss bursts, queue resizes,
// competing-flow churn, and chaos-model faults (blackouts, ack-path
// blackouts, corruption, duplication) — under which a congestion
// controller violates a behavioral invariant (rate boundedness, forward
// progress, scavenger yielding, post-perturbation recovery, numeric
// sanity).
//
// The pieces fit together as a property-based fuzzer for transport
// behavior, in the spirit of CC-Fuzz: a seeded schedule generator
// (schedule.go, generate.go) drives perturbations through sim/netem; a
// library of invariant checkers (invariant.go) evaluates each run from
// its flight-recorder event stream and sampled timelines; a guided
// search loop (search.go) mutates schedules toward the minimum invariant
// margin; and a shrinker (shrink.go) reduces any failing schedule to a
// short reproducing form that serializes as a JSON counterexample
// (replay.go) for regression replay.
//
// Everything is deterministic: a hunt is fully reproduced by its seed,
// regardless of how many worker goroutines evaluate candidates.
package adversary

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
)

// Segment kinds. Each names one parameterized perturbation of the
// emulated path or workload.
const (
	// KindBWStep multiplies the link rate by Factor for Dur seconds.
	KindBWStep = "bw-step"
	// KindBWOsc oscillates the link rate between base and base·Factor
	// with half-period Value for Dur seconds (square wave, perturbed
	// phase first).
	KindBWOsc = "bw-osc"
	// KindDelaySpike adds Value seconds of one-way propagation delay
	// for Dur seconds.
	KindDelaySpike = "delay-spike"
	// KindLossBurst sets the link's random loss probability to Value
	// for Dur seconds.
	KindLossBurst = "loss-burst"
	// KindQueueResize multiplies the bottleneck buffer by Factor for
	// Dur seconds.
	KindQueueResize = "queue-resize"
	// KindFlow runs a competing flow of protocol Proto from At for Dur
	// seconds.
	KindFlow = "flow"

	// Fault segments: these name chaos-model faults (internal/chaos)
	// rather than link-parameter perturbations, and are applied through
	// chaos.ApplySim, under the simulated target and the engine one alike.
	// Their kind strings equal the chaos.Kind strings so a schedule's
	// fault subset converts to a chaos.Plan by name.

	// KindBlackout destroys every data packet (and, implied, every ack)
	// for Dur seconds.
	KindBlackout = string(chaos.KindBlackout)
	// KindAckBlackout destroys only the ack path for Dur seconds.
	KindAckBlackout = string(chaos.KindAckBlackout)
	// KindCorrupt damages each delivered data packet with probability
	// Value for Dur seconds.
	KindCorrupt = string(chaos.KindCorrupt)
	// KindDuplicate delivers an extra copy of each data packet with
	// probability Value for Dur seconds.
	KindDuplicate = string(chaos.KindDuplicate)
)

// segmentKinds lists every kind in generation order.
var segmentKinds = []string{KindBWStep, KindBWOsc, KindDelaySpike, KindLossBurst, KindQueueResize, KindFlow,
	KindBlackout, KindAckBlackout, KindCorrupt, KindDuplicate}

// isFaultKind reports whether the kind is a chaos-model fault (applied
// via chaos.ApplySim) rather than a link-parameter perturbation.
func isFaultKind(kind string) bool {
	switch kind {
	case KindBlackout, KindAckBlackout, KindCorrupt, KindDuplicate:
		return true
	}
	return false
}

// Parameter bounds. Schedules are clamped into these before every run so
// that mutation and shrinking can never drive the emulation outside the
// regime the invariants are calibrated for.
const (
	minSegDur  = 0.5  // seconds, environment segments
	maxSegDur  = 25.0 // seconds, environment segments
	minFlowDur = 10.0 // seconds, competing flows
	maxFlowDur = 40.0

	minBWFactor    = 0.05 // deepest bandwidth cut: 5% of base
	maxBWFactor    = 2.0  // largest bandwidth boost
	minOscPeriod   = 0.2  // seconds, half-period of a bw oscillation
	maxOscPeriod   = 10.0
	minDelaySpike  = 0.005 // seconds of extra one-way delay
	maxDelaySpike  = 0.3
	minLossBurst   = 0.02 // random-loss probability during a burst
	maxLossBurst   = 0.4
	minQueueFactor = 0.1
	maxQueueFactor = 4.0

	// Fault-segment bounds: blackouts are kept short enough that the
	// recovery invariant still has a run to judge, and corruption /
	// duplication probabilities stay well inside the chaos model's own
	// clamp (chaos.MaxFaultProb).
	maxBlackoutDur = 4.0
	minFaultProb   = 0.01
	maxFaultProb   = 0.3

	// Absolute floors the emulation never goes below, whatever the
	// composition of active segments.
	floorLinkMbps   = 0.5
	floorQueueBytes = 2 * netem.MTU
	capLossProb     = 0.5
	capExtraDelay   = 0.5
)

// Segment is one perturbation. At and Dur are seconds of virtual time;
// Factor is a multiplier on a base quantity (bandwidth, buffer) and
// Value an absolute quantity (delay seconds, loss probability, or the
// oscillation half-period). Proto names the protocol of a competing
// flow and is empty for environment segments.
type Segment struct {
	Kind   string  `json:"kind"`
	At     float64 `json:"at"`
	Dur    float64 `json:"dur"`
	Factor float64 `json:"factor,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Proto  string  `json:"proto,omitempty"`
}

// activeAt reports whether the segment covers time t (half-open
// [At, At+Dur)).
func (g Segment) activeAt(t float64) bool { return t >= g.At && t < g.At+g.Dur }

// end returns the segment's end time.
func (g Segment) end() float64 { return g.At + g.Dur }

// String renders the segment compactly for hunt logs.
func (g Segment) String() string {
	switch g.Kind {
	case KindBWStep:
		return fmt.Sprintf("bw-step[%.2f,%.2f)x%.3f", g.At, g.end(), g.Factor)
	case KindBWOsc:
		return fmt.Sprintf("bw-osc[%.2f,%.2f)x%.3f/%.2fs", g.At, g.end(), g.Factor, g.Value)
	case KindDelaySpike:
		return fmt.Sprintf("delay-spike[%.2f,%.2f)+%.3fs", g.At, g.end(), g.Value)
	case KindLossBurst:
		return fmt.Sprintf("loss-burst[%.2f,%.2f)p=%.3f", g.At, g.end(), g.Value)
	case KindQueueResize:
		return fmt.Sprintf("queue-resize[%.2f,%.2f)x%.3f", g.At, g.end(), g.Factor)
	case KindFlow:
		return fmt.Sprintf("flow[%.2f,%.2f)%s", g.At, g.end(), g.Proto)
	case KindBlackout, KindAckBlackout:
		return fmt.Sprintf("%s[%.2f,%.2f)", g.Kind, g.At, g.end())
	case KindCorrupt, KindDuplicate:
		return fmt.Sprintf("%s[%.2f,%.2f)p=%.3f", g.Kind, g.At, g.end(), g.Value)
	}
	return "segment(" + g.Kind + ")"
}

// Schedule is a deterministic attack schedule: the list of perturbation
// segments applied to one run.
type Schedule struct {
	Segments []Segment `json:"segments"`
}

// String joins the segments for hunt logs.
func (s Schedule) String() string {
	if len(s.Segments) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(s.Segments))
	for i, g := range s.Segments {
		parts[i] = g.String()
	}
	return strings.Join(parts, " ")
}

// clone returns a deep copy.
func (s Schedule) clone() Schedule {
	return Schedule{Segments: append([]Segment(nil), s.Segments...)}
}

// round3 quantizes to 0.001 so schedules serialize to stable, short
// JSON and independently derived schedules compare bytewise.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// Canonical clamps every segment into the scenario's legal envelope,
// quantizes parameters, and sorts segments by start time (ties broken
// on kind, then parameters) so that equivalent schedules have equal
// serialized forms and competitor flow IDs are assigned stably.
func (s Schedule) Canonical(sc Scenario) Schedule {
	out := Schedule{Segments: make([]Segment, 0, len(s.Segments))}
	for _, g := range s.Segments {
		if cg, ok := clampSegment(sc, g); ok {
			out.Segments = append(out.Segments, cg)
		}
	}
	sort.SliceStable(out.Segments, func(i, j int) bool {
		a, b := out.Segments[i], out.Segments[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		if a.Factor != b.Factor {
			return a.Factor < b.Factor
		}
		return a.Value < b.Value
	})
	return out
}

// clampSegment forces g into the legal parameter envelope for sc. It
// reports false for segments of unknown kind, which are dropped.
func clampSegment(sc Scenario, g Segment) (Segment, bool) {
	minDur, maxDur := minSegDur, maxSegDur
	if g.Kind == KindFlow {
		minDur, maxDur = minFlowDur, maxFlowDur
	}
	lastStart := sc.maxSegEnd() - minDur
	g.At = clamp(g.At, sc.Warmup, lastStart)
	g.Dur = clamp(g.Dur, minDur, maxDur)
	if g.end() > sc.maxSegEnd() {
		g.Dur = sc.maxSegEnd() - g.At
	}
	switch g.Kind {
	case KindBWStep:
		g.Factor = clamp(g.Factor, minBWFactor, maxBWFactor)
		g.Value, g.Proto = 0, ""
	case KindBWOsc:
		g.Factor = clamp(g.Factor, minBWFactor, 1)
		g.Value = clamp(g.Value, minOscPeriod, maxOscPeriod)
		g.Proto = ""
	case KindDelaySpike:
		g.Value = clamp(g.Value, minDelaySpike, maxDelaySpike)
		g.Factor, g.Proto = 0, ""
	case KindLossBurst:
		g.Value = clamp(g.Value, minLossBurst, maxLossBurst)
		g.Factor, g.Proto = 0, ""
	case KindQueueResize:
		g.Factor = clamp(g.Factor, minQueueFactor, maxQueueFactor)
		g.Value, g.Proto = 0, ""
	case KindFlow:
		if g.Proto == "" {
			g.Proto = CompetitorProtos[0]
		}
		g.Factor, g.Value = 0, 0
	case KindBlackout, KindAckBlackout:
		g.Dur = clamp(g.Dur, minSegDur, maxBlackoutDur)
		g.Factor, g.Value, g.Proto = 0, 0, ""
	case KindCorrupt, KindDuplicate:
		g.Value = clamp(g.Value, minFaultProb, maxFaultProb)
		g.Factor, g.Proto = 0, ""
	default:
		return g, false
	}
	g.At, g.Dur = round3(g.At), round3(g.Dur)
	g.Factor, g.Value = round3(g.Factor), round3(g.Value)
	return g, true
}

func clamp(x, lo, hi float64) float64 {
	if hi < lo {
		hi = lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// --- pure environment functions -------------------------------------
//
// The emulation applies the schedule by sampling these closed-form
// functions at every change boundary, so the invariant checkers (which
// call the same functions) see exactly the capacity/loss/delay the run
// experienced — by construction, not by bookkeeping.

// RateAt returns the link capacity in Mbps at time t: the base rate
// (static, or the path model's prescription at t) multiplied by every
// active bandwidth segment's factor.
func (s Schedule) RateAt(sc Scenario, t float64) float64 {
	r := sc.baseMbpsAt(t)
	for _, g := range s.Segments {
		if !g.activeAt(t) {
			continue
		}
		switch g.Kind {
		case KindBWStep:
			r *= g.Factor
		case KindBWOsc:
			if int(math.Floor((t-g.At)/g.Value))%2 == 0 {
				r *= g.Factor
			}
		}
	}
	if r < floorLinkMbps {
		r = floorLinkMbps
	}
	return r
}

// LossAt returns the link's random loss probability at time t (the
// maximum over active loss bursts).
func (s Schedule) LossAt(t float64) float64 {
	p := 0.0
	for _, g := range s.Segments {
		if g.Kind == KindLossBurst && g.activeAt(t) && g.Value > p {
			p = g.Value
		}
	}
	if p > capLossProb {
		p = capLossProb
	}
	return p
}

// DelayAt returns the one-way propagation delay at time t: the base
// (including any path-model extra delay) plus every active delay
// spike.
func (s Schedule) DelayAt(sc Scenario, t float64) float64 {
	d := sc.baseDelayAt(t)
	extra := 0.0
	for _, g := range s.Segments {
		if g.Kind == KindDelaySpike && g.activeAt(t) {
			extra += g.Value
		}
	}
	if extra > capExtraDelay {
		extra = capExtraDelay
	}
	return d + extra
}

// QueueCapAt returns the bottleneck buffer in bytes at time t.
func (s Schedule) QueueCapAt(sc Scenario, t float64) int {
	f := 1.0
	for _, g := range s.Segments {
		if g.Kind == KindQueueResize && g.activeAt(t) {
			f *= g.Factor
		}
	}
	b := int(float64(sc.BufBytes) * f)
	if b < floorQueueBytes {
		b = floorQueueBytes
	}
	return b
}

// FaultPlan extracts the schedule's fault segments as a canonical
// chaos plan, and reports whether there were any. chaos.ApplySim puts
// the plan on the path whichever sender is the target, which is what
// lets a fault counterexample be re-verified against the engine.
func (s Schedule) FaultPlan() (chaos.Plan, bool) {
	var p chaos.Plan
	for _, g := range s.Segments {
		if !isFaultKind(g.Kind) {
			continue
		}
		p.Faults = append(p.Faults, chaos.Fault{
			Kind:  chaos.Kind(g.Kind),
			At:    g.At,
			Dur:   g.Dur,
			Value: g.Value,
		})
	}
	return p.Canonical(), len(p.Faults) > 0
}

// blackoutSettle is the grace the progress invariant grants after a
// blackout ends: the sender's watchdog must notice the path healed
// (probe cadence) and the RTO ladder unwind before throughput counts
// again.
const blackoutSettle = 3.0

// blackoutOverlaps reports whether a blackout or ack-path blackout —
// including its post-heal settling time — overlaps the window [a, b).
// Stalling while the path is destroyed is survival, not a bug.
func (s Schedule) blackoutOverlaps(a, b float64) bool {
	for _, g := range s.Segments {
		if g.Kind != KindBlackout && g.Kind != KindAckBlackout {
			continue
		}
		if g.At < b && g.end()+blackoutSettle > a {
			return true
		}
	}
	return false
}

// quietAfter returns the time after which no segment is active (the
// recovery invariant measures from here), floored at the warmup.
func (s Schedule) quietAfter(sc Scenario) float64 {
	q := sc.Warmup
	for _, g := range s.Segments {
		if g.end() > q {
			q = g.end()
		}
	}
	return q
}

// envOverlaps reports whether any environment (non-flow) segment
// overlaps the window [a, b).
func (s Schedule) envOverlaps(a, b float64) bool {
	for _, g := range s.Segments {
		if g.Kind == KindFlow {
			continue
		}
		if g.At < b && g.end() > a {
			return true
		}
	}
	return false
}

// boundaries returns, in order, the times in (0, Duration] at which the
// path's operating point may change: segment edges, oscillation
// half-periods, and — a path model makes the base itself time-varying —
// every model step, whether or not a segment is active there.
func (s Schedule) boundaries(sc Scenario) []float64 {
	boundaries := map[float64]struct{}{}
	addB := func(t float64) {
		if t > 0 && t <= sc.Duration {
			boundaries[t] = struct{}{}
		}
	}
	if sc.model != nil {
		for _, st := range pathmodel.Steps(sc.model, sc.Duration) {
			addB(st.At)
		}
	}
	for _, g := range s.Segments {
		if isFaultKind(g.Kind) || g.Kind == KindFlow {
			continue
		}
		addB(g.At)
		addB(g.end())
		if g.Kind == KindBWOsc {
			for t := g.At + g.Value; t < g.end(); t += g.Value {
				addB(t)
			}
		}
	}
	times := make([]float64, 0, len(boundaries))
	for t := range boundaries {
		times = append(times, t)
	}
	sort.Float64s(times)
	return times
}

// apply schedules the perturbations on a live simulation: start/stop
// events for competing flows, then one event per environment change
// boundary (each event re-derives the full link state from the pure
// functions above; fault segments go separately, via chaos.ApplySim).
// spawnFlow is called at a flow segment's start with the segment's index
// among flow segments; it returns a stop function invoked at the
// segment's end.
func (s Schedule) apply(sm *sim.Sim, sc Scenario, link *netem.Link, spawnFlow func(i int, g Segment) func()) {
	flowIdx := 0
	for _, g := range s.Segments {
		if g.Kind != KindFlow {
			continue
		}
		i := flowIdx
		seg := g
		flowIdx++
		sm.At(g.At, func() {
			stop := spawnFlow(i, seg)
			sm.At(seg.end(), stop)
		})
	}
	for _, t := range s.boundaries(sc) {
		t := t
		sm.At(t, func() {
			link.Rate = s.RateAt(sc, t) * 1e6 / 8
			link.LossProb = s.LossAt(t)
			link.PropDelay = s.DelayAt(sc, t)
			link.QueueCap = s.QueueCapAt(sc, t)
		})
	}
}
