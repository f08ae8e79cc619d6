// Package pathmodel is the scenario-model subsystem: composable
// time-varying path models — trace-driven cellular channels (with
// bundled synthetic LTE and 5G generators), a LEO-satellite handover
// model, and a datacenter incast descriptor — that drive netem link
// stages, under the simulated transport and, on an engine.SimNet, under
// the real datapath alike.
//
// A Model is a pure function of time: StateAt(t) returns the
// prescribed capacity, extra one-way delay, and outage flag at t, with
// no internal mutation, so appliers, validators and invariant checkers
// derive the path's condition from the same arithmetic. Steps samples
// that function at the model's native interval and collapses
// consecutive identical states into a deduplicated step schedule;
// ApplySim replays the schedule as sim events through the hardened
// netem boundary (Link.SetRateMbps's documented capacity floor,
// Link.SetPropDelay's delay validation). Outage (Down) windows are not
// applied directly: FaultPlan extracts them as chaos blackout faults so
// they ride chaos.ApplySim and compose with any user-supplied fault
// plan by fault-list concatenation.
package pathmodel

import (
	"fmt"
	"math"

	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
)

// State is the path condition a model prescribes at one instant.
type State struct {
	Mbps       float64 // bottleneck capacity
	ExtraDelay float64 // extra one-way forward delay, seconds
	Down       bool    // outage: the whole path is dead (handover, eclipse)
}

// Model is a deterministic time-varying path model. StateAt must be a
// pure function of t — appliers, validators, and invariant checkers
// all sample it independently and must see the same path.
type Model interface {
	Name() string
	// Interval is the model's native step resolution in seconds: the
	// sampling grid Steps enumerates on.
	Interval() float64
	StateAt(t float64) State
}

// Step is one entry of a model's deduplicated step schedule.
type Step struct {
	At    float64
	State State
}

// FloorMbps is netem's documented capacity floor expressed in Mbps;
// capacity samples below it (deep fades, degenerate traces) clamp here
// before they reach a link.
const FloorMbps = netem.MinRate * 8 / 1e6

// ClampMbps applies the capacity floor to one sample: NaN and anything
// below FloorMbps become FloorMbps (mirroring netem.Link.SetRate).
func ClampMbps(mbps float64) float64 {
	if math.IsNaN(mbps) || mbps < FloorMbps {
		return FloorMbps
	}
	return mbps
}

// Steps samples the model on its native interval over [0, horizon] and
// returns the deduplicated step schedule: the state at t=0 plus one
// step per sample where the (floor-clamped) state differs from the
// previous sample.
func Steps(m Model, horizon float64) []Step {
	dt := m.Interval()
	if dt <= 0 {
		dt = 0.1
	}
	var out []Step
	for i := 0; ; i++ {
		t := float64(i) * dt
		if t > horizon {
			break
		}
		st := m.StateAt(t)
		st.Mbps = ClampMbps(st.Mbps)
		if i == 0 || st != out[len(out)-1].State {
			out = append(out, Step{At: t, State: st})
		}
	}
	return out
}

// Validate checks every step the model would apply over the horizon
// through the netem model boundary: NaN, infinite, or negative extra
// delays are rejected with an error (capacities need no check — the
// floor clamp handles degenerate samples by construction).
func Validate(m Model, horizon float64) error {
	for _, st := range Steps(m, horizon) {
		d := st.State.ExtraDelay
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return fmt.Errorf("pathmodel: model %q prescribes invalid extra delay %v at t=%.3f",
				m.Name(), d, st.At)
		}
	}
	return nil
}

// ApplySim replays the model's capacity and delay schedule on a live
// simulation: one event per step, each re-deriving the link state
// through the hardened netem setters. The link's propagation delay at
// call time is taken as the base the model's extra delay adds to.
// Outage windows are not applied here — extract them with FaultPlan
// and apply through chaos.ApplySim so ack paths and survival accounting
// behave exactly as chaos blackouts do.
func ApplySim(s *sim.Sim, link *netem.Link, m Model, horizon float64) error {
	if err := Validate(m, horizon); err != nil {
		return err
	}
	base := link.PropDelay
	apply := func(st State) {
		link.SetRateMbps(st.Mbps)
		// Validate guaranteed the delay; the hardened setter cannot
		// fail here, but keep the boundary honest anyway.
		if err := link.SetPropDelay(base + st.ExtraDelay); err != nil {
			panic(err)
		}
	}
	for _, step := range Steps(m, horizon) {
		st := step.State
		if step.At <= s.Now() {
			apply(st)
			continue
		}
		s.At(step.At, func() { apply(st) })
	}
	return nil
}

// Install puts a time-varying path on a live simulation, and is the one
// place that decides when senders need their survival machinery: the
// model's rate/delay schedule goes on through ApplySim, its outage
// windows — merged with an injected fault plan, if any — through
// chaos.ApplySim, and survival reports whether anything rode the chaos
// executor, which is when every sender on the path must run with
// transport.Sender.Survival set. Either of m and faults may be nil.
func Install(s *sim.Sim, path *netem.Path, m Model, faults *chaos.Plan, horizon float64) (survival bool, err error) {
	var plan chaos.Plan
	if faults != nil {
		plan, survival = *faults, true
	}
	if m != nil {
		if err := ApplySim(s, path.Link, m, horizon); err != nil {
			return false, err
		}
		if outages, ok := FaultPlan(m, horizon); ok {
			if survival {
				outages = MergePlans(plan, outages)
			}
			plan, survival = outages, true
		}
	}
	if survival {
		chaos.ApplySim(s, path.Link, path, plan, horizon)
	}
	return survival, nil
}

// FaultPlan extracts the model's outage windows over the horizon as a
// canonical chaos blackout plan, and reports whether there are any.
// Compose with a user fault plan by concatenating fault lists — the
// chaos model's StateAt already merges overlapping faults.
func FaultPlan(m Model, horizon float64) (chaos.Plan, bool) {
	var p chaos.Plan
	steps := Steps(m, horizon)
	downAt := math.NaN()
	for _, st := range steps {
		switch {
		case st.State.Down && math.IsNaN(downAt):
			downAt = st.At
		case !st.State.Down && !math.IsNaN(downAt):
			p.Faults = append(p.Faults, chaos.Fault{
				Kind: chaos.KindBlackout, At: downAt, Dur: st.At - downAt,
			})
			downAt = math.NaN()
		}
	}
	if !math.IsNaN(downAt) {
		p.Faults = append(p.Faults, chaos.Fault{
			Kind: chaos.KindBlackout, At: downAt, Dur: horizon - downAt,
		})
	}
	return p.Canonical(), len(p.Faults) > 0
}

// MeanMbps is the time-weighted mean capacity the model prescribes
// over [0, horizon], counting outage windows as zero capacity — the
// honest utilization/yield denominator for a time-varying bottleneck.
func MeanMbps(m Model, horizon float64) float64 {
	steps := Steps(m, horizon)
	if len(steps) == 0 || horizon <= 0 {
		return 0
	}
	sum := 0.0
	for i, st := range steps {
		end := horizon
		if i+1 < len(steps) {
			end = steps[i+1].At
		}
		if !st.State.Down {
			sum += st.State.Mbps * (end - st.At)
		}
	}
	return sum / horizon
}

// MergePlans concatenates two fault plans into one canonical plan,
// keeping the seed of the first non-zero-seeded input.
func MergePlans(a, b chaos.Plan) chaos.Plan {
	out := chaos.Plan{Seed: a.Seed}
	if out.Seed == 0 {
		out.Seed = b.Seed
	}
	out.Faults = append(append([]chaos.Fault(nil), a.Faults...), b.Faults...)
	return out.Canonical()
}

// splitmix64 is the per-index parameter hash the stochastic models use
// in place of sequential RNG state, keeping StateAt a pure function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a splitmix64 output to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
