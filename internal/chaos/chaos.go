// Package chaos is the fault-injection model: a seeded, deterministic
// plan of path faults — link blackout, ack-path blackout, corruption,
// duplication, severe reordering, peer restart/rebind, clock jump —
// with one applier, ApplySim, that sets them on a netem link and path.
// The path carries the simulated transport's packets or, under
// engine.SimNet, the real datapath's datagrams, so any fault plan
// replays against both senders like the parity table, with the same
// loss and outage attribution counters.
//
// The model is pure: PathState(t) is a function of the plan alone, so
// the path's fault state at a step is derived from the plan's
// arithmetic rather than from accumulated mutations.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/trace"
)

// Kind names one fault type.
type Kind string

// Fault kinds. Interval faults are active on [At, At+Dur); restart is
// instantaneous at At.
const (
	// KindBlackout destroys all forward traffic and all acks for Dur.
	KindBlackout Kind = "blackout"
	// KindAckBlackout destroys only the reverse (ack) path for Dur:
	// data keeps arriving, nothing comes back.
	KindAckBlackout Kind = "ack-blackout"
	// KindCorrupt damages each packet in flight with probability Value.
	KindCorrupt Kind = "corrupt"
	// KindDuplicate duplicates each packet with probability Value.
	KindDuplicate Kind = "duplicate"
	// KindReorder releases each packet out of order with probability
	// Value, holding it Delay seconds extra.
	KindReorder Kind = "reorder"
	// KindPeerRestart models the peer process restarting at At: every
	// packet and ack in flight is flushed. (On the wire, a restarted
	// sender also rebinds to a fresh source port; the receiver's
	// per-source flow state makes that a fresh flow automatically.)
	KindPeerRestart Kind = "peer-restart"
	// KindClockJump offsets the receiver's clock stamps by Value
	// seconds for Dur — the sender's controller sees shifted arrival
	// stamps (one-way delays, ack-interval clocking) while its own
	// RTT clock is unaffected.
	KindClockJump Kind = "clock-jump"
)

// Bounds applied by Canonical. Probabilities cap at ½ (beyond that no
// transport is expected to make progress), reorder holds at a quarter
// second, clock jumps at ±5 s, and every interval fault lasts at least
// a millisecond so zero-length segments cannot hide in a plan.
const (
	MaxFaultProb    = 0.5
	MaxReorderDelay = 0.25
	MaxClockJump    = 5.0
	minFaultDur     = 0.001
)

// Fault is one scheduled fault.
type Fault struct {
	Kind  Kind    `json:"kind"`
	At    float64 `json:"at"`
	Dur   float64 `json:"dur,omitempty"`   // interval kinds; unused for peer-restart
	Value float64 `json:"value,omitempty"` // probability, or clock offset seconds
	Delay float64 `json:"delay,omitempty"` // reorder hold, seconds
}

// end returns the fault's deactivation time.
func (f Fault) end() float64 {
	if f.Kind == KindPeerRestart {
		return f.At
	}
	return f.At + f.Dur
}

// activeAt reports whether an interval fault covers time t.
func (f Fault) activeAt(t float64) bool {
	return f.Kind != KindPeerRestart && t >= f.At && t < f.end()
}

// String renders one fault compactly, e.g. "blackout@4.0s+2.0s".
func (f Fault) String() string {
	switch f.Kind {
	case KindPeerRestart:
		return fmt.Sprintf("%s@%.1fs", f.Kind, f.At)
	case KindClockJump:
		return fmt.Sprintf("%s@%.1fs+%.1fs %+.3fs", f.Kind, f.At, f.Dur, f.Value)
	case KindReorder:
		return fmt.Sprintf("%s@%.1fs+%.1fs p=%.2f d=%.0fms", f.Kind, f.At, f.Dur, f.Value, f.Delay*1e3)
	case KindCorrupt, KindDuplicate:
		return fmt.Sprintf("%s@%.1fs+%.1fs p=%.2f", f.Kind, f.At, f.Dur, f.Value)
	default:
		return fmt.Sprintf("%s@%.1fs+%.1fs", f.Kind, f.At, f.Dur)
	}
}

// Plan is a deterministic fault schedule. Seed, when non-zero, names
// the random stream the *appliers* use for per-packet draws; the plan
// itself contains no randomness.
type Plan struct {
	Seed   int64   `json:"seed,omitempty"`
	Faults []Fault `json:"faults"`
}

// String renders the plan for logs and counterexample output.
func (p Plan) String() string {
	if len(p.Faults) == 0 {
		return "no faults"
	}
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}

// PathState is the full fault state of a path at one instant — the
// value both worlds apply. The zero value is a healthy path.
type PathState struct {
	LinkDown     bool    // forward path destroyed
	AckDown      bool    // reverse path destroyed
	CorruptProb  float64 // per-packet corruption probability
	DupProb      float64 // per-packet duplication probability
	ReorderProb  float64 // per-packet out-of-order release probability
	ReorderDelay float64 // extra hold for reorder-selected packets
	ClockOffset  float64 // receiver stamp offset, seconds
}

// Healthy reports whether the state is fault-free.
func (st PathState) Healthy() bool { return st == PathState{} }

// StateAt derives the path's fault state at time t from the plan
// alone. Overlapping faults compose: probabilities and holds take the
// max, clock offsets sum, blackout implies ack blackout.
func (p Plan) StateAt(t float64) PathState {
	var st PathState
	for _, f := range p.Faults {
		if !f.activeAt(t) {
			continue
		}
		switch f.Kind {
		case KindBlackout:
			st.LinkDown = true
			st.AckDown = true
		case KindAckBlackout:
			st.AckDown = true
		case KindCorrupt:
			st.CorruptProb = math.Max(st.CorruptProb, f.Value)
		case KindDuplicate:
			st.DupProb = math.Max(st.DupProb, f.Value)
		case KindReorder:
			st.ReorderProb = math.Max(st.ReorderProb, f.Value)
			st.ReorderDelay = math.Max(st.ReorderDelay, f.Delay)
		case KindClockJump:
			st.ClockOffset += f.Value
		}
	}
	return st
}

// Step is one applier action: at At, either flush in-flight state
// (Restart) or set the path's fault state to State. Steps returns them
// time-ordered; both worlds execute the identical list.
type Step struct {
	At      float64
	Restart bool
	State   PathState
}

// Steps enumerates the plan's boundary events within [0, horizon):
// one state step per activation/deactivation edge (the state re-derived
// from StateAt, so overlapping faults compose correctly) plus one
// restart step per peer-restart.
func (p Plan) Steps(horizon float64) []Step {
	var times []float64
	for _, f := range p.Faults {
		if f.Kind == KindPeerRestart {
			continue
		}
		if f.At < horizon {
			times = append(times, f.At)
		}
		if e := f.end(); e < horizon {
			times = append(times, e)
		}
	}
	sort.Float64s(times)
	steps := make([]Step, 0, len(times)+2)
	last := -1.0
	for _, t := range times {
		if t == last {
			continue // coincident edges collapse into one step
		}
		last = t
		steps = append(steps, Step{At: t, State: p.StateAt(t)})
	}
	for _, f := range p.Faults {
		if f.Kind == KindPeerRestart && f.At < horizon {
			steps = append(steps, Step{At: f.At, Restart: true})
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	return steps
}

// Canonical returns the plan with every fault clamped to the model's
// bounds, quantized to milliseconds, and stably sorted — the normal
// form used for replay files and deduplication. Unknown kinds are
// dropped.
func (p Plan) Canonical() Plan {
	out := Plan{Seed: p.Seed}
	for _, f := range p.Faults {
		f.At = round3(math.Max(0, f.At))
		switch f.Kind {
		case KindPeerRestart:
			f.Dur, f.Value, f.Delay = 0, 0, 0
		case KindBlackout, KindAckBlackout:
			f.Dur = round3(math.Max(minFaultDur, f.Dur))
			f.Value, f.Delay = 0, 0
		case KindCorrupt, KindDuplicate:
			f.Dur = round3(math.Max(minFaultDur, f.Dur))
			f.Value = round3(clamp(f.Value, 0, MaxFaultProb))
			f.Delay = 0
		case KindReorder:
			f.Dur = round3(math.Max(minFaultDur, f.Dur))
			f.Value = round3(clamp(f.Value, 0, MaxFaultProb))
			f.Delay = round3(clamp(f.Delay, 0, MaxReorderDelay))
		case KindClockJump:
			f.Dur = round3(math.Max(minFaultDur, f.Dur))
			f.Value = round3(clamp(f.Value, -MaxClockJump, MaxClockJump))
			f.Delay = 0
		default:
			continue
		}
		out.Faults = append(out.Faults, f)
	}
	sort.SliceStable(out.Faults, func(i, j int) bool {
		a, b := out.Faults[i], out.Faults[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Dur < b.Dur
	})
	return out
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ApplySim schedules the plan onto a simulated link and path: one sim
// event per step, setting the netem fault fields (or flushing in-flight
// state for a restart) and emitting a flight-recorder Fault event per
// transition so outage windows are visible on trace timelines.
func ApplySim(s *sim.Sim, link *netem.Link, path *netem.Path, p Plan, horizon float64) {
	p = p.Canonical()
	prev := PathState{}
	for _, step := range p.Steps(horizon) {
		step := step
		if step.Restart {
			s.At(step.At, func() {
				link.Flush()
				path.Flush()
				s.Trace().Tracer(0).Fault(step.At, string(KindPeerRestart), 1, 0)
			})
			continue
		}
		from := prev
		prev = step.State
		s.At(step.At, func() {
			st := step.State
			link.Down = st.LinkDown
			link.CorruptProb = st.CorruptProb
			link.DupProb = st.DupProb
			link.ReorderProb = st.ReorderProb
			link.ReorderDelay = st.ReorderDelay
			path.AckDown = st.AckDown
			path.StampOffset = st.ClockOffset
			traceTransition(s.Trace().Tracer(0), step.At, from, st)
		})
	}
}

// FaultEvent is one field-level fault transition — what gets stamped
// onto a trace timeline when a step applies.
type FaultEvent struct {
	Name   string
	Active float64 // 1 on activation, 0 on clearance
	Value  float64 // probability / offset after the transition
}

// Transitions lists the field-level changes between two path states.
// Both worlds emit exactly this list per step, so sim and wire traces
// carry identical fault timelines for the same plan.
func Transitions(from, to PathState) []FaultEvent {
	var evs []FaultEvent
	if from.LinkDown != to.LinkDown {
		evs = append(evs, FaultEvent{string(KindBlackout), b2f(to.LinkDown), 0})
	}
	if from.AckDown != to.AckDown && !(from.LinkDown || to.LinkDown) {
		evs = append(evs, FaultEvent{string(KindAckBlackout), b2f(to.AckDown), 0})
	}
	if from.CorruptProb != to.CorruptProb {
		evs = append(evs, FaultEvent{string(KindCorrupt), b2f(to.CorruptProb > 0), to.CorruptProb})
	}
	if from.DupProb != to.DupProb {
		evs = append(evs, FaultEvent{string(KindDuplicate), b2f(to.DupProb > 0), to.DupProb})
	}
	if from.ReorderProb != to.ReorderProb {
		evs = append(evs, FaultEvent{string(KindReorder), b2f(to.ReorderProb > 0), to.ReorderProb})
	}
	if from.ClockOffset != to.ClockOffset {
		evs = append(evs, FaultEvent{string(KindClockJump), b2f(to.ClockOffset != 0), to.ClockOffset})
	}
	return evs
}

// traceTransition emits one Fault event per field that changed between
// two path states.
func traceTransition(tr trace.Tracer, now float64, from, to PathState) {
	for _, ev := range Transitions(from, to) {
		tr.Fault(now, ev.Name, ev.Active, ev.Value)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
