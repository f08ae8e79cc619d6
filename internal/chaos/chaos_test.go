package chaos

import (
	"reflect"
	"testing"
)

func TestStateAtComposition(t *testing.T) {
	p := Plan{Faults: []Fault{
		{Kind: KindBlackout, At: 2, Dur: 2},
		{Kind: KindCorrupt, At: 1, Dur: 4, Value: 0.1},
		{Kind: KindCorrupt, At: 3, Dur: 4, Value: 0.3},
		{Kind: KindClockJump, At: 0, Dur: 10, Value: 1.5},
		{Kind: KindClockJump, At: 5, Dur: 10, Value: -0.5},
	}}
	if st := p.StateAt(0.5); st.LinkDown || st.CorruptProb != 0 || st.ClockOffset != 1.5 {
		t.Fatalf("t=0.5: %+v", st)
	}
	// Blackout implies ack blackout; overlapping corrupts take the max.
	st := p.StateAt(3.5)
	if !st.LinkDown || !st.AckDown {
		t.Fatalf("t=3.5: blackout must imply AckDown: %+v", st)
	}
	if st.CorruptProb != 0.3 {
		t.Fatalf("t=3.5: CorruptProb=%v want max 0.3", st.CorruptProb)
	}
	// Clock offsets sum.
	if st := p.StateAt(6); st.ClockOffset != 1.0 {
		t.Fatalf("t=6: ClockOffset=%v want 1.0", st.ClockOffset)
	}
	// Interval is half-open: [At, At+Dur).
	if st := p.StateAt(4); st.LinkDown {
		t.Fatalf("t=4: blackout over at its end time: %+v", st)
	}
	if !p.StateAt(20).Healthy() {
		t.Fatal("past every fault the path must be healthy")
	}
}

func TestCanonicalClampsAndSorts(t *testing.T) {
	p := Plan{Seed: 7, Faults: []Fault{
		{Kind: KindReorder, At: 5.00049, Dur: 1, Value: 0.9, Delay: 0.5},
		{Kind: KindCorrupt, At: -1, Dur: 0, Value: 2},
		{Kind: KindClockJump, At: 2, Dur: 1, Value: -9},
		{Kind: Kind("bogus"), At: 1, Dur: 1},
		{Kind: KindPeerRestart, At: 3, Dur: 4, Value: 5, Delay: 6},
	}}
	c := p.Canonical()
	if len(c.Faults) != 4 {
		t.Fatalf("unknown kind must be dropped: %v", c.Faults)
	}
	// Sorted by At; fields clamped and quantized.
	if c.Faults[0].Kind != KindCorrupt || c.Faults[0].At != 0 || c.Faults[0].Value != MaxFaultProb || c.Faults[0].Dur != minFaultDur {
		t.Fatalf("corrupt not clamped: %+v", c.Faults[0])
	}
	if c.Faults[1].Kind != KindClockJump || c.Faults[1].Value != -MaxClockJump {
		t.Fatalf("clock jump not clamped: %+v", c.Faults[1])
	}
	if c.Faults[2].Kind != KindPeerRestart || c.Faults[2].Dur != 0 || c.Faults[2].Value != 0 {
		t.Fatalf("restart must zero interval fields: %+v", c.Faults[2])
	}
	re := c.Faults[3]
	if re.Value != MaxFaultProb || re.Delay != MaxReorderDelay || re.At != 5.0 {
		t.Fatalf("reorder not clamped/quantized: %+v", re)
	}
	// Canonical is idempotent.
	if !reflect.DeepEqual(c, c.Canonical()) {
		t.Fatalf("not idempotent:\n%v\n%v", c, c.Canonical())
	}
	if c.Seed != 7 {
		t.Fatal("seed must survive canonicalization")
	}
}

func TestStepsDeterministic(t *testing.T) {
	p := Plan{Faults: []Fault{
		{Kind: KindBlackout, At: 2, Dur: 2},
		{Kind: KindCorrupt, At: 2, Dur: 3, Value: 0.2}, // coincident start edge
		{Kind: KindPeerRestart, At: 3},
	}}
	steps := p.Steps(10)
	// Edges at 2 (blackout+corrupt on), 4 (blackout off), 5 (corrupt
	// off), plus the restart at 3.
	if len(steps) != 4 {
		t.Fatalf("steps=%v", steps)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].At < steps[i-1].At {
			t.Fatalf("steps out of order: %v", steps)
		}
	}
	for _, st := range steps {
		if st.Restart {
			if st.At != 3 {
				t.Fatalf("restart step at %v", st.At)
			}
			continue
		}
		if want := p.StateAt(st.At); st.State != want {
			t.Fatalf("step@%v state %+v want %+v", st.At, st.State, want)
		}
	}
	// The final state step returns the path to health.
	last := steps[len(steps)-1]
	if last.Restart || !last.State.Healthy() {
		t.Fatalf("last step must clear all faults: %+v", last)
	}
	// Horizon cuts edges beyond it: only the coincident activation at
	// t=2 survives a horizon of 2.5.
	if got := len(p.Steps(2.5)); got != 1 {
		t.Fatalf("horizon-cut steps = %d want 1: %v", got, p.Steps(2.5))
	}
	// Determinism: equal plans yield identical step lists.
	if !reflect.DeepEqual(steps, p.Steps(10)) {
		t.Fatal("Steps must be deterministic")
	}
}

func TestTransitions(t *testing.T) {
	evs := Transitions(PathState{}, PathState{LinkDown: true, AckDown: true})
	if len(evs) != 1 || evs[0].Name != string(KindBlackout) || evs[0].Active != 1 {
		t.Fatalf("blackout activation must suppress the implied ack event: %v", evs)
	}
	evs = Transitions(PathState{LinkDown: true, AckDown: true}, PathState{})
	if len(evs) != 1 || evs[0].Active != 0 {
		t.Fatalf("blackout clearance: %v", evs)
	}
	evs = Transitions(PathState{}, PathState{AckDown: true, CorruptProb: 0.2, ClockOffset: 1})
	names := map[string]bool{}
	for _, e := range evs {
		names[e.Name] = true
	}
	if len(evs) != 3 || !names[string(KindAckBlackout)] || !names[string(KindCorrupt)] || !names[string(KindClockJump)] {
		t.Fatalf("field transitions: %v", evs)
	}
	if len(Transitions(PathState{CorruptProb: 0.2}, PathState{CorruptProb: 0.2})) != 0 {
		t.Fatal("no-change must emit nothing")
	}
}
