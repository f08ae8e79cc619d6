package adversary

import (
	"math"
	"path/filepath"
	"testing"
)

// TestGoldenCorpusReplays re-runs every checked-in counterexample and
// verifies the recorded verdict still reproduces: same invariant, still
// violated, margin unchanged to floating-point noise. A failure here
// means a controller, the emulation, or an invariant tunable changed
// behavior — either fix the regression or re-hunt and re-record the
// corpus (and bump CounterexampleVersion if the contract moved).
func TestGoldenCorpusReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay re-runs full simulations")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden counterexamples in testdata/")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			t.Parallel()
			ce, vs, err := ReplayFile(f)
			if err != nil {
				t.Fatal(err)
			}
			got := findVerdict(vs, ce.Verdict.Invariant)
			if !got.Violated() {
				t.Fatalf("recorded violation of %q no longer reproduces: %s", ce.Verdict.Invariant, got)
			}
			if math.Abs(got.Margin-ce.Verdict.Margin) > 1e-9 {
				t.Fatalf("margin drifted: recorded %v, replayed %v", ce.Verdict.Margin, got.Margin)
			}
		})
	}
}

func TestCounterexampleRoundTrip(t *testing.T) {
	ce := &Counterexample{
		Version:  CounterexampleVersion,
		Scenario: testScenario("cubic"),
		Seed:     3,
		Schedule: Schedule{Segments: []Segment{{Kind: KindDelaySpike, At: 10, Dur: 4, Value: 0.25}}},
		Verdict:  Verdict{Invariant: "progress", Margin: -0.5, Detail: "x"},
		Fitness:  -0.5,
	}
	path := filepath.Join(t.TempDir(), "ce.json")
	if err := ce.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCounterexample(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != ce.Seed || !schedulesEqual(back.Schedule, ce.Schedule) || back.Verdict != ce.Verdict {
		t.Fatalf("round trip mangled the counterexample: %+v vs %+v", back, ce)
	}
}

func TestReadCounterexampleRejectsWrongVersion(t *testing.T) {
	ce := &Counterexample{
		Version:  CounterexampleVersion + 1,
		Scenario: testScenario("cubic"),
		Seed:     1,
	}
	path := filepath.Join(t.TempDir(), "ce.json")
	if err := ce.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCounterexample(path); err == nil {
		t.Fatal("wrong-version replay file accepted")
	}
}

// TestReplayWireRepeats runs a schedule with a capacity step, a competing
// flow and a blackout against an engine flow, twice: the replay is 1:1 in
// virtual time, so both runs print the same bytes, and the capacity the
// verdict is judged against is the schedule's own.
func TestReplayWireRepeats(t *testing.T) {
	sc := testScenario("proteus-p")
	sc.LinkMbps, sc.BufBytes = 10, 75000 // a quarter of the packets: this runs under -race -count=3
	ce := &Counterexample{
		Version:  CounterexampleVersion,
		Scenario: sc,
		Seed:     3,
		Schedule: Schedule{Segments: []Segment{
			{Kind: KindBWStep, At: 12, Dur: 6, Factor: 0.5},
			{Kind: KindFlow, At: 14, Dur: 5, Proto: "cubic"},
			{Kind: KindBlackout, At: 22, Dur: 1},
		}},
	}
	a, err := ReplayWire(ce)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayWire(ce)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("two replays differ:\n%s\n%s", a.Render(), b.Render())
	}
	var step Segment // as canonicalised: the scenario leaves little room
	for _, g := range a.Schedule.Segments {
		if g.Kind == KindBWStep {
			step = g
		}
	}
	if want := sc.LinkMbps * (1 - (1-step.Factor)*step.Dur/sc.Duration); step.Dur == 0 || math.Abs(a.CapacityMbps-want) > 1e-9 {
		t.Fatalf("capacity integral %.6f Mbps, the schedule's is %.6f", a.CapacityMbps, want)
	}
	if !a.OK() || len(a.Verdicts) != 3 || a.Verdicts[0].Invariant != "wire-capacity" ||
		a.Verdicts[1].Invariant != "wire-progress" || a.Verdicts[2].Invariant != "wire-finite" {
		t.Fatalf("verdicts:\n%s", a.Render())
	}
	r := a.Result
	if a.Link.FaultDrop == 0 || r.Flow.WatchdogTrips != 1 || r.Flow.Recoveries != 1 || a.Link.Enqueued <= r.Recv.Delivered {
		t.Fatalf("the blackout or the competitor left no mark:\n%s%+v", a.Render(), r.Flow)
	}
}
