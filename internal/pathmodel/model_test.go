package pathmodel

import (
	"math"
	"testing"

	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
)

// TestStepsDedup checks the step schedule collapses consecutive equal
// states and starts at t=0.
func TestStepsDedup(t *testing.T) {
	tr := &Trace{Step: 0.1, Points: []TracePoint{
		{T: 0, Mbps: 10}, {T: 1, Mbps: 10}, {T: 2, Mbps: 20},
	}}
	steps := Steps(tr, 3)
	if len(steps) != 2 {
		t.Fatalf("steps = %+v, want 2 entries (t=0 @10, t=2 @20)", steps)
	}
	if steps[0].At != 0 || steps[0].State.Mbps != 10 {
		t.Fatalf("step 0 = %+v", steps[0])
	}
	if steps[1].At != 2 || steps[1].State.Mbps != 20 {
		t.Fatalf("step 1 = %+v", steps[1])
	}
}

// TestGeneratorsDeterministic checks both bundled generators reproduce
// bitwise from their seed and respect their capacity envelopes.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gen    func(int64, float64) *Trace
		lo, hi float64
	}{
		{"lte", GenLTE, 0.5, 55},
		{"5g", Gen5G, 2, 250},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.gen(7, 30), tc.gen(7, 30)
			if len(a.Points) != len(b.Points) {
				t.Fatalf("lengths differ: %d vs %d", len(a.Points), len(b.Points))
			}
			for i := range a.Points {
				if a.Points[i] != b.Points[i] {
					t.Fatalf("row %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
				}
			}
			c := tc.gen(8, 30)
			same := true
			for i := range a.Points {
				if a.Points[i] != c.Points[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatal("different seeds produced identical traces")
			}
			for i, p := range a.Points {
				if p.Mbps < tc.lo || p.Mbps > tc.hi {
					t.Fatalf("row %d capacity %v outside [%v, %v]", i, p.Mbps, tc.lo, tc.hi)
				}
			}
		})
	}
}

// TestLEOModel checks the constellation's shape: pure StateAt, an
// outage window at every handover, per-pass capacity changes, and a
// delay arc bounded by the configured swing.
func TestLEOModel(t *testing.T) {
	m := DefaultLEO(3).withDefaults()
	if got, want := m.StateAt(31.7), m.StateAt(31.7); got != want {
		t.Fatalf("StateAt not pure: %+v vs %+v", got, want)
	}
	// Handover tail of each pass is down.
	for _, tt := range []float64{14.9, 29.9, 44.9} {
		if st := m.StateAt(tt); !st.Down {
			t.Fatalf("t=%v: not in outage: %+v", tt, st)
		}
	}
	for _, tt := range []float64{7.5, 14.8, 15.0, 22.5} {
		if st := m.StateAt(tt); st.Down {
			t.Fatalf("t=%v: unexpected outage", tt)
		}
	}
	// Successive passes draw different capacities.
	if a, b := m.StateAt(5).Mbps, m.StateAt(20).Mbps; a == b {
		t.Fatalf("pass capacities identical: %v", a)
	}
	// Delay arc: min mid-pass, within [BaseExtra, BaseExtra+SwingExtra].
	mid, edge := m.StateAt(7.5).ExtraDelay, m.StateAt(0.5).ExtraDelay
	if mid >= edge {
		t.Fatalf("delay arc inverted: mid %v >= edge %v", mid, edge)
	}
	for tt := 0.0; tt < 15; tt += 0.05 {
		st := m.StateAt(tt)
		if st.Down {
			continue
		}
		if st.ExtraDelay < m.BaseExtra-1e-9 || st.ExtraDelay > m.BaseExtra+m.SwingExtra+1e-9 {
			t.Fatalf("t=%v: delay %v outside envelope", tt, st.ExtraDelay)
		}
	}
}

// TestFaultPlanLEO checks outage windows extract as chaos blackouts:
// one per handover, with the configured duration.
func TestFaultPlanLEO(t *testing.T) {
	m := DefaultLEO(1)
	plan, has := FaultPlan(m, 46)
	if !has {
		t.Fatal("no faults extracted")
	}
	if len(plan.Faults) != 3 {
		t.Fatalf("faults = %+v, want 3 handovers in 46 s", plan.Faults)
	}
	for i, f := range plan.Faults {
		if f.Kind != chaos.KindBlackout {
			t.Fatalf("fault %d kind %q", i, f.Kind)
		}
		wantAt := 14.85 + 15*float64(i)
		if math.Abs(f.At-wantAt) > 1e-9 || math.Abs(f.Dur-0.15) > 1e-9 {
			t.Fatalf("fault %d = %+v, want at=%.2f dur=0.15", i, f, wantAt)
		}
	}
}

// TestValidateRejectsBadDelay checks the model boundary fails loudly on
// invalid prescribed delays.
func TestValidateRejectsBadDelay(t *testing.T) {
	tr := &Trace{Points: []TracePoint{{T: 0, Mbps: 10, ExtraDelay: math.NaN()}}}
	if err := Validate(tr, 1); err == nil {
		t.Fatal("NaN delay accepted")
	}
	s := sim.New(1)
	link := netem.NewLink(s, 10, 1<<20, 0.01)
	if err := ApplySim(s, link, tr, 1); err == nil {
		t.Fatal("ApplySim accepted NaN delay")
	}
}

// TestApplySimDrivesLink replays a trace on a sim link and checks the
// hardened setters applied the schedule: capacity follows the trace
// (with the floor clamp on the fade) and delay = base + extra.
func TestApplySimDrivesLink(t *testing.T) {
	tr := &Trace{Step: 0.1, Loop: false, Points: []TracePoint{
		{T: 0, Mbps: 10},
		{T: 1, Mbps: 0, ExtraDelay: 0.020}, // fade: clamps to floor
		{T: 2, Mbps: 40},
	}}
	s := sim.New(1)
	link := netem.NewLink(s, 99, 1<<20, 0.015)
	if err := ApplySim(s, link, tr, 3); err != nil {
		t.Fatal(err)
	}
	type probe struct{ rate, delay float64 }
	var at05, at15, at25 probe
	s.At(0.5, func() { at05 = probe{link.Rate, link.PropDelay} })
	s.At(1.5, func() { at15 = probe{link.Rate, link.PropDelay} })
	s.At(2.5, func() { at25 = probe{link.Rate, link.PropDelay} })
	s.Run(3)

	if at05.rate != 10*1e6/8 || at05.delay != 0.015 {
		t.Fatalf("t=0.5: %+v", at05)
	}
	if at15.rate != netem.MinRate || at15.delay != 0.035 {
		t.Fatalf("t=1.5: %+v, want floor rate %v and delay 0.035", at15, netem.MinRate)
	}
	if at25.rate != 40*1e6/8 || at25.delay != 0.015 {
		t.Fatalf("t=2.5: %+v", at25)
	}
}

// TestSpecBuild round-trips the spec forms.
func TestSpecBuild(t *testing.T) {
	if _, err := (Spec{Kind: "nope"}).Build(10); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := (Spec{Kind: "trace"}).Build(10); err == nil {
		t.Fatal("trace spec without path accepted")
	}
	m, err := Spec{Kind: "leo", Seed: 2, PeriodS: 10, OutageS: 0.2}.Build(60)
	if err != nil {
		t.Fatal(err)
	}
	leo, ok := m.(LEO)
	if !ok || leo.Period != 10 || leo.Outage != 0.2 {
		t.Fatalf("leo spec = %+v", m)
	}
	tr, err := Spec{Kind: "trace", Path: "testdata/cellular_golden.csv", Interp: "linear"}.Build(60)
	if err != nil {
		t.Fatal(err)
	}
	if tr.(*Trace).Mode != Linear {
		t.Fatal("interp not applied")
	}
	for _, kind := range []string{"lte", "5g"} {
		if _, err := ByName(kind, 3, 30); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// TestInstallDecidesSurvival checks the one place "can this path black
// out?" is decided: nothing to install arms nothing and schedules
// nothing; a model without outages still arms nothing; a model with
// outages, an injected plan, or both arm survival, and with both the
// link goes down in the model's windows and in the plan's.
func TestInstallDecidesSurvival(t *testing.T) {
	build := func() (*sim.Sim, *netem.Path) {
		s := sim.New(1)
		return s, &netem.Path{Link: netem.NewLink(s, 10, 1<<20, 0.01)}
	}
	s, path := build()
	if armed, err := Install(s, path, nil, nil, 20); armed || err != nil || s.Pending() != 0 {
		t.Fatalf("empty install: armed=%v err=%v pending=%d", armed, err, s.Pending())
	}
	steady := &Trace{Points: []TracePoint{{T: 0, Mbps: 5}}}
	s, path = build()
	if armed, err := Install(s, path, steady, nil, 20); armed || err != nil {
		t.Fatalf("outage-free model: armed=%v err=%v", armed, err)
	}
	s, path = build()
	if _, err := Install(s, path, &Trace{Points: []TracePoint{{T: 0, Mbps: 10, ExtraDelay: math.NaN()}}}, nil, 1); err == nil {
		t.Fatal("Install accepted a NaN delay")
	}

	extra := &chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.KindBlackout, At: 5, Dur: 1}}}
	for _, c := range []struct {
		name    string
		m       Model
		faults  *chaos.Plan
		downAt  []float64
		aliveAt []float64
	}{
		{"model outages", DefaultLEO(1), nil, []float64{14.9}, []float64{5.5, 16}},
		{"injected plan", nil, extra, []float64{5.5}, []float64{14.9, 16}},
		{"both", DefaultLEO(1), extra, []float64{5.5, 14.9}, []float64{4, 16}},
		{"empty injected plan", steady, &chaos.Plan{}, nil, []float64{5.5}},
	} {
		s, path := build()
		armed, err := Install(s, path, c.m, c.faults, 20)
		if !armed || err != nil {
			t.Fatalf("%s: armed=%v err=%v", c.name, armed, err)
		}
		check := func(at float64, want bool) {
			s.At(at, func() {
				if path.Link.Down != want {
					t.Errorf("%s: link down=%v at t=%v, want %v", c.name, path.Link.Down, at, want)
				}
			})
		}
		for _, at := range c.downAt {
			check(at, true)
		}
		for _, at := range c.aliveAt {
			check(at, false)
		}
		s.Run(20)
	}
}
