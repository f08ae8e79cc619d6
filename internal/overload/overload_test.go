package overload

import (
	"math"
	"testing"
)

func TestClassOf(t *testing.T) {
	cases := map[string]Class{
		"proteus-s":  ClassScavenger,
		"Proteus-S":  ClassScavenger,
		"ledbat":     ClassScavenger,
		"ledbat-25":  ClassScavenger,
		"bbr-s":      ClassScavenger,
		"copa-s":     ClassScavenger, // suffix convention
		"proteus-p":  ClassPrimary,
		"proteus-h":  ClassPrimary,
		"cubic":      ClassPrimary,
		"bbr":        ClassPrimary,
		"bbr2":       ClassPrimary,
		"vivace":     ClassPrimary,
		"fixed:20":   ClassPrimary,
		"":           ClassPrimary, // unknown defaults to primary
		"mystery-cc": ClassPrimary,
	}
	for proto, want := range cases {
		if got := ClassOf(proto); got != want {
			t.Errorf("ClassOf(%q) = %v, want %v", proto, got, want)
		}
	}
}

func TestPressureIsMaxOfSignals(t *testing.T) {
	cases := []struct {
		sig  Signals
		want float64
	}{
		{Signals{}, 0},
		{Signals{FlowOccupancy: 0.5}, 0.5},
		{Signals{FlowOccupancy: 0.5, TxBacklog: 0.9}, 0.9},
		{Signals{RxSaturation: 0.97}, 0.97},
		{Signals{SendErrStreak: 8}, 0.5},  // 8/16
		{Signals{SendErrStreak: 32}, 1.0}, // clamped
		{Signals{FlowOccupancy: 7}, 1.0},  // clamped
		{Signals{FlowOccupancy: math.NaN()}, 0},
		{Signals{FlowOccupancy: -1}, 0},
	}
	for _, c := range cases {
		if got := pressure(c.sig); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("pressure(%+v) = %v, want %v", c.sig, got, c.want)
		}
	}
}

func TestDetectorFullCycle(t *testing.T) {
	d := NewDetector(Config{})
	if d.State() != StateNormal {
		t.Fatalf("initial state %v", d.State())
	}
	// Calm traffic: stays Normal.
	if st := d.Update(0, Signals{FlowOccupancy: 0.3}); st != StateNormal {
		t.Fatalf("calm → %v", st)
	}
	// Sustained pressure above brownout but below shed.
	if st := d.Update(1, Signals{FlowOccupancy: 0.90}); st != StateBrownout {
		t.Fatalf("0.90 occupancy → %v, want brownout", st)
	}
	if d.State().AdmitScavenger() {
		t.Fatal("brownout must refuse new scavengers")
	}
	if d.State().Shedding() {
		t.Fatal("brownout must not shed")
	}
	// Acute pressure: shed.
	if st := d.Update(2, Signals{FlowOccupancy: 0.99}); st != StateShed {
		t.Fatalf("0.99 occupancy → %v, want shed", st)
	}
	if !d.State().Shedding() {
		t.Fatal("shed state must shed")
	}
	// Pressure falls below the recover threshold: recovery begins,
	// scavenger admission still closed.
	if st := d.Update(3, Signals{FlowOccupancy: 0.4}); st != StateRecover {
		t.Fatalf("post-shed calm → %v, want recover", st)
	}
	if d.State().AdmitScavenger() {
		t.Fatal("recover must still refuse new scavengers")
	}
	// Hold not yet elapsed: still recovering.
	if st := d.Update(3.5, Signals{FlowOccupancy: 0.4}); st != StateRecover {
		t.Fatalf("mid-hold → %v", st)
	}
	// Hold elapsed: normal, admission reopens.
	if st := d.Update(4.1, Signals{FlowOccupancy: 0.4}); st != StateNormal {
		t.Fatalf("post-hold → %v, want normal", st)
	}
	if !d.State().AdmitScavenger() {
		t.Fatal("normal must admit scavengers")
	}
}

func TestDetectorHysteresisBandRestartsHold(t *testing.T) {
	d := NewDetector(Config{})
	d.Update(0, Signals{FlowOccupancy: 0.99}) // shed
	d.Update(1, Signals{FlowOccupancy: 0.5})  // recover, belowSince=1
	// Pressure climbs back into the band (0.70..0.85): hold restarts.
	d.Update(1.5, Signals{FlowOccupancy: 0.75})
	if st := d.Update(2.2, Signals{FlowOccupancy: 0.5}); st != StateRecover {
		t.Fatalf("hold did not restart: %v", st)
	}
	// A full hold after the band excursion matures to Normal.
	if st := d.Update(3.3, Signals{FlowOccupancy: 0.5}); st != StateNormal {
		t.Fatalf("matured state %v, want normal", st)
	}
}

func TestDetectorRecoverReEscalates(t *testing.T) {
	d := NewDetector(Config{})
	d.Update(0, Signals{FlowOccupancy: 0.99})
	d.Update(1, Signals{FlowOccupancy: 0.5})
	if st := d.Update(1.2, Signals{FlowOccupancy: 0.99}); st != StateShed {
		t.Fatalf("recover under renewed flood → %v, want shed", st)
	}
	d.Update(2, Signals{FlowOccupancy: 0.5})
	if st := d.Update(2.2, Signals{FlowOccupancy: 0.90}); st != StateBrownout {
		t.Fatalf("recover under medium pressure → %v, want brownout", st)
	}
}

func TestDetectorErrStreakAloneSheds(t *testing.T) {
	// Buffer exhaustion with an empty flow table must still trip the
	// machine: ENOBUFS streaks are full-strength pressure.
	d := NewDetector(Config{})
	if st := d.Update(0, Signals{FlowOccupancy: 0.1, SendErrStreak: errStreak}); st != StateShed {
		t.Fatalf("errstreak → %v, want shed", st)
	}
	if st := d.Update(1, Signals{FlowOccupancy: 0.1, SendErrStreak: 0}); st != StateRecover {
		t.Fatalf("streak cleared → %v, want recover", st)
	}
}

func TestConfigDefaultOrderings(t *testing.T) {
	// The state machine depends on recoverAt < brownoutAt ≤ shedAt.
	if !(recoverAt < brownoutAt && brownoutAt <= shedAt) {
		t.Fatalf("thresholds out of order: recover %v brownout %v shed %v", recoverAt, brownoutAt, shedAt)
	}
}

func TestPlanCanonical(t *testing.T) {
	p := Plan{Phases: []Phase{
		{Kind: KindAckStarve, At: 5.0004, Dur: 0, Flows: 10},
		{Kind: KindFlood, At: -1, Dur: 2, Flows: 100},
		{Kind: PhaseKind("bogus"), At: 1, Dur: 1, Flows: 5},
		{Kind: KindFlood, At: 3, Dur: 1, Flows: 0}, // dropped: no flows
	}}
	c := p.Canonical()
	if len(c.Phases) != 2 {
		t.Fatalf("canonical kept %d phases, want 2: %v", len(c.Phases), c)
	}
	if c.Phases[0].Kind != KindFlood || c.Phases[0].At != 0 {
		t.Fatalf("order/clamp wrong: %v", c.Phases[0])
	}
	if c.Phases[1].At != 5.0 || c.Phases[1].Dur != 0.001 {
		t.Fatalf("quantize/floor wrong: %+v", c.Phases[1])
	}
	if got := c.String(); got == "" || got == "no load" {
		t.Fatalf("String = %q", got)
	}
	if (Plan{}).String() != "no load" {
		t.Fatal("empty plan String")
	}
}
