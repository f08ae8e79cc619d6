package exp

import (
	"math"
	"reflect"
	"testing"

	"pccproteus/internal/sim"
)

// TestBBR2Registered is the registration smoke for the bbr2 baseline:
// the protocol constant resolves through the registry used by every
// figure and by the wire harness.
func TestBBR2Registered(t *testing.T) {
	s := sim.New(1)
	cc := NewController(s, ProtoBBR2)
	if cc.Name() != "bbr2" {
		t.Fatalf("registry returned %q for %q", cc.Name(), ProtoBBR2)
	}
}

// TestSatelliteHandoverSurvival is the acceptance gate: on the LEO
// constellation model, Proteus-S must re-attain ≥80% of its
// pre-handover rate (capped by the new pass's capacity) within 3 s of
// every handover micro-blackout, in every trial.
func TestSatelliteHandoverSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("satellite survival gate skipped in -short")
	}
	tb := SatelliteSurvival(Options{Fast: true, Trials: 2}, []string{ProtoProteusS})
	if len(tb.Rows) != 1 || tb.Rows[0].XName != ProtoProteusS {
		t.Fatalf("rows = %+v", tb.Rows)
	}
	cells := tb.Rows[0].Cells // Mbps, pre, post, recov%, surv%
	if cells[4] != 100 {
		t.Fatalf("proteus-s survived only %.0f%% of trials (row %v)", cells[4], cells)
	}
	if cells[3] < 80 {
		t.Fatalf("proteus-s mean worst-case recovery %.1f%% < 80%% (row %v)", cells[3], cells)
	}
	if cells[0] <= 0 || cells[1] <= 0 || cells[2] <= 0 {
		t.Fatalf("implausible throughput cells %v", cells)
	}
}

// TestIncastFairnessTable checks the incast figure: every protocol —
// including the bbr2 baseline — produces a full row with goodput, a
// Jain index in (0, 1], and ordered FCT percentiles, and the table is
// bit-reproducible at a fixed seed.
func TestIncastFairnessTable(t *testing.T) {
	if testing.Short() {
		t.Skip("incast table skipped in -short")
	}
	protos := []string{ProtoCubic, ProtoBBR2, ProtoProteusS}
	tb := IncastFairness(Options{Fast: true, Trials: 1}, protos)
	if len(tb.Rows) != len(protos) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(protos))
	}
	sawBBR2 := false
	for _, r := range tb.Rows {
		if r.XName == ProtoBBR2 {
			sawBBR2 = true
		}
		goodput, jain, p50, p99 := r.Cells[0], r.Cells[1], r.Cells[2], r.Cells[3]
		if goodput <= 0 || math.IsNaN(goodput) {
			t.Fatalf("%s: goodput %v", r.XName, goodput)
		}
		if jain <= 0 || jain > 1+1e-9 {
			t.Fatalf("%s: Jain index %v outside (0,1]", r.XName, jain)
		}
		if p50 <= 0 || p99 < p50 {
			t.Fatalf("%s: FCT percentiles p50=%v p99=%v", r.XName, p50, p99)
		}
	}
	if !sawBBR2 {
		t.Fatal("bbr2 missing from the incast table")
	}
	again := IncastFairness(Options{Fast: true, Trials: 1}, protos)
	if !reflect.DeepEqual(tb, again) {
		t.Fatal("incast table not reproducible at a fixed seed")
	}
}

// TestCellularFigures runs reduced cellular solo and yield tables on
// both bundled generators and checks shape, finiteness, and seed
// reproducibility.
func TestCellularFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("cellular figures skipped in -short")
	}
	o := Options{Fast: true, Trials: 1, Duration: 20}
	for _, model := range []string{"lte", "5g"} {
		tb, err := CellularSolo(o, []string{ProtoProteusS, ProtoBBR2}, model)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) != 2 {
			t.Fatalf("%s: rows = %+v", model, tb.Rows)
		}
		for _, r := range tb.Rows {
			if r.Cells[0] <= 0 || math.IsNaN(r.Cells[0]) || r.Cells[1] <= 0 {
				t.Fatalf("%s %s: cells %v", model, r.XName, r.Cells)
			}
		}
		again, err := CellularSolo(o, []string{ProtoProteusS, ProtoBBR2}, model)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tb, again) {
			t.Fatalf("%s: solo table not reproducible", model)
		}
	}
	ty, err := CellularYield(Options{Fast: true, Trials: 1, Duration: 20}, "lte")
	if err != nil {
		t.Fatal(err)
	}
	if len(ty.Rows) != 5 {
		t.Fatalf("yield rows = %+v", ty.Rows)
	}
	for _, r := range ty.Rows {
		if r.Cells[0] <= 0 || r.Cells[3] < 0 {
			t.Fatalf("yield %s: cells %v", r.XName, r.Cells)
		}
	}
}

// TestPathModelWireParity is the sim-vs-wire gate under a trace-driven
// model: the parity staircase drives the path under both senders and
// their throughput must agree within the model tolerance.
func TestPathModelWireParity(t *testing.T) {
	res, err := PathModelWireParity(CrossWorldOptions{
		Protos:   []string{ProtoProteusP},
		Duration: 10,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllPass() {
		t.Fatalf("trace-model parity failed:\n%s", res.Render())
	}
	t.Log("\n" + res.Render())
}
