package exp

import (
	"strings"
	"testing"

	"pccproteus/internal/chaos"
)

func TestDefaultSoakPlanIsCanonical(t *testing.T) {
	p := DefaultSoakPlan(16)
	if len(p.Faults) != 5 {
		t.Fatalf("faults: %v", p.Faults)
	}
	c := p.Canonical()
	if len(c.Faults) != len(p.Faults) {
		t.Fatalf("default plan must survive canonicalization: %v vs %v", p.Faults, c.Faults)
	}
	kinds := map[chaos.Kind]bool{}
	for _, f := range p.Faults {
		kinds[f.Kind] = true
	}
	for _, k := range []chaos.Kind{chaos.KindBlackout, chaos.KindCorrupt, chaos.KindDuplicate, chaos.KindReorder, chaos.KindAckBlackout} {
		if !kinds[k] {
			t.Errorf("default plan missing %s", k)
		}
	}
}

// TestChaosSoakCrossWorld is the attribution-parity acceptance gate:
// the same canonical fault plan goes on the path under the simulated
// transport and on the path under the engine, and every injected fault
// category must leave attribution on both, with the watchdog tripping
// and recovering as often under either sender. The per-mode survival
// gates live in the wire and chaos packages.
func TestChaosSoakCrossWorld(t *testing.T) {
	res, err := ChaosSoak(CrossWorldOptions{
		Protos:   []string{ProtoProteusP},
		Duration: 12,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	row := res.Rows[0]
	if !row.Pass {
		t.Fatalf("soak failed:\n%s", res.Render())
	}
	if row.SimAttr.FaultDrop == 0 || row.WireAttr.FaultDrop == 0 {
		t.Errorf("blackout left no attribution: sim=%+v wire=%+v", row.SimAttr, row.WireAttr)
	}
	if row.SimAttr.Corrupted == 0 || row.SimAttr.Duplicated == 0 || row.SimAttr.Reordered == 0 {
		t.Errorf("sim attribution incomplete: %+v", row.SimAttr)
	}
	out := res.Render()
	for _, want := range []string{"Chaos soak", "proteus-p", "fault-drop", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if !res.AllPass() {
		t.Error("AllPass must reflect the single passing row")
	}
}
