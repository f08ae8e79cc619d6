package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON mirrors the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestCatalogueMatchesContract keeps BENCHMARK.json and the catalogue
// the harness reports from in step, and inside the contract's limits.
func TestCatalogueMatchesContract(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, catalogue %d/%d/%d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("catalogue outside the contract's sizes")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		name(w.Name)
		if bj.Workloads[i].Name != w.Name || len(bj.Workloads[i].Why) > 200 || w.Why == "" || w.Loop == "" {
			t.Errorf("workload %d: %q vs %q", i, bj.Workloads[i].Name, w.Name)
		}
	}
	hasSetup := false
	for i, m := range endToEnd {
		name(m.Name)
		j := bj.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("end-to-end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for i, m := range perLayer {
		name(m.Name)
		j := bj.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || m.Moves == "" {
			t.Errorf("per-layer %d: %+v vs %+v", i, j, m)
		}
	}
}

// TestQuartilesMatchPython pins the acceptance statistic to what
// statistics.quantiles(v, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v .. %v, want 0.5 .. 3.5", q1, q3)
	}
}

// TestSmoke runs the whole benchmark scaled down: five workloads, each
// in its own child process, untraced and traced, and validates what it
// wrote. It checks shape and correctness, never speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real-socket workloads for several seconds")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "--scale", "0.02", "--seconds", "0.3", "--trace", "1", "--out", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark: %v\n%s", err, out)
	}

	var rep report
	b, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || len(rep.Sets) != 1 || rep.Env.NProc == 0 || rep.Env.GoVersion == "" || rep.Env.CPUModel == "" {
		t.Errorf("report: correct=%v sets=%d env=%+v", rep.Correct, len(rep.Sets), rep.Env)
	}
	check := func(kind string, cr childRun, want []metric) {
		t.Helper()
		if !cr.Result.Correct || cr.Result.Attempted < 1 || cr.Result.Failed != 0 {
			t.Errorf("%s %s: %+v %v", kind, cr.Detail.Workload, cr.Result, cr.Detail.Complaints)
		}
		if len(cr.Result.Metrics) != len(want) {
			t.Errorf("%s %s: %d metrics, want %d", kind, cr.Detail.Workload, len(cr.Result.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := cr.Result.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s %s: metric %s = %+v (present %v)", kind, cr.Detail.Workload, m.Name, v, ok)
			}
			if kind == "untraced" && v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", cr.Detail.Workload, m.Name, v.Value)
			}
		}
		if cr.Detail.Env.UserCPUs+cr.Detail.Env.SysCPUs <= 0 {
			t.Errorf("%s %s: no per-workload CPU record", kind, cr.Detail.Workload)
		}
	}
	for _, w := range workloads {
		check("untraced", rep.Sets[0][w.Name], endToEnd)
		check("traced", rep.Traced[w.Name], perLayer)
	}

	var tr struct {
		Workloads []struct {
			Workload string
			Spans    []map[string]any
		}
	}
	b, err = os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Workloads) != len(workloads) {
		t.Fatalf("trace.json covers %d workloads", len(tr.Workloads))
	}
	for _, w := range tr.Workloads {
		if len(w.Spans) < 3 {
			t.Errorf("%s: only %d spans", w.Workload, len(w.Spans))
		}
		for _, s := range w.Spans {
			for _, k := range []string{"id", "parent", "workload", "layer", "name", "start_ns", "end_ns"} {
				if _, ok := s[k]; !ok {
					t.Fatalf("%s: span without %s: %v", w.Workload, k, s)
				}
			}
			if s["workload"] != w.Workload || s["end_ns"].(float64) < s["start_ns"].(float64) ||
				s["parent"].(float64) >= s["id"].(float64) {
				t.Errorf("%s: malformed span %v", w.Workload, s)
			}
		}
	}
}
