package main

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("1-3,7, 11-12")
	if want := []int64{1, 2, 3, 7, 11, 12}; err != nil || !slices.Equal(got, want) {
		t.Fatalf("parseSeeds = %v, %v; want %v", got, err, want)
	}
	for _, bad := range []string{"", "a", "3-1", "1-", "1,,2"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

// A run's stdout is a report, a detail line, then the result line.
func TestParseResult(t *testing.T) {
	out := "# end-to-end\nworkload engine-bulk ...\nDETAIL {\"workload\":\"engine-bulk\"}\n" +
		`{"correct":true,"attempted":1000,"failed":0,"metrics":{"peak_rss_mb":{"value":21.1,"unit":"MiB"},"pkts_per_s":{"value":5.2e6,"unit":"1/s"}}}` + "\n\n"
	r, err := parseResult(out)
	if err != nil || !r.ok() || r.Attempted != 1000 || r.Metrics["peak_rss_mb"].Value != 21.1 || r.Metrics["pkts_per_s"].Value != 5.2e6 {
		t.Fatalf("parseResult = %+v, %v", r, err)
	}
	for _, bad := range []string{`{"correct":false,"attempted":3,"failed":0,"metrics":{}}`, `{"correct":true,"attempted":3,"failed":1,"metrics":{}}`} {
		if r, err := parseResult(bad); err != nil || r.ok() {
			t.Errorf("%s: ok=%v err=%v, want a parsed run that is not ok", bad, r.ok(), err)
		}
	}
	for _, bad := range []string{"", "\n\n", "build failed\n", `{"correct":true`} {
		if _, err := parseResult(bad); err == nil {
			t.Errorf("parseResult(%q) accepted", bad)
		}
	}
}

// The contract decodes from the repo's BENCHMARK.json, read-only.
func TestContractDecodes(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseContract(raw)
	if err != nil {
		t.Fatal(err)
	}
	if c.Command[0] != "bash" || c.RunSeconds <= 0 {
		t.Errorf("command %q, run_seconds %g", c.Command, c.RunSeconds)
	}
	all, err := pickWorkloads(c, "")
	if err != nil || len(all) == 0 || len(c.EndToEnd) == 0 {
		t.Fatalf("%d workloads (%v), %d end-to-end metrics", len(all), err, len(c.EndToEnd))
	}
	for _, m := range c.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" || m.Bound <= 0 {
			t.Errorf("metric %+v: better must be higher or lower, bound positive", m)
		}
	}
	if got, err := pickWorkloads(c, all[0]); err != nil || !slices.Equal(got, all[:1]) {
		t.Errorf("pickWorkloads(%q) = %v, %v", all[0], got, err)
	}
	if _, err := pickWorkloads(c, all[0]+",no-such-workload"); err == nil {
		t.Error("an unknown workload was accepted")
	}
	for _, bad := range []string{`{"run_seconds":15}`, `{"command":["bash"],"run_seconds":0}`, `{"command":[],"run_seconds":15}`, `{"command":`} {
		if _, err := parseContract([]byte(bad)); err == nil {
			t.Errorf("parseContract(%s) accepted", bad)
		}
	}
}

func TestWinsFollowDirection(t *testing.T) {
	base, head := []float64{10, 10, 10, 10}, []float64{9, 11, 10, 8}
	if w, l := wins(base, head, "lower"); w != 2 || l != 1 {
		t.Errorf("lower is better: won %d lost %d, want 2 and 1", w, l)
	}
	if w, l := wins(base, head, "higher"); w != 1 || l != 2 {
		t.Errorf("higher is better: won %d lost %d, want 1 and 2", w, l)
	}
}

// Sign-test p-values against exact binomial sums.
func TestSignTestP(t *testing.T) {
	for _, tc := range []struct {
		won, lost int
		p         float64
	}{
		{10, 0, 0.001953125},   // 2 / 2^10
		{0, 10, 0.001953125},   // two-sided
		{9, 1, 0.021484375},    // 2 · 11 / 2^10
		{10, 2, 0.03857421875}, // 2 · 79 / 2^12
		{5, 5, 1},
		{0, 0, 1},
	} {
		if p := signTestP(tc.won, tc.lost); math.Abs(p-tc.p) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %g, want %g", tc.won, tc.lost, p, tc.p)
		}
	}
	if p := signTestP(400, 0); p <= 0 || p > 1e-100 {
		t.Errorf("signTestP(400, 0) = %g, want a tiny positive p", p)
	}
}

func TestReport(t *testing.T) {
	m := metricSpec{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25}
	base := []float64{25.4, 25.4, 25.4, 26.6, 25.9, 25.9, 25.6}
	head := []float64{20.4, 20.4, 19.9, 21.6, 21.1, 21.5, 21.1}
	var b bytes.Buffer
	report(&b, "engine-bulk", m, []int64{1, 2, 3, 4, 5, 6, 7}, base, head)
	out := b.String()
	for _, want := range []string{
		"peak_rss_mb@engine-bulk [MiB, lower is better, bound 0.25]",
		"  4              26.6         21.6    0.812",
		"median 25.6 -> 21.1 (x0.824); base quartiles 25.4 / 25.9, IQR 0.5: the medians differ by more than it",
		"head better in 7 of 7 pairs (0 worse, 0 tied); two-sided sign test p = 0.0156",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	b.Reset()
	report(&b, "sim-longflows", m, []int64{1}, []float64{0}, []float64{0})
	if b.Len() != 0 {
		t.Errorf("a metric the workload does not report printed:\n%s", b.String())
	}
}
