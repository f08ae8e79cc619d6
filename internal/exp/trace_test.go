package exp

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pccproteus/internal/trace"
)

// TestTracingReducesToTimeline is the subsystem's end-to-end acceptance
// check: run a Fig-14-style scenario with the flight recorder attached,
// read the per-flow JSONL files back, and verify that the reduced
// throughput timeline reproduces the harness's printed per-second
// series exactly — the trace alone is enough to rebuild the figure.
func TestTracingReducesToTimeline(t *testing.T) {
	dir := t.TempDir()
	tc := &Tracing{Dir: dir}
	link := emulabLink(375000)
	dur := 30.0
	series := timeline(tc, "fig14_bbr_vs_bbrs", 1, link,
		[]FlowSpec{{Proto: ProtoBBR}, {Proto: ProtoBBRS, StartAt: 10}}, dur)
	if err := tc.Err(); err != nil {
		t.Fatal(err)
	}
	// The link's own ring (queue depth samples) is flow 0.
	if _, err := os.Stat(filepath.Join(dir, "fig14_bbr_vs_bbrs_flow0_link.jsonl")); err != nil {
		t.Errorf("link trace file missing: %v", err)
	}
	for fi, s := range series {
		name := fmt.Sprintf("fig14_bbr_vs_bbrs_flow%d_%s.jsonl", fi+1, sanitizeName(s.Name))
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("flow trace file: %v", err)
		}
		evs, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := trace.Reduce(evs, 1, dur)
		if len(sum.ThroughputMbps) != len(s.Mbps) {
			t.Fatalf("%s: reduced %d buckets, timeline has %d", name, len(sum.ThroughputMbps), len(s.Mbps))
		}
		for i, want := range s.Mbps {
			if math.Abs(sum.ThroughputMbps[i]-want) > 1e-9 {
				t.Errorf("%s: second %d: reduced %.9f Mbps, timeline printed %.9f",
					name, i, sum.ThroughputMbps[i], want)
			}
		}
	}
}

// TestTracingRunWritesPerFlowFiles covers the Run path (used by the
// non-timeline figures) plus masking and duplicate-scenario dedup.
func TestTracingRunWritesPerFlowFiles(t *testing.T) {
	dir := t.TempDir()
	tc := &Tracing{Dir: dir, Mask: trace.MaskOf(trace.KindRTTSample)}
	link := emulabLink(75000)
	flows := []FlowSpec{{Proto: ProtoCubic}, {Proto: ProtoProteusS, StartAt: 2}}
	sc := Scenario{Trace: tc, Label: "fig6_buf75000_cubic_vs_proteus-s_s1", Seed: 1, Link: link, Flows: flows, MeasureFrom: 5, Duration: 10}
	Run(sc)
	sc.Seed = 2
	Run(sc)
	if err := tc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig6_buf75000_cubic_vs_proteus-s_s1_flow1_cubic.jsonl",
		"fig6_buf75000_cubic_vs_proteus-s_s1_flow2_proteus-s.jsonl",
		"fig6_buf75000_cubic_vs_proteus-s_s1_run2_flow1_cubic.jsonl",
	} {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("expected trace file: %v", err)
		}
		evs, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 {
			t.Errorf("%s: no events", name)
		}
		for _, ev := range evs {
			if ev.Kind != trace.KindRTTSample {
				t.Errorf("%s: masked recorder captured kind %v", name, ev.Kind)
				break
			}
		}
	}
	// With only RTT samples enabled, the link never records (its ring
	// holds queue/drop events), so no flow0 file is written.
	if _, err := os.Stat(filepath.Join(dir, "fig6_buf75000_cubic_vs_proteus-s_s1_flow0_link.jsonl")); err == nil {
		t.Error("link file written despite queue/drop kinds masked off")
	}
}

func TestSanitizeName(t *testing.T) {
	if got := sanitizeName("fixed:20"); got != "fixed-20" {
		t.Errorf("sanitizeName(fixed:20) = %q", got)
	}
	if got := sanitizeName("a/b c*d"); got != "a-b-c-d" {
		t.Errorf("sanitizeName = %q", got)
	}
	if got := sanitizeName("fig14_bbr-s.x_Y9"); !strings.EqualFold(got, "fig14_bbr-s.x_Y9") {
		t.Errorf("sanitizeName mangled safe chars: %q", got)
	}
}
