package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// emitAll fires every emitter once on t.
func emitAll(tr Tracer) {
	tr.MIDecision(1.0, 7, 40, 38, 12.5, 41, "probing")
	tr.RateChange(1.1, 42, 40, 0.8, 2, "up")
	tr.UtilitySample(1.2, 7, 12.5, 0.01, 0.002, 0.0, "primary")
	tr.PacketDrop(1.3, 101, 1500, 30000, "taildrop")
	tr.QueueDepth(1.4, 30000, 0.004, 6.25e6)
	tr.RTTSample(1.5, 102, 0.031, 0.030, 1_500_000, 187500)
	tr.ModeSwitch(1.6, "probe_rtt", 1.0)
	tr.Fault(1.7, "blackout", 1, 0)
}

// TestNopTracerZeroAlloc is the zero-cost guarantee: a disabled tracer
// (no recorder, or every emitted kind masked off) must not allocate.
func TestNopTracerZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() { emitAll(NopTracer) }); n != 0 {
		t.Fatalf("NopTracer allocated %v allocs/op, want 0", n)
	}
	rec := NewRecorder(Options{Mask: MaskOf(KindModeSwitch)})
	tr := rec.Tracer(1)
	masked := func() {
		tr.MIDecision(1.0, 7, 40, 38, 12.5, 41, "probing")
		tr.RateChange(1.1, 42, 40, 0.8, 2, "up")
		tr.UtilitySample(1.2, 7, 12.5, 0.01, 0.002, 0.0, "primary")
		tr.PacketDrop(1.3, 101, 1500, 30000, "taildrop")
		tr.QueueDepth(1.4, 30000, 0.004, 6.25e6)
		tr.RTTSample(1.5, 102, 0.031, 0.030, 1_500_000, 187500)
	}
	if n := testing.AllocsPerRun(1000, masked); n != 0 {
		t.Fatalf("mask-disabled tracer allocated %v allocs/op, want 0", n)
	}
	if got := len(rec.Events(1)); got != 0 {
		t.Fatalf("masked kinds recorded %d events, want 0", got)
	}
}

func TestRecorderCapturesAllKinds(t *testing.T) {
	rec := NewRecorder(Options{})
	emitAll(rec.Tracer(3))
	evs := rec.Events(3)
	if len(evs) != int(numKinds) {
		t.Fatalf("got %d events, want %d", len(evs), numKinds)
	}
	wantKinds := []Kind{KindMIDecision, KindRateChange, KindUtilitySample,
		KindPacketDrop, KindQueueDepth, KindRTTSample, KindModeSwitch, KindFault}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, ev.Kind, wantKinds[i])
		}
		if ev.Flow != 3 {
			t.Errorf("event %d flow = %d, want 3", i, ev.Flow)
		}
	}
	if flows := rec.Flows(); len(flows) != 1 || flows[0] != 3 {
		t.Errorf("Flows() = %v, want [3]", flows)
	}
	// A flow whose ring was created but never written is not listed.
	_ = rec.Tracer(9)
	if flows := rec.Flows(); len(flows) != 1 {
		t.Errorf("Flows() after empty ring = %v, want [3]", flows)
	}
}

func TestRingWrap(t *testing.T) {
	const capMax = 8
	rec := NewRecorder(Options{FlowCap: capMax})
	tr := rec.Tracer(1)
	for i := 0; i < 20; i++ {
		tr.ModeSwitch(float64(i), "m", float64(i))
	}
	evs := rec.Events(1)
	if len(evs) != capMax {
		t.Fatalf("ring holds %d events, want %d", len(evs), capMax)
	}
	for i, ev := range evs {
		if want := float64(20 - capMax + i); ev.T != want {
			t.Errorf("event %d T = %g, want %g (oldest-first after wrap)", i, ev.T, want)
		}
	}
	if ev := rec.Evicted(1); ev != 12 {
		t.Errorf("Evicted = %d, want 12", ev)
	}
}

func TestParseKinds(t *testing.T) {
	for _, s := range []string{"", "all"} {
		m, err := ParseKinds(s)
		if err != nil || m != AllEvents {
			t.Errorf("ParseKinds(%q) = %v, %v; want AllEvents, nil", s, m, err)
		}
	}
	m, err := ParseKinds("mi, rate ,drop")
	if err != nil {
		t.Fatal(err)
	}
	if want := MaskOf(KindMIDecision, KindRateChange, KindPacketDrop); m != want {
		t.Errorf("ParseKinds(mi,rate,drop) = %b, want %b", m, want)
	}
	if m.Has(KindRTTSample) || !m.Has(KindPacketDrop) {
		t.Error("Has() disagrees with parsed mask")
	}
	if _, err := ParseKinds("mi,bogus"); err == nil {
		t.Error("ParseKinds accepted unknown kind")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder(Options{})
	emitAll(rec.Tracer(2))
	evs := rec.Events(2)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(evs))
	}
	for i := range evs {
		want := evs[i]
		// Unused payload slots are not serialized; zero them as the
		// reader would.
		for s, name := range fieldNames[want.Kind] {
			if name == "" {
				*[4]*float64{&want.A, &want.B, &want.C, &want.D}[s] = 0
			}
		}
		if !kindHasSeq[want.Kind] {
			want.Seq = 0
		}
		if got[i] != want {
			t.Errorf("event %d round-trip:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

func TestJSONLNaNBecomesNull(t *testing.T) {
	evs := []Event{{T: 1, Flow: 1, Kind: KindUtilitySample, Seq: 3, A: math.NaN(), B: math.Inf(1), C: 2.5}}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, `"utility":null`) || !strings.Contains(line, `"rtt_grad":null`) {
		t.Fatalf("NaN/Inf not serialized as null: %s", line)
	}
	got, err := ReadJSONL(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].A != 0 || got[0].B != 0 || got[0].C != 2.5 {
		t.Errorf("null slots read back as %+v, want A=0 B=0 C=2.5", got[0])
	}
}

func TestReduce(t *testing.T) {
	evs := []Event{
		{T: 0.5, Flow: 1, Kind: KindRTTSample, A: 0.030, C: 125000},
		{T: 1.0, Flow: 1, Kind: KindRTTSample, A: 0.040, C: 250000}, // exactly on boundary → bucket 1
		{T: 1.5, Flow: 1, Kind: KindPacketDrop, Seq: 9, A: 1500},
		{T: 2.5, Flow: 1, Kind: KindRTTSample, A: 0.050, C: 500000},
	}
	s := Reduce(evs, 1, 3)
	if s.Flow != 1 || s.Bucket != 1 {
		t.Fatalf("summary header %+v", s)
	}
	wantTput := []float64{1.0, 1.0, 2.0}
	for i, want := range wantTput {
		if math.Abs(s.ThroughputMbps[i]-want) > 1e-12 {
			t.Errorf("ThroughputMbps[%d] = %g, want %g", i, s.ThroughputMbps[i], want)
		}
	}
	wantRTT := []float64{0.030, 0.040, 0.050}
	for i, want := range wantRTT {
		if math.Abs(s.AvgRTT[i]-want) > 1e-12 {
			t.Errorf("AvgRTT[%d] = %g, want %g", i, s.AvgRTT[i], want)
		}
	}
	if s.LossPkts[0] != 0 || s.LossPkts[1] != 1 || s.LossPkts[2] != 0 {
		t.Errorf("LossPkts = %v, want [0 1 0]", s.LossPkts)
	}
}

func TestReduceEmptyBucketRTTIsNaN(t *testing.T) {
	evs := []Event{{T: 0.2, Flow: 1, Kind: KindRTTSample, A: 0.030, C: 1000}}
	s := Reduce(evs, 1, 2)
	if !math.IsNaN(s.AvgRTT[1]) {
		t.Errorf("AvgRTT of empty bucket = %g, want NaN", s.AvgRTT[1])
	}
	if s.ThroughputMbps[1] != 0 {
		t.Errorf("ThroughputMbps of idle bucket = %g, want 0", s.ThroughputMbps[1])
	}
	// Default horizon: last event time rounded up.
	s2 := Reduce(evs, 1, 0)
	if len(s2.ThroughputMbps) != 1 {
		t.Errorf("default horizon buckets = %d, want 1", len(s2.ThroughputMbps))
	}
}
