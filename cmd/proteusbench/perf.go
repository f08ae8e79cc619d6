package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"pccproteus/internal/cc/bbr2"
	"pccproteus/internal/engine"
	"pccproteus/internal/fetch"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// perfResult is one micro-benchmark's outcome in BENCH_proteus.json.
type perfResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	PktsPerSec  float64 `json:"pkts_per_sec,omitempty"`
	N           int     `json:"n"`
}

// perfReport is the BENCH_proteus.json schema: hot-path numbers the
// roadmap tracks across versions. sim_events_per_sec is the headline —
// campaign throughput is bounded by it.
type perfReport struct {
	Schema          string                `json:"schema"`
	GoVersion       string                `json:"go_version"`
	GOARCH          string                `json:"goarch"`
	SimEventsPerSec float64               `json:"sim_events_per_sec"`
	Benchmarks      map[string]perfResult `json:"benchmarks"`
}

func toPerfResult(r testing.BenchmarkResult) perfResult {
	out := perfResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
	if r.Bytes > 0 && r.T > 0 {
		out.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	return out
}

// benchSimEvent measures the schedule→pop→execute cycle of the event
// queue with the free list hot.
func benchSimEvent(b *testing.B) {
	s := sim.New(1)
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(0.001, tick)
		}
	}
	s.After(0, tick)
	b.ResetTimer()
	s.Run(1e18)
}

// benchDataCodec measures data-header encode+decode round trips.
func benchDataCodec(b *testing.B) {
	buf := make([]byte, 1500)
	h := wire.DataHeader{Seq: 42, SentAt: 123456789}
	b.ReportAllocs()
	b.SetBytes(1200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Seq = int64(i)
		pkt := wire.EncodeData(buf, h, 1200)
		if _, err := wire.DecodeData(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAckCodec measures ack encode+decode round trips with SACK blocks.
func benchAckCodec(b *testing.B) {
	var buf [wire.MaxAckLen]byte
	a := wire.AckPacket{Seq: 1, CumAck: 2, RecvAt: 123456789,
		Blocks: []wire.SackBlock{{Start: 10, End: 12}, {Start: 20, End: 25}}}
	var out wire.AckPacket
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Seq = int64(i)
		pkt := a.Encode(buf[:])
		if err := wire.DecodeAck(pkt, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPathmodelSteps measures compiling one minute of a bundled LTE
// trace into the deduplicated step schedule both appliers replay —
// the per-run setup cost of every pathmodel-driven scenario.
func benchPathmodelSteps(b *testing.B) {
	m := pathmodel.GenLTE(1, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if steps := pathmodel.Steps(m, 60); len(steps) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// benchBBR2Step measures the bbr2 controller's per-ack hot path: one
// OnSend + OnAck round trip with the delivery-rate sampler engaged.
func benchBBR2Step(b *testing.B) {
	cc := bbr2.New()
	const rtt = 0.03
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i) * 0.001
		pkt := transport.SentPacket{Seq: int64(i), Size: 1200, SentAt: now}
		cc.OnSend(now, &pkt)
		cc.OnAck(transport.Ack{
			Seq: int64(i), Bytes: 1200, SentAt: now,
			RecvAt: now + rtt/2, Now: now + rtt, RTT: rtt,
			Inflight: 24000,
		})
	}
}

// ppsFlows and ppsWindow size the aggregate datapath throughput rows:
// 1k concurrent fixed-rate flows over one steady-state window.
const (
	ppsFlows  = 1000
	ppsWindow = 2 * time.Second
)

// runPerf runs every hot-path micro-benchmark plus the 1k-flow
// datapath throughput rows and writes the report.
func runPerf(w io.Writer, outPath string) error {
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"sim_event", benchSimEvent},
		{"wire_data_codec", benchDataCodec},
		{"wire_ack_codec", benchAckCodec},
		{"wire_pacer_send", wire.RunPacerBench},
		{"wire_ack_process", wire.RunAckBench},
		{"fetch_goodput", fetch.RunFetchBench},
		{"engine_hotpath", engine.RunHotpathBench},
		{"pathmodel_steps", benchPathmodelSteps},
		{"bbr2_step", benchBBR2Step},
	}
	rep := perfReport{
		Schema:     "proteusbench-perf/v1",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Benchmarks: map[string]perfResult{},
	}
	fmt.Fprintf(w, "# proteusbench -perf (%s %s)\n", rep.GoVersion, rep.GOARCH)
	fmt.Fprintf(w, "%-18s %12s %10s %10s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op", "MB/s")
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		if r.N == 0 {
			return fmt.Errorf("benchmark %s did not run", bench.name)
		}
		pr := toPerfResult(r)
		rep.Benchmarks[bench.name] = pr
		mbs := "-"
		if pr.MBPerSec > 0 {
			mbs = fmt.Sprintf("%.1f", pr.MBPerSec)
		}
		fmt.Fprintf(w, "%-18s %12.1f %10d %10d %12s\n",
			bench.name, pr.NsPerOp, pr.BytesPerOp, pr.AllocsPerOp, mbs)
	}
	// Aggregate datapath throughput at 1k concurrent flows over real
	// loopback sockets.
	enginePPS, enginePkts, err := engine.MeasurePPS(ppsFlows, ppsWindow)
	if err != nil {
		return fmt.Errorf("engine pps: %w", err)
	}
	rep.Benchmarks["engine_pps_1k"] = perfResult{
		PktsPerSec: enginePPS, N: int(enginePkts),
		NsPerOp: 1e9 / enginePPS,
	}
	// Same engine under class-aware overload control, held in brownout
	// by a 4×-capacity half-scavenger population: the admission gate,
	// sheds, and BUSY emission all run on the measured hot path.
	ovPPS, ovPkts, err := engine.MeasureOverloadPPS(ppsFlows, ppsWindow)
	if err != nil {
		return fmt.Errorf("engine overload pps: %w", err)
	}
	rep.Benchmarks["engine_overload_pps"] = perfResult{
		PktsPerSec: ovPPS, N: int(ovPkts),
		NsPerOp: 1e9 / ovPPS,
	}
	fmt.Fprintf(w, "datapath @%d flows: engine %.0f pps, overloaded %.0f pps\n", ppsFlows, enginePPS, ovPPS)
	rep.SimEventsPerSec = 1e9 / rep.Benchmarks["sim_event"].NsPerOp
	fmt.Fprintf(w, "sim events/sec: %.2fM\n", rep.SimEventsPerSec/1e6)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	return nil
}
