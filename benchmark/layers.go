package main

import (
	"testing"

	"pccproteus/internal/engine"
	"pccproteus/internal/fetch"
	"pccproteus/internal/netem"
	"pccproteus/internal/overload"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/wire"
)

// Standalone replays: one layer's public entry points driven alone, by
// testing.Benchmark, so the per-operation cost has no neighbour's time
// in it. Each workload's traced run replays only the layers it runs.

// standalone runs fn under a span and returns ns/op and allocs/op.
func standalone(r *run, layer, name string, fn func(b *testing.B)) (ns, allocs float64) {
	id := r.spans.begin(r.root, layer, "standalone "+name)
	res := testing.Benchmark(fn)
	r.spans.end(id)
	if res.N == 0 {
		r.op(false, "standalone %s did not run", name)
		return 0, 0
	}
	return float64(res.T.Nanoseconds()) / float64(res.N), float64(res.AllocsPerOp())
}

// simEventBench is the schedule -> pop -> run cycle with depth other
// events pending, so the heap is depth deep while the chain runs.
func simEventBench(depth int) func(b *testing.B) {
	return func(b *testing.B) {
		s := sim.New(1)
		for i := 0; i < depth; i++ {
			s.At(1e15+float64(i), func() {})
		}
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
		s.Run(1e14)
	}
}

func layerSim(r *run) {
	ns, allocs := standalone(r, "sim", "sim event, heap depth 8", simEventBench(8))
	r.set("sim.event_ns", ns)
	r.set("sim.event_allocs", allocs)
	ns, _ = standalone(r, "sim", "sim event, heap depth 4096", simEventBench(4096))
	r.set("sim.event_deep_ns", ns)
}

func layerNetem(r *run) {
	ns, _ := standalone(r, "netem", "Link.Send -> deliver", func(b *testing.B) {
		s := sim.New(1)
		link := longLink.Build(s).Link
		delivered := 0
		deliver := func(*netem.Packet, float64) { delivered++ }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			link.Send(&netem.Packet{FlowID: 1, Seq: int64(i), Size: netem.MTU, SentAt: s.Now()}, deliver)
			s.Run(s.Now() + 1)
		}
		if delivered != b.N {
			b.Fatalf("delivered %d of %d", delivered, b.N)
		}
	})
	r.set("netem.send_ns", ns)
}

func layerPathmodel(r *run) {
	m := pathmodel.GenLTE(1, 60)
	ns, allocs := standalone(r, "pathmodel", "Steps(GenLTE(1,60),60)", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(pathmodel.Steps(m, 60)) == 0 {
				b.Fatal("empty schedule")
			}
		}
	})
	r.set("pathmodel.steps_ns", ns)
	r.set("pathmodel.steps_allocs", allocs)
}

func layerStats(r *run) {
	ns, _ := standalone(r, "stats", "LogHist.Add", func(b *testing.B) {
		h := stats.NewLogHist(0.01, 1000, 48)
		for i := 0; i < b.N; i++ {
			h.Add(0.02 + float64(i%4096)*0.2)
		}
	})
	r.set("stats.loghist_add_ns", ns)
	ns, _ = standalone(r, "stats", "LogHist.Merge", func(b *testing.B) {
		h, o := stats.NewLogHist(0.01, 1000, 48), stats.NewLogHist(0.01, 1000, 48)
		for i := 0; i < 1000; i++ {
			o.Add(0.02 + float64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.Merge(o); err != nil {
				b.Fatal(err)
			}
		}
	})
	r.set("stats.loghist_merge_ns", ns)
}

func layerWire(r *run) {
	ns, _ := standalone(r, "wire", "data header encode+decode", func(b *testing.B) {
		buf := make([]byte, 1500)
		h := wire.DataHeader{Seq: 42, SentAt: 123456789}
		for i := 0; i < b.N; i++ {
			h.Seq = int64(i)
			if _, err := wire.DecodeData(wire.EncodeData(buf, h, 1200)); err != nil {
				b.Fatal(err)
			}
		}
	})
	r.set("wire.data_codec_ns", ns)
	ns, _ = standalone(r, "wire", "ack encode+decode", func(b *testing.B) {
		var buf [wire.MaxAckLen]byte
		a := wire.AckPacket{Seq: 1, CumAck: 2, RecvAt: 123456789,
			Blocks: []wire.SackBlock{{Start: 10, End: 12}, {Start: 20, End: 25}}}
		var out wire.AckPacket
		for i := 0; i < b.N; i++ {
			a.Seq = int64(i)
			if err := wire.DecodeAck(a.Encode(buf[:]), &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	r.set("wire.ack_codec_ns", ns)
}

// layerWireSender replays the legacy wire.Sender's per-packet paths,
// which only the fetch workload's server side still runs.
func layerWireSender(r *run) {
	ns, _ := standalone(r, "wire", "wire.RunPacerBench", wire.RunPacerBench)
	r.set("wire.pacer_ns", ns)
	ns, _ = standalone(r, "wire", "wire.RunAckBench", wire.RunAckBench)
	r.set("wire.ack_process_ns", ns)
}

func layerEngine(r *run) {
	ns, allocs := standalone(r, "engine", "engine.RunHotpathBench", engine.RunHotpathBench)
	r.set("engine.hotpath_ns", ns)
	r.set("engine.hotpath_allocs", allocs)
	ns, _ = standalone(r, "overload", "Detector.Update", func(b *testing.B) {
		d := overload.NewDetector(overload.Config{})
		sig := overload.Signals{FlowOccupancy: 0.3, RxSaturation: 0.5}
		for i := 0; i < b.N; i++ {
			sig.TxBacklog = float64(i&7) / 16
			d.Update(float64(i)*1e-4, sig)
		}
	})
	r.set("overload.update_ns", ns)
}

func layerFetch(r *run) {
	ns, allocs := standalone(r, "fetch", "fetch.RunFetchBench", fetch.RunFetchBench)
	r.set("fetch.core_ns_per_seg", ns)
	r.set("fetch.core_allocs", allocs)
}
