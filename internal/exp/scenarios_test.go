package exp

import (
	"fmt"
	"strings"
	"testing"

	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
)

// TestScenariosGolden pins, with ==, what a set of small scenarios does
// at the level below any figure: every flow's acked and lost bytes, its
// last RTT sample, and the bottleneck's counters. Between them the
// scenarios walk every way internal/exp builds a simulation — a static
// two-flow link with a late start, a solo flow under jitter and bursty
// acks, a per-second timeline, the LTE rate walk, a cellular path model
// without outages, the LEO model with handover blackouts, the default
// chaos-soak plan, an incast wave with byte limits — plus the
// application trials (Fig 2 cross traffic, DASH, page loads, hybrid
// video, bulk fetch, the ablation constructors). Floats print in their
// shortest round-trip form, so a one-ulp drift fails the comparison.
//
// Regenerate with -update only when a change means to move these numbers.
func TestScenariosGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range goldenScenarios() {
		b.WriteString(sc())
	}
	compareGolden(t, "scenarios.golden", []byte(b.String()))
}

// probed is what one hand-built scenario leaves behind for the dump.
type probed struct {
	name    string
	protos  []string
	senders []*transport.Sender
	marks   []int64
	done    []float64
	perSec  [][]float64
	path    *netem.Path
}

func (p probed) dump() string {
	var b strings.Builder
	for i, snd := range p.senders {
		rtts := snd.RTTSamples()
		last := 0.0
		if len(rtts) > 0 {
			last = rtts[len(rtts)-1]
		}
		var mark int64
		if p.marks != nil {
			mark = p.marks[i]
		}
		done := 0.0
		if p.done != nil {
			done = p.done[i]
		}
		fmt.Fprintf(&b, "%s flow=%d proto=%s acked=%d lost=%d window=%d rtts=%d lastrtt=%v done=%v trips=%d recov=%d\n",
			p.name, i+1, p.protos[i], snd.AckedBytes(), snd.LostBytes(), snd.AckedBytes()-mark,
			len(rtts), last, done, snd.WatchdogTrips(), snd.WatchdogRecoveries())
		if p.perSec != nil {
			fmt.Fprintf(&b, "%s flow=%d persec=%v\n", p.name, i+1, p.perSec[i])
		}
	}
	fmt.Fprintf(&b, "%s link=%+v path=%+v\n", p.name, p.path.Link.Stats(), p.path.Stats())
	return b.String()
}

// check fails the test run loudly when a hand-built replica and the
// builder it mirrors disagree: the golden must describe the builders.
func check(name string, got, want float64) {
	if got != want {
		panic(fmt.Sprintf("%s: replica %v != builder %v", name, got, want))
	}
}

func goldenScenarios() []func() string {
	return []func() string{
		goldenTwoFlow, goldenSoloJitter, goldenTimeline, goldenLTE,
		goldenCellular, goldenLEO, goldenChaosSoak, goldenIncast, goldenApps,
	}
}

// staticRun mirrors runTraced.
func staticRun(name string, seed int64, link LinkSpec, flows []FlowSpec, measureFrom, duration float64) probed {
	s := sim.New(seed)
	path := link.Build(s)
	p := probed{name: name, path: path, marks: make([]int64, len(flows))}
	for i, f := range flows {
		cc := NewController(s, f.Proto)
		snd := transport.NewSender(i+1, path, cc)
		snd.Burst = BurstFor(f.Proto)
		snd.RecordRTT = true
		p.senders = append(p.senders, snd)
		p.protos = append(p.protos, f.Proto)
		if f.StartAt <= 0 {
			snd.Start()
		} else {
			at := f.StartAt
			s.At(at, func() { snd.Start() })
		}
	}
	s.At(measureFrom, func() {
		for i, snd := range p.senders {
			p.marks[i] = snd.AckedBytes()
		}
	})
	s.Run(duration)
	res := Run(seed, link, flows, measureFrom, duration)
	for i, snd := range p.senders {
		check(name, float64(snd.AckedBytes()-p.marks[i])*8/(duration-measureFrom)/1e6, res[i].Mbps)
	}
	return p
}

func goldenTwoFlow() string {
	return staticRun("two-flow-late-start", 1, emulabLink(375000),
		[]FlowSpec{{Proto: ProtoCubic}, {Proto: ProtoProteusS, StartAt: 8}}, 10, 25).dump()
}

func goldenSoloJitter() string {
	link := WiFiProfiles(3, 7)[2].Link // lognormal jitter, spikes, AckHold
	return staticRun("solo-jitter-ackhold", 3, link, []FlowSpec{{Proto: ProtoProteusP}}, 5, 20).dump()
}

// goldenTimeline mirrors timeline.
func goldenTimeline() string {
	const name, seed, duration = "timeline", 1, 20.0
	link := emulabLink(375000)
	flows := []FlowSpec{{Proto: ProtoBBR}, {Proto: ProtoBBRS, StartAt: 5}}
	s := sim.New(seed)
	path := link.Build(s)
	p := probed{name: name, path: path, perSec: make([][]float64, len(flows))}
	last := make([]int64, len(flows))
	for i, f := range flows {
		cc := NewController(s, f.Proto)
		snd := transport.NewSender(i+1, path, cc)
		snd.Burst = BurstFor(f.Proto)
		snd.RecordRTT = true
		p.senders = append(p.senders, snd)
		p.protos = append(p.protos, f.Proto)
		if f.StartAt <= 0 {
			snd.Start()
		} else {
			at := f.StartAt
			s.At(at, func() { snd.Start() })
		}
	}
	for sec := 1.0; sec <= duration; sec++ {
		s.At(sec, func() {
			for i, snd := range p.senders {
				p.perSec[i] = append(p.perSec[i], float64(snd.AckedBytes()-last[i])*8/1e6)
				last[i] = snd.AckedBytes()
			}
		})
	}
	s.Run(duration)
	series := timeline(nil, "", seed, link, flows, duration)
	for i := range series {
		for k, v := range series[i].Mbps {
			check(name, p.perSec[i][k], v)
		}
	}
	return p.dump()
}

// goldenLTE mirrors lteTrial.
func goldenLTE() string {
	const name, seed, proto, dur = "lte-ratewalk", 2, ProtoVivace, 20.0
	s := sim.New(seed)
	link := LinkSpec{
		Mbps: 50, RTT: 0.050, BufBytes: 600000,
		Jitter: netem.LognormalNoise{Median: 0.002, Sigma: 0.8},
	}
	path := link.Build(s)
	walk := &netem.RateWalk{Sim: s, Link: path.Link, Interval: 0.1, Sigma: 0.35, MinFac: 0.2, MaxFac: 1.0}
	walk.Start()
	cc := NewController(s, proto)
	snd := transport.NewSender(1, path, cc)
	snd.Burst = BurstFor(proto)
	snd.RecordRTT = true
	snd.Start()
	p := probed{name: name, path: path, protos: []string{proto}, senders: []*transport.Sender{snd}, marks: make([]int64, 1)}
	s.At(dur*0.2, func() { p.marks[0] = snd.AckedBytes() })
	s.Run(dur)
	mbps, _ := lteTrial(nil, "", seed, proto, dur)
	check(name, float64(snd.AckedBytes()-p.marks[0])*8/(dur*0.8)/1e6, mbps)
	return p.dump()
}

// goldenCellular mirrors pathRun on a model without outages.
func goldenCellular() string {
	const name, seed, dur = "cellular-no-outage", 4, 20.0
	m, err := pathmodel.ByName("lte", seed, dur)
	if err != nil {
		panic(err)
	}
	link := cellularLink("lte")
	flows := []FlowSpec{{Proto: ProtoBBR}, {Proto: ProtoProteusS, StartAt: dur * 0.1}}
	measureFrom := dur * 0.2
	s := sim.New(seed)
	path := link.Build(s)
	if err := pathmodel.ApplySim(s, path.Link, m, dur); err != nil {
		panic(err)
	}
	plan, hasFaults := pathmodel.FaultPlan(m, dur)
	if hasFaults {
		chaos.ApplySim(s, path.Link, path, plan, dur)
	}
	p := probed{name: name, path: path, marks: make([]int64, len(flows))}
	for i, f := range flows {
		cc := NewController(s, f.Proto)
		snd := transport.NewSender(i+1, path, cc)
		snd.Burst = BurstFor(f.Proto)
		snd.RecordRTT = true
		snd.Survival = hasFaults
		p.senders = append(p.senders, snd)
		p.protos = append(p.protos, f.Proto)
		if f.StartAt <= 0 {
			snd.Start()
		} else {
			at := f.StartAt
			s.At(at, func() { snd.Start() })
		}
	}
	s.At(measureFrom, func() {
		for i, snd := range p.senders {
			p.marks[i] = snd.AckedBytes()
		}
	})
	s.Run(dur)
	res, err := pathRun(nil, "", seed, m, link, flows, measureFrom, dur)
	if err != nil {
		panic(err)
	}
	for i, snd := range p.senders {
		check(name, float64(snd.AckedBytes()-p.marks[i])*8/(dur-measureFrom)/1e6, res[i].Mbps)
	}
	return p.dump()
}

// goldenLEO mirrors satelliteTrial: one handover blackout at t≈14.85.
func goldenLEO() string {
	const name, seed, proto, dur = "leo-handover", 1, ProtoProteusS, 20.0
	m := pathmodel.DefaultLEO(seed)
	s := sim.New(seed)
	link := LinkSpec{Mbps: m.Mbps, RTT: 0.050, BufBytes: 1_125_000}
	path := link.Build(s)
	if err := pathmodel.ApplySim(s, path.Link, m, dur); err != nil {
		panic(err)
	}
	plan, _ := pathmodel.FaultPlan(m, dur)
	chaos.ApplySim(s, path.Link, path, plan, dur)
	cc := NewController(s, proto)
	snd := transport.NewSender(1, path, cc)
	snd.Burst = BurstFor(proto)
	snd.Survival = true
	snd.RecordRTT = true
	secs := int(dur)
	perSec := make([]float64, secs)
	var prev int64
	for sec := 1; sec <= secs; sec++ {
		sec := sec
		s.At(float64(sec), func() {
			acked := snd.AckedBytes()
			perSec[sec-1] = float64(acked-prev) * 8 / 1e6
			prev = acked
		})
	}
	p := probed{name: name, path: path, protos: []string{proto}, senders: []*transport.Sender{snd},
		marks: make([]int64, 1), perSec: [][]float64{perSec}}
	measureFrom := dur * 0.1
	s.At(measureFrom, func() { p.marks[0] = snd.AckedBytes() })
	snd.Start()
	s.Run(dur)
	r, err := satelliteTrial(nil, "", seed, proto, dur)
	if err != nil {
		panic(err)
	}
	check(name, float64(snd.AckedBytes()-p.marks[0])*8/(dur-measureFrom)/1e6, r.mbps)
	return p.dump() + fmt.Sprintf("%s gate=%+v\n", name, r)
}

// goldenChaosSoak mirrors chaosSoakSim under the default plan.
func goldenChaosSoak() string {
	const name, seed, proto = "chaos-soak", 2, ProtoProteusP
	o := ChaosSoakOptions{Duration: 12}
	o.defaults()
	plan := o.Plan.Canonical()
	s := sim.New(seed)
	spec := LinkSpec{Mbps: o.Mbps, RTT: o.RTT, BufBytes: o.QueueBytes}
	path := spec.Build(s)
	snd := transport.NewSender(1, path, NewController(s, proto))
	snd.Survival = true
	snd.RecordRTT = true
	chaos.ApplySim(s, path.Link, path, plan, o.Duration)
	snd.Start()
	s.Run(o.Duration)
	mbps, trips, recov, attr := chaosSoakSim(seed, o, plan, proto)
	check(name, float64(snd.AckedBytes())*8/o.Duration/1e6, mbps)
	check(name, float64(snd.WatchdogTrips()), float64(trips))
	check(name, float64(snd.WatchdogRecoveries()), float64(recov))
	p := probed{name: name, path: path, protos: []string{proto}, senders: []*transport.Sender{snd}}
	return p.dump() + fmt.Sprintf("%s attr=%+v\n", name, attr)
}

// goldenIncast mirrors incastTrial.
func goldenIncast() string {
	const name, seed, proto, timeout = "incast", 1, ProtoCubic, 30.0
	ic := pathmodel.Incast{FanIn: 8}.WithDefaults()
	s := sim.New(seed)
	path := ic.Build(s)
	p := probed{name: name, path: path, done: make([]float64, ic.FanIn)}
	for i := 0; i < ic.FanIn; i++ {
		i := i
		cc := NewController(s, proto)
		snd := transport.NewSender(i+1, path, cc)
		snd.Burst = BurstFor(proto)
		snd.Limit = ic.Bytes
		snd.RecordRTT = true
		snd.OnComplete = func(now float64) { p.done[i] = now }
		snd.Start()
		p.senders = append(p.senders, snd)
		p.protos = append(p.protos, proto)
	}
	s.Run(timeout)
	goodput, jain, p50, p99 := incastTrial(seed, proto, ic)
	last := 0.0
	for _, d := range p.done {
		if d > last {
			last = d
		}
	}
	check(name, float64(int64(ic.FanIn)*ic.Bytes)*8/last/1e6, goodput)
	return p.dump() + fmt.Sprintf("%s goodput=%v jain=%v p50=%v p99=%v\n", name, goodput, jain, p50, p99)
}

// goldenApps pins what the application trials and the constructor-built
// ablation flows return; they expose no senders, so their outputs are
// the pin.
func goldenApps() string {
	var b strings.Builder
	devs, grads := fig2Trial(nil, "", 1, 6, 10)
	fmt.Fprintf(&b, "fig2 windows=%d lastdev=%v lastgrad=%v\n", len(devs), devs[len(devs)-1], grads[len(grads)-1])
	fmt.Fprintf(&b, "fig11-video bitrate=%v\n", fig11VideoTrial(1, 2, ProtoProteusS, 20))
	plts := fig11WebTrial(2, ProtoCubic, 40)
	fmt.Fprintf(&b, "fig11-web loads=%d last=%v\n", len(plts), plts[len(plts)-1])
	for _, mode := range []string{ProtoProteusH, ProtoProteusP} {
		m4k, m1080 := fig12Trial(1, 90, mode, false, 20)
		fmt.Fprintf(&b, "fig12 mode=%s 4k=%+v 1080=%+v\n", mode, m4k, m1080)
	}
	dashMbps, fplts, fetchBytes := fetchYieldTrial(1, ProtoProteusS, 20)
	fmt.Fprintf(&b, "fetch dash=%v loads=%d bytes=%d\n", dashMbps, len(fplts), fetchBytes)
	v := AblationVariants()[2]
	fmt.Fprintf(&b, "ablation variant=%s solo=%v yield=%v\n", v.Name,
		ablationSolo(1, v, emulabLink(375000), 15), ablationYield(1, v, emulabLink(375000), 40))
	wo := WireParityOptions{Duration: 8}
	wo.defaults()
	mbps, mean, p95, loss := wireParitySim(3, wo, ProtoProteusS)
	fmt.Fprintf(&b, "parity-sim mbps=%v mean=%v p95=%v loss=%v\n", mbps, mean, p95, loss)
	mbps, mean, p95, loss, err := pathParitySim(3, wo, ProtoProteusP, ParityStaircase(wo.Mbps))
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "parity-model-sim mbps=%v mean=%v p95=%v loss=%v\n", mbps, mean, p95, loss)
	return b.String()
}
