package exp

import (
	"fmt"
	"strings"
	"testing"

	"pccproteus/internal/core"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
)

// TestScenariosGolden pins, with ==, what a set of small scenarios does
// at the level below any figure: every flow's acked and lost bytes, its
// last RTT sample, and the bottleneck's counters. Between them the
// scenarios use every part of a Scenario — a static two-flow link with
// a late start, a solo flow under jitter and bursty acks, the
// per-second series, a Setup hook (the LTE rate walk), a path model
// without outages, the LEO model with handover blackouts, an injected
// fault plan (the default chaos soak), byte limits (an incast wave) —
// plus the application trials (Fig 2 cross traffic, DASH, page loads,
// hybrid video, bulk fetch) and constructor-built flows. Floats print
// in their shortest round-trip form, so a one-ulp drift fails.
//
// The file was captured from the per-figure simulation builders that
// Run replaced (each checked against a hand-built replica of itself),
// so it also says the runner's construction order reproduces all of
// theirs. Regenerate with -update only when a change means to move
// these numbers.
func TestScenariosGolden(t *testing.T) {
	var b strings.Builder
	dump := func(name string, perSec bool, sc Scenario) Outcome {
		out := Run(sc)
		for i, f := range out.Flows {
			last := 0.0
			if n := len(f.RTTSamples); n > 0 {
				last = f.RTTSamples[n-1]
			}
			fmt.Fprintf(&b, "%s flow=%d proto=%s acked=%d lost=%d window=%d rtts=%d lastrtt=%v done=%v trips=%d recov=%d\n",
				name, i+1, f.Proto, f.AckedBytes, f.LostBytes, f.WindowBytes,
				len(f.RTTSamples), last, f.DoneAt, f.WatchdogTrips, f.WatchdogRecoveries)
			if perSec {
				fmt.Fprintf(&b, "%s flow=%d persec=%v\n", name, i+1, f.PerSec)
			}
		}
		fmt.Fprintf(&b, "%s link=%+v path=%+v\n", name, out.Link, out.Path)
		return out
	}

	dump("two-flow-late-start", false, Scenario{Seed: 1, Link: emulabLink(375000),
		Flows: []FlowSpec{{Proto: ProtoCubic}, {Proto: ProtoProteusS, StartAt: 8}}, MeasureFrom: 10, Duration: 25})

	dump("solo-jitter-ackhold", false, Scenario{Seed: 3, Link: WiFiProfiles(3, 7)[2].Link, // lognormal jitter, spikes, AckHold
		Flows: solo(ProtoProteusP), MeasureFrom: 5, Duration: 20})

	dump("timeline", true, Scenario{Seed: 1, Link: emulabLink(375000),
		Flows: []FlowSpec{{Proto: ProtoBBR}, {Proto: ProtoBBRS, StartAt: 5}}, Duration: 20})

	dump("lte-ratewalk", false, Scenario{Seed: 2, Flows: solo(ProtoVivace), MeasureFrom: 20 * 0.2, Duration: 20,
		Link: LinkSpec{Mbps: 50, RTT: 0.050, BufBytes: 600000, Jitter: netem.LognormalNoise{Median: 0.002, Sigma: 0.8}},
		Setup: func(e *Env) {
			walk := &netem.RateWalk{Sim: e.S, Link: e.Path.Link, Interval: 0.1, Sigma: 0.35, MinFac: 0.2, MaxFac: 1.0}
			walk.Start()
		}})

	lte, err := pathmodel.ByName("lte", 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	dump("cellular-no-outage", false, Scenario{Seed: 4, Link: cellularLink("lte"), Model: lte,
		Flows: []FlowSpec{{Proto: ProtoBBR}, {Proto: ProtoProteusS, StartAt: 20 * 0.1}}, MeasureFrom: 20 * 0.2, Duration: 20})

	// One handover blackout at t≈14.85.
	leo := pathmodel.DefaultLEO(1)
	dump("leo-handover", true, Scenario{Seed: 1, Link: LinkSpec{Mbps: leo.Mbps, RTT: 0.050, BufBytes: 1_125_000}, Model: leo,
		Flows: solo(ProtoProteusS), MeasureFrom: 20 * 0.1, Duration: 20})
	g := satelliteTrial(nil, "", 1, ProtoProteusS, 20)
	fmt.Fprintf(&b, "leo-handover gate={mbps:%v pre:%v post:%v recov:%v survived:%v}\n", g[0], g[1], g[2], g[3], g[4] == 1)

	plan := DefaultSoakPlan(12)
	out := dump("chaos-soak", false, Scenario{Seed: 2, Link: crossWorldLink, Flows: solo(ProtoProteusP), Faults: &plan, Duration: 12})
	fmt.Fprintf(&b, "chaos-soak attr={FaultDrop:%d AckDropped:%d Corrupted:%d Duplicated:%d Reordered:%d Flushed:%d}\n",
		out.Link.FaultDrop, out.Path.AckDropped, out.Link.Corrupted, out.Link.Duplicated, out.Link.Reordered, out.Link.Flushed)

	ic := pathmodel.Incast{FanIn: 8}.WithDefaults()
	wave := make([]FlowSpec, ic.FanIn)
	for i := range wave {
		wave[i] = FlowSpec{Proto: ProtoCubic, Limit: ic.Bytes}
	}
	dump("incast", false, Scenario{Seed: 1, Flows: wave, Duration: 30,
		Link: LinkSpec{Mbps: ic.Mbps, RTT: ic.RTT, BufBytes: ic.BufPkts * netem.MTU}})
	w := incastTrial(1, ProtoCubic, ic)
	fmt.Fprintf(&b, "incast goodput=%v jain=%v p50=%v p99=%v\n", w[0], w[1], w[2], w[3])

	// The application trials and the constructor-built ablation flows
	// expose no senders, so what they return is the pin.
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
	alone := Run(Scenario{Seed: 1, Link: emulabLink(375000), MeasureFrom: 15 * 0.2, Duration: 15,
		Flows: []FlowSpec{v.flow(ProtoProteusP, core.NewPrimary(), 0)}}).Flows[0].Mbps
	pair := Run(Scenario{Seed: 1, Link: emulabLink(375000), MeasureFrom: 40 * 0.4, Duration: 40,
		Flows: []FlowSpec{v.flow(ProtoProteusP, core.NewPrimary(), 0), v.flow(ProtoProteusS, core.NewScavenger(), 20)}}).Flows
	pT, sT := float64(pair[0].WindowBytes), float64(pair[1].WindowBytes)
	fmt.Fprintf(&b, "ablation variant=%s solo=%v yield=%v\n", v.Name, alone, pT/(pT+sT))

	wo := CrossWorldOptions{Duration: 8}
	for _, c := range []struct {
		name  string
		proto string
		model pathmodel.Model
	}{{"parity-sim", ProtoProteusS, nil}, {"parity-model-sim", ProtoProteusP, ParityStaircase(crossWorldLink.Mbps)}} {
		row := WireParityRow{Proto: c.proto}
		row.fillSim(wo, 3, c.model)
		fmt.Fprintf(&b, "%s mbps=%v mean=%v p95=%v loss=%v\n", c.name, row.SimMbps, row.SimMeanRTT, row.SimP95RTT, row.SimLoss)
	}

	// bbr2 through Startup, Drain and a Refill/Up probe, with both
	// inflight cuts: a shallow buffer, random loss and a late CUBIC.
	dump("bbr2-shallow-loss", true, Scenario{Seed: 3, Link: LinkSpec{Mbps: 50, RTT: 0.030, BufBytes: 47000, LossProb: 0.01},
		Flows: []FlowSpec{{Proto: ProtoBBR2}, {Proto: ProtoCubic, StartAt: 8}}, Duration: 24})

	compareGolden(t, "scenarios.golden", []byte(b.String()))
}
