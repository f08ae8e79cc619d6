package exp

import (
	"fmt"
	"sort"

	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/stats"
)

// ---------------------------------------------------------------------
// Extension: pathmodel-driven scenarios (cellular, LEO satellite,
// datacenter incast). These figures run the same controllers on the
// composable time-varying path models of internal/pathmodel — the
// trace-driven LTE/5G channels, the periodic LEO constellation with
// handover micro-blackouts, and the synchronized incast fan-in — the
// environments §7.2 names beyond the paper's static-bottleneck grid.
// ---------------------------------------------------------------------

// cellularLink is the base path under a cellular model: the model
// rewrites capacity (and extra delay) from t=0, so only the RTT and
// buffer here matter.
func cellularLink(model string) LinkSpec {
	if model == "5g" {
		// mmWave-class: short RTT, buffer sized for the LoS rate.
		return LinkSpec{Mbps: 190, RTT: 0.020, BufBytes: 950_000}
	}
	return LinkSpec{Mbps: 25, RTT: 0.050, BufBytes: 600_000}
}

// cellularModels builds one trace per trial, regenerated from the
// trial's seed; every protocol of a figure meets the same channels.
func cellularModels(o Options, model string) ([]pathmodel.Model, error) {
	ms := make([]pathmodel.Model, o.Trials)
	for t := range ms {
		m, err := pathmodel.ByName(model, o.seedFor(int64(t+1)), o.Duration)
		if err != nil {
			return nil, err
		}
		ms[t] = m
	}
	return ms, nil
}

// CellularSolo runs each protocol alone on a trace-driven cellular
// channel (model "lte" or "5g", regenerated per trial seed) and
// reports throughput and 95th-percentile RTT.
func CellularSolo(o Options, protocols []string, model string) (*Table, error) {
	o = o.withDefaults()
	models, err := cellularModels(o, model)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Cellular (%s trace model): solo flows", model),
		XLabel:  "protocol",
		Columns: []string{"Mbps", "p95RTT(ms)"},
	}
	dur := o.Duration
	for _, proto := range protocols {
		m := meanOver(o, func(trial int, seed int64) []float64 {
			r := Run(Scenario{Trace: o.Trace, Label: fmt.Sprintf("cell_%s_%s_s%d", model, proto, trial), Seed: seed,
				Link: cellularLink(model), Model: models[trial-1], Flows: solo(proto), MeasureFrom: dur * 0.2, Duration: dur}).Flows[0]
			return []float64{r.Mbps, r.P95RTT()}
		})
		t.Rows = append(t.Rows, TableRow{XName: proto, Cells: []float64{m[0], m[1] * 1000}})
	}
	return t, nil
}

// CellularYield measures scavenger yielding on the cellular channel:
// each primary runs solo and then with a Proteus-S scavenger joining
// at 10% of the run, reporting the primary's retained share and the
// scavenger's take.
func CellularYield(o Options, model string) (*Table, error) {
	o = o.withDefaults()
	models, err := cellularModels(o, model)
	if err != nil {
		return nil, err
	}
	primaries := []string{ProtoCubic, ProtoBBR, ProtoBBR2, ProtoCopa, ProtoProteusP}
	t := &Table{
		Title:   fmt.Sprintf("Cellular (%s trace model): primary + Proteus-S scavenger", model),
		XLabel:  "primary",
		Columns: []string{"solo Mbps", "shared Mbps", "yield%", "scav Mbps"},
	}
	dur := o.Duration
	for _, primary := range primaries {
		// Primary alone, primary sharing, scavenger.
		m := meanOver(o, func(trial int, seed int64) []float64 {
			sc := Scenario{Trace: o.Trace, Label: fmt.Sprintf("cellyield_%s_%s_solo_s%d", model, primary, trial), Seed: seed,
				Link: cellularLink(model), Model: models[trial-1], Flows: solo(primary), MeasureFrom: dur * 0.2, Duration: dur}
			alone := Run(sc).Flows[0].Mbps
			sc.Label = fmt.Sprintf("cellyield_%s_%s_scav_s%d", model, primary, trial)
			sc.Flows = []FlowSpec{{Proto: primary}, {Proto: ProtoProteusS, StartAt: dur * 0.1}}
			shared := Run(sc).Flows
			return []float64{alone, shared[0].Mbps, shared[1].Mbps}
		})
		yield := nan()
		if m[0] > 0 {
			yield = m[1] / m[0] * 100
		}
		t.Rows = append(t.Rows, TableRow{XName: primary, Cells: []float64{m[0], m[1], yield, m[2]}})
	}
	return t, nil
}

// satelliteRecoverFrac is the survival gate around one LEO handover at
// second h (outage tail of the pass, healing at h+0.15): pre is the
// best of the two full seconds before the outage, post the best of the
// three seconds after healing — the same ≥80%-within-3s gate the chaos
// blackout tests apply.
const satelliteRecoverFrac = 0.8

// SatelliteSurvival runs each protocol through the LEO constellation
// model — periodic capacity/delay passes with a handover micro-
// blackout every period — and reports overall throughput plus the
// handover-survival gate: worst-case post/pre recovery across the
// run's handovers, and the fraction of trials where every handover
// recovered to ≥80% within 3 s.
func SatelliteSurvival(o Options, protocols []string) *Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "LEO satellite: throughput across handover micro-blackouts",
		XLabel:  "protocol",
		Columns: []string{"Mbps", "pre Mbps", "post Mbps", "recov%", "surv%"},
	}
	// Two full handovers (t≈14.85 and t≈29.85 at the default 15 s
	// period) plus recovery room.
	const dur = 45.0
	for _, proto := range protocols {
		m := meanOver(o, func(trial int, seed int64) []float64 {
			return satelliteTrial(o.Trace, fmt.Sprintf("sat_%s_s%d", proto, trial), seed, proto, dur)
		})
		t.Rows = append(t.Rows, TableRow{XName: proto, Cells: []float64{m[0], m[1], m[2], m[3] * 100, m[4] * 100}})
	}
	return t
}

// satelliteTrial runs one protocol once on the LEO model and evaluates
// the handover gate on its per-second throughput: overall Mbps, mean
// pre- and post-handover Mbps, worst recovery ratio, and 1 if every
// handover passed.
func satelliteTrial(tc *Tracing, scenario string, seed int64, proto string, dur float64) []float64 {
	m := pathmodel.DefaultLEO(seed)
	f := Run(Scenario{Trace: tc, Label: scenario, Seed: seed, Model: m,
		Link:  LinkSpec{Mbps: m.Mbps, RTT: 0.050, BufBytes: 1_125_000},
		Flows: solo(proto), MeasureFrom: dur * 0.1, Duration: dur}).Flows[0]
	perSec, secs := f.PerSec, int(dur)
	plan, _ := pathmodel.FaultPlan(m, dur)
	pre, post, recov, survived := 0.0, 0.0, 1.0, 1.0
	// Gate every handover whose 3 s recovery window fits in the run.
	// The recovery target is min(pre-handover rate, post-handover
	// capacity): successive passes draw different capacities (±35%
	// jitter), and no controller can restore a rate the new pass does
	// not offer — but within what it offers, this is exactly the raw
	// ≥80%-within-3s chaos gate.
	for _, f := range plan.Faults {
		heal := f.At + f.Dur
		if int(f.At) < 2 || int(heal)+3 > secs {
			continue
		}
		// Best of the two full seconds ending before the outage starts.
		preSec := int(f.At) // the outage's covering second (0-indexed)
		p := perSec[preSec-2]
		if perSec[preSec-1] > p {
			p = perSec[preSec-1]
		}
		// Best throughput — and best capacity — over the three seconds
		// after healing.
		q, postCap := 0.0, 0.0
		for k := int(heal); k < int(heal)+3; k++ {
			if perSec[k] > q {
				q = perSec[k]
			}
			if c := pathmodel.ClampMbps(m.StateAt(float64(k) + 0.5).Mbps); c > postCap {
				postCap = c
			}
		}
		target := p
		if postCap < target {
			target = postCap
		}
		pre += p
		post += q
		ratio := 1.0
		if target > 0 {
			ratio = q / target
		}
		if ratio < recov {
			recov = ratio
		}
		if q < satelliteRecoverFrac*target {
			survived = 0
		}
	}
	if n := float64(len(plan.Faults)); n > 0 {
		pre /= n
		post /= n
	}
	return []float64{f.Mbps, pre, post, recov, survived}
}

// IncastFairness runs the synchronized incast wave: FanIn senders of
// the same protocol release equal responses into the shallow-buffered
// fan-in port at t=0, and the table reports aggregate goodput, Jain's
// fairness over per-flow completion rates, and the p50/p99 flow
// completion times.
func IncastFairness(o Options, protocols []string) *Table {
	o = o.withDefaults()
	ic := pathmodel.Incast{}.WithDefaults()
	t := &Table{
		Title: fmt.Sprintf("Incast: %d synchronized senders, %d KiB responses, %d-packet buffer",
			ic.FanIn, ic.Bytes>>10, ic.BufPkts),
		XLabel:  "protocol",
		Columns: []string{"goodput Mbps", "Jain", "p50 FCT(ms)", "p99 FCT(ms)"},
	}
	for _, proto := range protocols {
		m := meanOver(o, func(_ int, seed int64) []float64 { return incastTrial(seed, proto, ic) })
		t.Rows = append(t.Rows, TableRow{XName: proto, Cells: []float64{m[0], m[1], m[2] * 1000, m[3] * 1000}})
	}
	return t
}

// incastTrial runs one synchronized wave and returns aggregate goodput
// (total bytes over the wave's completion time), Jain's index over
// per-flow completion rates, and the p50/p99 FCTs.
func incastTrial(seed int64, proto string, ic pathmodel.Incast) []float64 {
	const timeout = 30.0
	flows := make([]FlowSpec, ic.FanIn)
	for i := range flows {
		flows[i] = FlowSpec{Proto: proto, Limit: ic.Bytes}
	}
	out := Run(Scenario{Seed: seed, Flows: flows, Duration: timeout,
		Link: LinkSpec{Mbps: ic.Mbps, RTT: ic.RTT, BufBytes: ic.BufPkts * netem.MTU}})
	fcts := make([]float64, ic.FanIn)
	rates := make([]float64, ic.FanIn)
	last := 0.0
	for i, f := range out.Flows {
		fcts[i] = f.DoneAt
		if f.DoneAt == 0 {
			fcts[i] = timeout
		}
		rates[i] = float64(ic.Bytes) / fcts[i]
		if fcts[i] > last {
			last = fcts[i]
		}
	}
	sort.Float64s(fcts)
	return []float64{float64(int64(ic.FanIn)*ic.Bytes) * 8 / last / 1e6, stats.JainIndex(rates),
		stats.PercentileSorted(fcts, 50), stats.PercentileSorted(fcts, 99)}
}

// PathModelWireParity cross-validates the two senders under a
// trace-driven model: pathmodel.Install puts the same schedule on the
// path under the simulated transport and on the path under the engine,
// and each protocol's throughput must agree within the standard parity
// tolerance. A nil model selects the default parity staircase — capacity
// and delay steps every few seconds, slow enough that both controllers
// converge between steps, so the gate measures how the two senders hold
// a rate, not how each chases 100 ms fades.
func PathModelWireParity(o CrossWorldOptions, m pathmodel.Model) (*WireParityResult, error) {
	o.defaults(12)
	if m == nil {
		m = ParityStaircase(crossWorldLink.Mbps)
	}
	if err := pathmodel.Validate(m, o.Duration); err != nil {
		return nil, err
	}
	return wireParity(o, m)
}

// ParityStaircase is the default trace for the sim-vs-wire model gate:
// a deterministic capacity staircase around the base rate (0.5×, 1.5×,
// 0.75×, 1.25×…) with a delay bump on one tread, each tread lasting
// segLen seconds and the whole pattern looping over the duration.
func ParityStaircase(baseMbps float64) *pathmodel.Trace {
	const segLen = 2.5
	factors := []float64{1.0, 0.5, 1.5, 0.75, 1.25}
	extras := []float64{0, 0.010, 0, 0.005, 0}
	tr := &pathmodel.Trace{Label: "parity-stairs", Loop: true, Step: segLen}
	for i, f := range factors {
		tr.Points = append(tr.Points, pathmodel.TracePoint{
			T: float64(i) * segLen, Mbps: baseMbps * f, ExtraDelay: extras[i],
		})
	}
	return tr
}
