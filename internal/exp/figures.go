package exp

import (
	"fmt"
	"math"

	"pccproteus/internal/cc/cubic"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// Options tunes experiment size. The zero value gives paper-scale runs;
// Fast selects reduced grids and durations for tests and benchmarks.
// Trace, when non-nil, attaches a flight recorder to every simulation
// and writes per-flow JSONL event files (see Tracing).
type Options struct {
	Trials   int
	Duration float64
	Fast     bool
	Trace    *Tracing

	// Seed offsets every per-trial RNG seed. Zero keeps the historical
	// fixed seeds (1, 2, 3, …) so default figure output is unchanged;
	// any other value remaps each trial seed through wire.MixSeed,
	// giving an independent but still deterministic replication.
	Seed int64

	// Workers bounds the campaign worker pool that runs independent
	// trials. Zero means one worker per CPU. Figure output is identical
	// for any value: trial results fold in trial order.
	Workers int
}

// seedFor maps a stable per-trial index to the seed actually used.
func (o Options) seedFor(n int64) int64 {
	if o.Seed == 0 {
		return n
	}
	return wire.MixSeed(o.Seed, n)
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		if o.Fast {
			o.Trials = 1
		} else {
			o.Trials = 3
		}
	}
	if o.Duration == 0 {
		if o.Fast {
			o.Duration = 60
		} else {
			o.Duration = 100
		}
	}
	return o
}

// emulabLink is the default §6 bottleneck: 50 Mbps, 30 ms RTT.
func emulabLink(bufBytes int) LinkSpec {
	return LinkSpec{Mbps: 50, RTT: 0.030, BufBytes: bufBytes}
}

// solo is the one-flow list most sweeps run.
func solo(proto string) []FlowSpec { return []FlowSpec{{Proto: proto}} }

// ---------------------------------------------------------------------
// Figure 2: RTT deviation vs RTT gradient as competition indicators.
// ---------------------------------------------------------------------

// Fig2Result carries the PDFs of the two metrics under each cross-flow
// arrival rate, plus the confusion probabilities.
type Fig2Result struct {
	ArrivalRates   []float64
	DevHistograms  []*stats.Histogram // per arrival rate, deviation (ms)
	GradHistograms []*stats.Histogram // per arrival rate, |gradient|
	DevConfusion   float64            // P(metric(9/s) < metric(0/s))
	GradConfusion  float64
}

// recordingCC wraps a controller and keeps (sentAt, rtt) pairs.
type recordingCC struct {
	transport.Controller
	sentAt []float64
	rtts   []float64
}

func (r *recordingCC) OnAck(a transport.Ack) {
	r.sentAt = append(r.sentAt, a.SentAt)
	r.rtts = append(r.rtts, a.RTT)
	r.Controller.OnAck(a)
}

// Fig2 reproduces the §4.2 measurement: a 20 Mbps constant-rate probe on
// a 100 Mbps / 60 ms / 2·BDP bottleneck, with Poisson arrivals of short
// CUBIC flows (uniform 20–100 KB) at 0–9 flows/sec; RTT deviation and
// |RTT gradient| are computed over consecutive 1.5·RTT windows.
func Fig2(o Options) Fig2Result {
	o = o.withDefaults()
	res := Fig2Result{ArrivalRates: []float64{0, 3, 6, 9}}
	dur := 120.0
	if o.Fast {
		dur = 40
	}
	var devSamples, gradSamples [][]float64
	for _, rate := range res.ArrivalRates {
		devs, grads := fig2Trial(o.Trace, fmt.Sprintf("fig2_rate%g", rate), o.seedFor(1), rate, dur)
		devSamples = append(devSamples, devs)
		gradSamples = append(gradSamples, grads)
		dh := stats.NewHistogram(0, 0.0014, 28) // 0–1.4 ms as in Fig. 2(a)
		for _, d := range devs {
			dh.Add(d)
		}
		gh := stats.NewHistogram(0, 0.02, 28) // 0–0.02 as in Fig. 2(b)
		for _, g := range grads {
			gh.Add(g)
		}
		res.DevHistograms = append(res.DevHistograms, dh)
		res.GradHistograms = append(res.GradHistograms, gh)
	}
	res.DevConfusion = stats.ConfusionProbability(devSamples[0], devSamples[len(devSamples)-1])
	res.GradConfusion = stats.ConfusionProbability(gradSamples[0], gradSamples[len(gradSamples)-1])
	return res
}

func fig2Trial(tc *Tracing, scenario string, seed int64, flowsPerSec, dur float64) (devs, grads []float64) {
	// Mild ambient jitter mirrors the measurement noise visible in the
	// paper's clean-case PDFs (their 0-flows curves are spread, not a
	// spike at zero); without it both metrics trivially read zero on an
	// idle link and the comparison degenerates.
	link := LinkSpec{Mbps: 100, RTT: 0.060, BufBytes: 1500 * 1000,
		Jitter: netem.LognormalNoise{Median: 0.00005, Sigma: 0.7}}
	probe := &recordingCC{}
	Run(Scenario{Trace: tc, Label: scenario, Seed: seed, Link: link, Duration: dur,
		// The paper's probe is a smooth constant-rate UDP flow.
		Flows: []FlowSpec{{Proto: "fixed:20", New: func(s *sim.Sim) transport.Controller {
			probe.Controller = NewController(s, "fixed:20")
			return probe
		}}},
		Setup: func(e *Env) {
			if flowsPerSec <= 0 {
				return
			}
			// Poisson CUBIC cross traffic.
			s, nextID := e.S, 2
			var spawn func()
			spawn = func() {
				size := 20000 + s.Rand().Int63n(80001)
				// IW=3 as in the era's kernels (the flow then lives several
				// RTTs), and no pacing: classic TCP emits each window as a
				// line-rate burst — the transient queueing the paper's
				// deviation signal keys on.
				f := transport.NewSender(nextID, e.Path, cubic.NewWithIW(3))
				f.NoPacing = true
				nextID++
				f.Limit = size
				f.Start()
				s.After(s.Rand().ExpFloat64()/flowsPerSec, spawn)
			}
			s.After(s.Rand().ExpFloat64()/flowsPerSec, spawn)
		},
	})
	// Windowed analysis: consecutive 1.5·RTT windows by send time.
	win := 1.5 * link.RTT
	i := 0
	for i < len(probe.sentAt) {
		j := i
		for j < len(probe.sentAt) && probe.sentAt[j] < probe.sentAt[i]+win {
			j++
		}
		if j-i >= 4 {
			reg := stats.LinearRegression(probe.sentAt[i:j], probe.rtts[i:j])
			grads = append(grads, math.Abs(reg.Slope))
			devs = append(devs, stats.StdDev(probe.rtts[i:j]))
		}
		i = j
	}
	return devs, grads
}

// ---------------------------------------------------------------------
// Figure 3 (and 15): bottleneck saturation with varying buffer size.
// ---------------------------------------------------------------------

// Fig3 sweeps the buffer from 4.5 KB to 900 KB on the 50 Mbps / 30 ms
// link and reports each protocol's throughput and 95th-percentile
// inflation ratio. fig is the number in the titles: 3 with the §6
// protocol set, 15 with Appendix B's.
func Fig3(o Options, fig int, protocols []string) (throughput, inflation *Table) {
	o = o.withDefaults()
	buffers := []int{4500, 9000, 18750, 37500, 75000, 150000, 300000, 375000, 625000, 900000}
	if o.Fast {
		buffers = []int{4500, 37500, 150000, 375000, 900000}
	}
	throughput = &Table{Title: fmt.Sprintf("Fig %d(a): throughput (Mbps) vs buffer size", fig), XLabel: "buffer(KB)", Columns: protocols}
	inflation = &Table{Title: fmt.Sprintf("Fig %d(b): 95th-percentile inflation ratio vs buffer size", fig), XLabel: "buffer(KB)", Columns: protocols}
	for _, buf := range buffers {
		link := emulabLink(buf)
		tRow := TableRow{X: float64(buf) / 1000}
		iRow := TableRow{X: float64(buf) / 1000}
		for _, proto := range protocols {
			m := meanOver(o, func(_ int, seed int64) []float64 {
				tput := Run(Scenario{Trace: o.Trace, Label: fmt.Sprintf("fig3_buf%d_%s_s%d", buf, proto, seed),
					Seed: seed, Link: link, Flows: solo(proto), MeasureFrom: o.Duration * 0.2, Duration: o.Duration}).Flows[0].Mbps
				r := Run(Scenario{Seed: seed + 100, Link: link, Flows: solo(proto),
					MeasureFrom: o.Duration * 0.2, Duration: o.Duration}).Flows[0]
				base := link.RTT + float64(netem.MTU)/(link.Mbps*1e6/8)
				return []float64{tput, (r.P95RTT() - base) / (float64(buf) / (link.Mbps * 1e6 / 8))}
			})
			tRow.Cells = append(tRow.Cells, m[0])
			iRow.Cells = append(iRow.Cells, m[1])
		}
		throughput.Rows = append(throughput.Rows, tRow)
		inflation.Rows = append(inflation.Rows, iRow)
	}
	return throughput, inflation
}

// ---------------------------------------------------------------------
// Figure 4 (and 16): random loss tolerance.
// ---------------------------------------------------------------------

// Fig4 sweeps non-congestion loss from 0 to 6% with a 2·BDP buffer.
func Fig4(o Options, fig int, protocols []string) *Table {
	o = o.withDefaults()
	losses := []float64{0, 0.001, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06}
	if o.Fast {
		losses = []float64{0, 0.01, 0.03, 0.05}
	}
	t := &Table{Title: fmt.Sprintf("Fig %d: throughput (Mbps) vs random loss rate", fig), XLabel: "loss", Columns: protocols}
	for _, loss := range losses {
		link := emulabLink(375000)
		link.LossProb = loss
		row := TableRow{X: loss}
		for _, proto := range protocols {
			row.Cells = append(row.Cells, meanOver(o, func(_ int, seed int64) []float64 {
				return []float64{Run(Scenario{Trace: o.Trace, Label: fmt.Sprintf("fig4_loss%g_%s_s%d", loss, proto, seed),
					Seed: seed, Link: link, Flows: solo(proto), MeasureFrom: o.Duration * 0.2, Duration: o.Duration}).Flows[0].Mbps}
			})[0])
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ---------------------------------------------------------------------
// Figure 5 (and 17): Jain's fairness index with competing flows.
// ---------------------------------------------------------------------

// Fig5 runs n = 2..10 same-protocol flows on a 20n Mbps / 300n KB link,
// each flow starting 20 s after the previous one, and measures Jain's
// index over the 200 s after the last start.
func Fig5(o Options, fig int, protocols []string) *Table {
	o = o.withDefaults()
	ns := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	measure := 200.0
	if o.Fast {
		ns = []int{2, 4, 6}
		measure = 60
	}
	t := &Table{Title: fmt.Sprintf("Fig %d: Jain's fairness index vs number of flows", fig), XLabel: "flows", Columns: protocols}
	for _, n := range ns {
		link := LinkSpec{Mbps: 20 * float64(n), RTT: 0.030, BufBytes: 300000 * n}
		row := TableRow{X: float64(n)}
		for _, proto := range protocols {
			row.Cells = append(row.Cells, meanOver(o, func(_ int, seed int64) []float64 {
				flows := make([]FlowSpec, n)
				for i := range flows {
					flows[i] = FlowSpec{Proto: proto, StartAt: float64(i) * 20}
				}
				lastStart := float64(n-1) * 20
				res := Run(Scenario{Trace: o.Trace, Label: fmt.Sprintf("fig5_n%d_%s_s%d", n, proto, seed),
					Seed: seed, Link: link, Flows: flows, MeasureFrom: lastStart, Duration: lastStart + measure}).Flows
				tputs := make([]float64, n)
				for i, r := range res {
					tputs[i] = r.Mbps
				}
				return []float64{stats.JainIndex(tputs)}
			})[0])
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ---------------------------------------------------------------------
// Figure 6 (and 19): scavenger competing with primary protocols.
// ---------------------------------------------------------------------

// Fig6Cell is one (scavenger, primary, buffer) outcome.
type Fig6Cell struct {
	Scavenger, Primary string
	BufBytes           int
	PrimaryRatio       float64 // primary tput with scavenger / alone
	Utilization        float64 // joint tput / capacity
	RTTRatio           float64 // 95th RTT with scavenger / alone (Fig 7)
}

// Fig6 runs the §6.2 two-flow competition: one primary flow, then one
// scavenger 20 s later, under 75 KB (0.4 BDP) and 375 KB (2 BDP)
// buffers. It also yields the Figure 7 RTT ratios (375 KB case).
func Fig6(o Options, scavengers []string) []Fig6Cell {
	o = o.withDefaults()
	buffers := []int{75000, 375000}
	var cells []Fig6Cell
	dur := 180.0
	measureFrom := 60.0
	if o.Fast {
		dur, measureFrom = 120, 50
	}
	for _, buf := range buffers {
		link := emulabLink(buf)
		for _, primary := range Primaries {
			// Baseline: the primary alone (throughput, 95th RTT).
			alone := meanOver(o, func(trial int, seed int64) []float64 {
				r := Run(Scenario{Trace: o.Trace, Label: fmt.Sprintf("fig6_buf%d_%s_solo_s%d", buf, primary, trial),
					Seed: seed, Link: link, Flows: solo(primary), MeasureFrom: measureFrom, Duration: dur}).Flows[0]
				return []float64{r.Mbps, r.P95RTT()}
			})
			for _, scv := range scavengers {
				// Primary and scavenger throughput, primary 95th RTT.
				m := meanOver(o, func(trial int, seed int64) []float64 {
					res := Run(Scenario{Trace: o.Trace, Label: fmt.Sprintf("fig6_buf%d_%s_vs_%s_s%d", buf, primary, scv, trial),
						Seed: seed, Link: link, Flows: []FlowSpec{{Proto: primary}, {Proto: scv, StartAt: 20}},
						MeasureFrom: measureFrom, Duration: dur}).Flows
					return []float64{res[0].Mbps, res[1].Mbps, res[0].P95RTT()}
				})
				cells = append(cells, Fig6Cell{
					Scavenger: scv, Primary: primary, BufBytes: buf,
					PrimaryRatio: m[0] / alone[0],
					Utilization:  (m[0] + m[1]) / link.Mbps,
					RTTRatio:     m[2] / alone[1],
				})
			}
		}
	}
	return cells
}

// Fig6Table renders the yield matrix for one scavenger; fig is the
// label in its title ("6", or "19/20" for the Appendix-B set).
func Fig6Table(cells []Fig6Cell, fig, scavenger string) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig %s: %s as scavenger — primary throughput ratio / joint utilization", fig, scavenger),
		XLabel:  "primary",
		Columns: []string{"ratio@75KB", "util@75KB", "ratio@375KB", "util@375KB", "rttRatio@375KB"},
	}
	for _, primary := range Primaries {
		row := TableRow{XName: primary, Cells: []float64{nan(), nan(), nan(), nan(), nan()}}
		for _, c := range cells {
			if c.Scavenger != scavenger || c.Primary != primary {
				continue
			}
			if c.BufBytes == 75000 {
				row.Cells[0], row.Cells[1] = c.PrimaryRatio, c.Utilization
			} else {
				row.Cells[2], row.Cells[3], row.Cells[4] = c.PrimaryRatio, c.Utilization, c.RTTRatio
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func nan() float64 { return math.NaN() }

// ---------------------------------------------------------------------
// Figure 8 (and Appendix B's CDFs): broad configuration sweep.
// ---------------------------------------------------------------------

// Fig8 sweeps bottleneck configurations (the paper's 180 = 6 bandwidths
// × 6 RTTs × 5 buffer depths) and returns the CDF of primary throughput
// ratios for each (primary, scavenger) pairing.
func Fig8(o Options) []CDFSeries {
	o = o.withDefaults()
	primaries := []string{ProtoBBR, ProtoCubic, ProtoProteusP}
	scavengers := []string{ProtoProteusS, ProtoLEDBAT}
	bws := []float64{20, 50, 100, 200, 300, 500}
	rtts := []float64{0.005, 0.010, 0.030, 0.060, 0.100, 0.200}
	bufs := []float64{0.2, 0.5, 1.0, 2.0, 5.0}
	if o.Fast {
		bws = []float64{20, 50, 100}
		rtts = []float64{0.010, 0.030, 0.100}
		bufs = []float64{0.5, 2.0}
	}
	series := make(map[string]*CDFSeries)
	for _, p := range primaries {
		for _, s := range scavengers {
			key := p + " vs " + s
			series[key] = &CDFSeries{Name: key}
		}
	}
	seed := int64(1)
	dur, measureFrom := 150.0, 50.0
	if o.Fast {
		dur, measureFrom = 90, 40
	}
	for _, bw := range bws {
		for _, rtt := range rtts {
			for _, bufBDP := range bufs {
				link := LinkSpec{Mbps: bw, RTT: rtt, BufBytes: int(bufBDP * bw * 1e6 / 8 * rtt)}
				if link.BufBytes < 3*netem.MTU {
					link.BufBytes = 3 * netem.MTU
				}
				for _, primary := range primaries {
					alone := Run(Scenario{Trace: o.Trace,
						Label: fmt.Sprintf("fig8_bw%g_rtt%g_buf%g_%s_solo", bw, rtt*1000, bufBDP, primary),
						Seed:  o.seedFor(seed), Link: link, Flows: solo(primary), MeasureFrom: measureFrom, Duration: dur}).Flows[0].Mbps
					if alone < 0.1 {
						// A configuration the primary cannot use at all
						// (e.g. a buffer below one packet train) says
						// nothing about yielding.
						continue
					}
					for _, scv := range scavengers {
						res := Run(Scenario{Trace: o.Trace,
							Label: fmt.Sprintf("fig8_bw%g_rtt%g_buf%g_%s_vs_%s", bw, rtt*1000, bufBDP, primary, scv),
							Seed:  o.seedFor(seed), Link: link, Flows: []FlowSpec{{Proto: primary}, {Proto: scv, StartAt: 20}},
							MeasureFrom: measureFrom, Duration: dur}).Flows
						ratio := res[0].Mbps / alone
						if ratio > 1 {
							ratio = 1
						}
						key := primary + " vs " + scv
						series[key].Values = append(series[key].Values, ratio)
					}
				}
				seed++
			}
		}
	}
	var out []CDFSeries
	for _, p := range primaries {
		for _, s := range scavengers {
			out = append(out, *series[p+" vs "+s])
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Figure 14: extending RTT deviation to BBR (BBR-S).
// ---------------------------------------------------------------------

// TimelineSeries is per-second throughput for one flow.
type TimelineSeries struct {
	Name string
	Mbps []float64 // sample i covers second [i, i+1)
}

// timeline runs a scenario for its per-second throughput series.
func timeline(tc *Tracing, scenario string, seed int64, link LinkSpec, flows []FlowSpec, duration float64) []TimelineSeries {
	out := Run(Scenario{Trace: tc, Label: scenario, Seed: seed, Link: link, Flows: flows, Duration: duration})
	series := make([]TimelineSeries, len(out.Flows))
	for i, f := range out.Flows {
		series[i] = TimelineSeries{Name: f.Proto, Mbps: f.PerSec}
	}
	return series
}

// Fig14 reproduces §7.1: BBR-S competing in turn with BBR, with BBR-S,
// and with CUBIC on the 50 Mbps / 30 ms / 375 KB bottleneck; per-second
// throughput timelines, 200 s each.
func Fig14(o Options) map[string][]TimelineSeries {
	o = o.withDefaults()
	dur := 200.0
	if o.Fast {
		dur = 80
	}
	link := emulabLink(375000)
	return map[string][]TimelineSeries{
		"bbr_vs_bbrs": timeline(o.Trace, "fig14_bbr_vs_bbrs", o.seedFor(1), link, []FlowSpec{
			{Proto: ProtoBBR}, {Proto: ProtoBBRS, StartAt: 10}}, dur),
		"bbrs_vs_bbrs": timeline(o.Trace, "fig14_bbrs_vs_bbrs", o.seedFor(2), link, []FlowSpec{
			{Proto: ProtoBBRS}, {Proto: ProtoBBRS, StartAt: 10}}, dur),
		"cubic_vs_bbrs": timeline(o.Trace, "fig14_cubic_vs_bbrs", o.seedFor(3), link, []FlowSpec{
			{Proto: ProtoCubic}, {Proto: ProtoBBRS, StartAt: 10}}, dur),
	}
}

// Fig18 reproduces the Appendix-B 4-flow timelines: flows join every
// 100 s and the latecomer dynamics of each protocol are visible in the
// per-second series.
func Fig18(o Options) map[string][]TimelineSeries {
	o = o.withDefaults()
	protocols := []string{ProtoLEDBAT25, ProtoLEDBAT, ProtoProteusP, ProtoProteusS}
	dur := 500.0
	gap := 100.0
	if o.Fast {
		dur, gap = 160, 40
	}
	link := LinkSpec{Mbps: 80, RTT: 0.030, BufBytes: 1200000}
	out := make(map[string][]TimelineSeries, len(protocols))
	for i, proto := range protocols {
		flows := make([]FlowSpec, 4)
		for j := range flows {
			flows[j] = FlowSpec{Proto: proto, StartAt: float64(j) * gap}
		}
		out[proto] = timeline(o.Trace, "fig18_"+proto, o.seedFor(int64(i+1)), link, flows, dur)
	}
	return out
}

// ---------------------------------------------------------------------
// Extension (§7.2 future work): LTE-like high-fluctuation channels.
// ---------------------------------------------------------------------

// LTESolo runs each protocol alone on a cellular-like channel whose
// capacity follows a bounded random walk (mean ≈ 25 Mbps of a 50 Mbps
// peak, 100 ms steps) with moderate jitter, reporting throughput and
// 95th-percentile RTT — the environment §7.2 names as untested future
// work for the noise-tolerance design.
func LTESolo(o Options, protocols []string) *Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "Extension: LTE-like varying-capacity channel (solo flows)",
		XLabel:  "protocol",
		Columns: []string{"Mbps", "p95RTT(ms)"},
	}
	dur := o.Duration
	link := LinkSpec{
		Mbps: 50, RTT: 0.050, BufBytes: 600000,
		Jitter: netem.LognormalNoise{Median: 0.002, Sigma: 0.8},
	}
	for _, proto := range protocols {
		m := meanOver(o, func(trial int, seed int64) []float64 {
			r := Run(Scenario{Trace: o.Trace, Label: fmt.Sprintf("lte_%s_s%d", proto, trial), Seed: seed, Link: link,
				Flows: solo(proto), MeasureFrom: dur * 0.2, Duration: dur,
				Setup: func(e *Env) {
					walk := &netem.RateWalk{Sim: e.S, Link: e.Path.Link, Interval: 0.1, Sigma: 0.35, MinFac: 0.2, MaxFac: 1.0}
					walk.Start()
				}}).Flows[0]
			// RTT over the last four fifths of the samples, not of the time.
			return []float64{r.Mbps, stats.Percentile(r.RTTSamples[len(r.RTTSamples)/5:], 95)}
		})
		t.Rows = append(t.Rows, TableRow{XName: proto, Cells: []float64{m[0], m[1] * 1000}})
	}
	return t
}
