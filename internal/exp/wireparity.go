package exp

import (
	"fmt"
	"math"
	"strings"

	"pccproteus/internal/chaos"
	"pccproteus/internal/engine"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/wire"
)

// CrossWorldOptions sizes a sim-vs-wire harness (WireParity, ChaosSoak,
// PathModelWireParity): the same controller code drives the simulated
// transport and the real datapath (an internal/engine flow between two
// engines on an engine.SimNet) across the same crossWorldLink, built and
// impaired by the same calls, in the same virtual time, and the two
// senders' outcomes are compared.
type CrossWorldOptions struct {
	Protos   []string // default: proteus-p, proteus-s, proteus-h
	Duration float64  // virtual seconds, both halves
	Seed     int64    // master seed (0 = 1)
}

func (o *CrossWorldOptions) defaults(duration float64) {
	if len(o.Protos) == 0 {
		o.Protos = []string{ProtoProteusP, ProtoProteusS, ProtoProteusH}
	}
	if o.Duration <= 0 {
		o.Duration = duration
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// crossWorldLink is the bottleneck both worlds are matched on: 20 Mbps,
// 40 ms base RTT, 1.5 × BDP of queue.
var crossWorldLink = LinkSpec{Mbps: 20, RTT: 0.040, BufBytes: 150000}

// engineRun is the engine half of a cross-world row: proto's controller
// on an engine flow across crossWorldLink, the path built and impaired as
// Run builds and impairs the simulator half's (crossWorldLink's netem.Path,
// then pathmodel.Install of m and faults, either of which may be nil).
func engineRun(seed int64, proto string, m pathmodel.Model, faults *chaos.Plan, duration, measureFrom float64) (engine.LoopbackRun, *netem.Path, error) {
	s := sim.New(seed)
	l := crossWorldLink
	lb, err := engine.NewLoopback(s, engine.Config{}, engine.Config{})
	if err != nil {
		return engine.LoopbackRun{}, nil, err
	}
	defer lb.Stop()
	fl, path, err := lb.StartFlow(wire.ShimConfig{RateMbps: l.Mbps, QueueBytes: l.BufBytes, Delay: l.RTT / 2, AckDelay: l.RTT / 2},
		NewController(s, proto))
	if err == nil {
		err = lb.Install(m, faults, duration)
	}
	if err != nil {
		return engine.LoopbackRun{}, nil, fmt.Errorf("engine run %s: %w", proto, err)
	}
	return lb.Measure(fl, duration, measureFrom), path, nil
}

// parityMeasureFrac: both halves measure the last 60 % of a run.
const parityMeasureFrac = 0.4

// ParityTolerancePct is the throughput tolerance of the parity gates for
// proto, on the static link or under a path model. The two halves share
// a clock, a link model and a schedule, so what is left is how
// transport.Sender and engine.senderFlow differ, and each bound is no
// more than twice the worst error seen over seeds 1–10 at either run
// length (CHANGES.md has the numbers; DESIGN §11 names the causes). A
// protocol nobody has measured gets the loosest static bound.
func ParityTolerancePct(proto string, model bool) float64 {
	switch {
	case model:
		return 15
	case proto == ProtoProteusP, proto == ProtoProteusH:
		return 0.5
	}
	return 10
}

// WireParityRow is one protocol's matched measurements. Loss is the
// fraction lost/(acked+lost) in bytes, computed identically in both
// domains.
type WireParityRow struct {
	Proto                   string
	SimMbps, WireMbps       float64
	SimMeanRTT, WireMeanRTT float64
	SimP95RTT, WireP95RTT   float64
	SimLoss, WireLoss       float64
	TputErrPct              float64 // |wire−sim|/sim × 100
	TolerancePct            float64
	Pass                    bool
}

// WireParityResult is the full cross-validation outcome.
type WireParityResult struct {
	Opts CrossWorldOptions
	Rows []WireParityRow
}

// AllPass reports whether every protocol met the throughput tolerance.
func (r *WireParityResult) AllPass() bool {
	for _, row := range r.Rows {
		if !row.Pass {
			return false
		}
	}
	return true
}

// WireParity runs each protocol once per sender and builds the parity
// table.
func WireParity(o CrossWorldOptions) (*WireParityResult, error) {
	o.defaults(12)
	return wireParity(o, nil)
}

// wireParity is the parity table on a static bottleneck (m nil) or
// under a path model.
func wireParity(o CrossWorldOptions, m pathmodel.Model) (*WireParityResult, error) {
	res := &WireParityResult{Opts: o}
	for i, proto := range o.Protos {
		seed := o.Seed + int64(i)
		lb, _, err := engineRun(seed, proto, m, nil, o.Duration, parityMeasureFrac*o.Duration)
		if err != nil {
			return nil, err
		}
		row := WireParityRow{Proto: proto, WireMbps: lb.Mbps, WireMeanRTT: lb.MeanRTT, WireP95RTT: lb.P95RTT}
		if tot := lb.Flow.AckedBytes + lb.Flow.LostBytes; tot > 0 {
			row.WireLoss = float64(lb.Flow.LostBytes) / float64(tot)
		}
		row.fillSim(o, seed, m)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// fillSim completes a row with the simulator half — a solo flow on the
// matched link, measured over the same window, with windowed RTT
// samples and a byte-fraction loss rate — and the verdict.
func (row *WireParityRow) fillSim(o CrossWorldOptions, seed int64, m pathmodel.Model) {
	f := Run(Scenario{Seed: seed, Link: crossWorldLink, Model: m,
		Flows: solo(row.Proto), MeasureFrom: parityMeasureFrac * o.Duration, Duration: o.Duration}).Flows[0]
	rtts := f.RTTSamples[f.RTTFrom:]
	row.SimMbps, row.SimMeanRTT, row.SimP95RTT = f.Mbps, stats.Mean(rtts), stats.Percentile(rtts, 95)
	if tot := f.AckedBytes + f.LostBytes; tot > 0 {
		row.SimLoss = float64(f.LostBytes) / float64(tot)
	}
	if f.Mbps > 0 {
		row.TputErrPct = math.Abs(row.WireMbps-f.Mbps) / f.Mbps * 100
	}
	row.TolerancePct = ParityTolerancePct(row.Proto, m != nil)
	row.Pass = row.TputErrPct <= row.TolerancePct
}

// Render formats the parity table with a PASS/FAIL verdict per row.
func (r *WireParityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Sim vs wire parity: %.0f Mbps, %.0f ms RTT, %.1f s window, virtual time\n",
		crossWorldLink.Mbps, crossWorldLink.RTT*1e3, r.Opts.Duration-parityMeasureFrac*r.Opts.Duration)
	fmt.Fprintf(&b, "%-12s %9s %9s %7s %6s %9s %9s %9s %9s %8s %8s  %s\n",
		"proto", "sim Mbps", "wire Mbps", "err%", "tol%",
		"sim RTT", "wire RTT", "sim p95", "wire p95", "sim loss", "wire loss", "verdict")
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%-12s %9.2f %9.2f %7.2f %6.1f %8.1fms %8.1fms %8.1fms %8.1fms %7.2f%% %7.2f%%  %s\n",
			row.Proto, row.SimMbps, row.WireMbps, row.TputErrPct, row.TolerancePct,
			row.SimMeanRTT*1e3, row.WireMeanRTT*1e3,
			row.SimP95RTT*1e3, row.WireP95RTT*1e3,
			row.SimLoss*100, row.WireLoss*100, verdict)
	}
	return b.String()
}
