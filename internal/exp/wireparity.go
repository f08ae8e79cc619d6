package exp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"pccproteus/internal/engine"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/stats"
	"pccproteus/internal/wire"
)

// CrossWorldOptions sizes a sim-vs-wire harness (WireParity, ChaosSoak,
// PathModelWireParity): the same controller code drives the
// discrete-event simulator and the real UDP datapath (an internal/engine
// flow through the impairment shim) on crossWorldLink, and the two
// worlds' outcomes are compared.
type CrossWorldOptions struct {
	Protos   []string // default: proteus-p, proteus-s, proteus-h
	Duration float64  // seconds, both domains; the wire half runs in real time
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

// crossWorldShim is crossWorldLink as the loopback shim runs it.
func crossWorldShim(seed int64) wire.ShimConfig {
	return wire.ShimConfig{
		RateMbps:   crossWorldLink.Mbps,
		QueueBytes: crossWorldLink.BufBytes,
		Delay:      crossWorldLink.RTT / 2,
		AckDelay:   crossWorldLink.RTT / 2,
		Seed:       wire.MixSeed(seed, 0x77),
	}
}

const (
	// ParityTolerancePct is the throughput tolerance of the parity gates.
	ParityTolerancePct = 15
	// parityMeasureFrac: both worlds measure the last 60 % of a run.
	parityMeasureFrac = 0.4
)

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

// WireParity runs each protocol once per domain and builds the parity
// table. The wire half runs in real time: expect ~len(Protos)×Duration
// wall seconds.
func WireParity(o CrossWorldOptions) (*WireParityResult, error) {
	o.defaults(12)
	return wireParity(o, nil)
}

// wireParity is the parity table on a static bottleneck (m nil) or
// under a path model whose schedule both worlds replay.
func wireParity(o CrossWorldOptions, m pathmodel.Model) (*WireParityResult, error) {
	res := &WireParityResult{Opts: o}
	for i, proto := range o.Protos {
		seed := o.Seed + int64(i)
		var cfg engine.ShimLoopbackConfig
		if m != nil {
			cfg.Schedule = pathmodel.ShimUpdates(m, o.Duration)
			if plan, hasFaults := pathmodel.FaultPlan(m, o.Duration); hasFaults {
				cfg.Chaos = &plan
			}
		}
		row, err := parityWireRow(seed, o, proto, cfg)
		if err != nil {
			return nil, err
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
	row.Pass = row.TputErrPct <= ParityTolerancePct
}

// parityWireRow runs the wire half of one parity row: proto's
// controller on an engine flow through the matched shim bottleneck,
// with whatever schedule or fault plan cfg carries.
func parityWireRow(seed int64, o CrossWorldOptions, proto string, cfg engine.ShimLoopbackConfig) (WireParityRow, error) {
	cfg.CC = NewControllerRNG(rand.New(rand.NewSource(wire.MixSeed(seed, 0x55))), proto)
	cfg.Shim = crossWorldShim(seed)
	cfg.Duration, cfg.MeasureFrom = o.Duration, parityMeasureFrac*o.Duration
	lb, err := engine.RunShimLoopback(cfg)
	if err != nil {
		return WireParityRow{}, fmt.Errorf("wire run %s: %w", proto, err)
	}
	row := WireParityRow{Proto: proto, WireMbps: lb.Mbps, WireMeanRTT: lb.MeanRTT, WireP95RTT: lb.P95RTT}
	if tot := lb.Flow.AckedBytes + lb.Flow.LostBytes; tot > 0 {
		row.WireLoss = float64(lb.Flow.LostBytes) / float64(tot)
	}
	return row, nil
}

// Render formats the parity table with a PASS/FAIL verdict per row.
func (r *WireParityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Sim vs wire parity: %.0f Mbps, %.0f ms RTT, %.1f s window, tolerance %d%%\n",
		crossWorldLink.Mbps, crossWorldLink.RTT*1e3, r.Opts.Duration-parityMeasureFrac*r.Opts.Duration, ParityTolerancePct)
	fmt.Fprintf(&b, "%-12s %9s %9s %7s %9s %9s %9s %9s %8s %8s  %s\n",
		"proto", "sim Mbps", "wire Mbps", "err%",
		"sim RTT", "wire RTT", "sim p95", "wire p95", "sim loss", "wire loss", "verdict")
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%-12s %9.2f %9.2f %7.1f %8.1fms %8.1fms %8.1fms %8.1fms %7.2f%% %7.2f%%  %s\n",
			row.Proto, row.SimMbps, row.WireMbps, row.TputErrPct,
			row.SimMeanRTT*1e3, row.WireMeanRTT*1e3,
			row.SimP95RTT*1e3, row.WireP95RTT*1e3,
			row.SimLoss*100, row.WireLoss*100, verdict)
	}
	return b.String()
}
