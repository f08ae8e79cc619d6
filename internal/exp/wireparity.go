package exp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"pccproteus/internal/engine"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// WireParityOptions configures one sim-vs-wire cross-validation run:
// the same controller code drives both the discrete-event simulator
// and the real UDP datapath (an internal/engine flow through the
// impairment shim) on a matched bottleneck, and the resulting
// throughput/RTT/loss are compared.
type WireParityOptions struct {
	Protos       []string // default: proteus-p, proteus-s, proteus-h
	Mbps         float64  // bottleneck capacity (default 20)
	RTT          float64  // base round-trip, seconds (default 0.040)
	QueueBytes   int      // default 1.5 × BDP
	Duration     float64  // seconds, both domains (default 12; wire runs real time)
	MeasureFrom  float64  // default 0.4 × Duration
	Seed         int64    // master seed (0 = 1)
	TolerancePct float64  // throughput parity tolerance (default 15)
}

func (o *WireParityOptions) defaults() {
	if len(o.Protos) == 0 {
		o.Protos = []string{ProtoProteusP, ProtoProteusS, ProtoProteusH}
	}
	if o.Mbps <= 0 {
		o.Mbps = 20
	}
	if o.RTT <= 0 {
		o.RTT = 0.040
	}
	if o.QueueBytes <= 0 {
		o.QueueBytes = int(1.5 * o.Mbps * 1e6 / 8 * o.RTT)
	}
	if o.Duration <= 0 {
		o.Duration = 12
	}
	if o.MeasureFrom <= 0 || o.MeasureFrom >= o.Duration {
		o.MeasureFrom = 0.4 * o.Duration
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TolerancePct <= 0 {
		o.TolerancePct = 15
	}
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
	Pass                    bool
}

// WireParityResult is the full cross-validation outcome.
type WireParityResult struct {
	Opts WireParityOptions
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
func WireParity(o WireParityOptions) (*WireParityResult, error) {
	o.defaults()
	res := &WireParityResult{Opts: o}
	for i, proto := range o.Protos {
		seed := o.Seed + int64(i)
		simMbps, simMean, simP95, simLoss := wireParitySim(seed, o, proto)
		row, err := parityWireRow(seed, o, proto, engine.ShimLoopbackConfig{})
		if err != nil {
			return nil, err
		}
		row.fillSim(o, simMbps, simMean, simP95, simLoss)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// parityWireRow runs the wire half of one parity row: proto's
// controller on an engine flow through the matched shim bottleneck,
// with whatever schedule or fault plan cfg carries.
func parityWireRow(seed int64, o WireParityOptions, proto string, cfg engine.ShimLoopbackConfig) (WireParityRow, error) {
	cfg.CC = NewControllerRNG(rand.New(rand.NewSource(wire.MixSeed(seed, 0x55))), proto)
	cfg.Shim = wire.ShimConfig{
		RateMbps:   o.Mbps,
		QueueBytes: o.QueueBytes,
		Delay:      o.RTT / 2,
		AckDelay:   o.RTT / 2,
		Seed:       wire.MixSeed(seed, 0x77),
	}
	cfg.Duration, cfg.MeasureFrom = o.Duration, o.MeasureFrom
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

// fillSim completes a row with the simulator half and the verdict.
func (row *WireParityRow) fillSim(o WireParityOptions, mbps, meanRTT, p95RTT, loss float64) {
	row.SimMbps, row.SimMeanRTT, row.SimP95RTT, row.SimLoss = mbps, meanRTT, p95RTT, loss
	if mbps > 0 {
		row.TputErrPct = math.Abs(row.WireMbps-mbps) / mbps * 100
	}
	row.Pass = row.TputErrPct <= o.TolerancePct
}

// wireParitySim is the simulator half: a solo flow on the matched link,
// measured over the same window, with windowed RTT samples and a
// byte-fraction loss rate.
func wireParitySim(seed int64, o WireParityOptions, proto string) (mbps, meanRTT, p95RTT, loss float64) {
	s := sim.New(seed)
	link := LinkSpec{Mbps: o.Mbps, RTT: o.RTT, BufBytes: o.QueueBytes}
	path := link.Build(s)
	cc := NewController(s, proto)
	snd := transport.NewSender(1, path, cc)
	snd.RecordRTT = true
	snd.Start()
	var markAcked int64
	markSamples := 0
	s.At(o.MeasureFrom, func() {
		markAcked = snd.AckedBytes()
		markSamples = len(snd.RTTSamples())
	})
	s.Run(o.Duration)
	window := o.Duration - o.MeasureFrom
	mbps = float64(snd.AckedBytes()-markAcked) * 8 / window / 1e6
	rtts := snd.RTTSamples()[markSamples:]
	meanRTT = stats.Mean(rtts)
	p95RTT = stats.Percentile(rtts, 95)
	if tot := snd.AckedBytes() + snd.LostBytes(); tot > 0 {
		loss = float64(snd.LostBytes()) / float64(tot)
	}
	return mbps, meanRTT, p95RTT, loss
}

// Render formats the parity table with a PASS/FAIL verdict per row.
func (r *WireParityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Sim vs wire parity: %.0f Mbps, %.0f ms RTT, %.1f s window, tolerance %.0f%%\n",
		r.Opts.Mbps, r.Opts.RTT*1e3, r.Opts.Duration-r.Opts.MeasureFrom, r.Opts.TolerancePct)
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
