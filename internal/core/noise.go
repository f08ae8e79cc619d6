package core

import "pccproteus/internal/stats"

// noiseState implements the MI-history trending tolerance of §5: the
// sender keeps the average RTT and RTT deviation of the most recent k
// MIs and derives trending metrics whose moving averages model the
// channel's *non-congestion* noise. A new sample that lies several
// deviations away from its noise model is statistically unlikely to be
// noise and therefore must not be ignored by the per-MI tolerance.
//
// Three statistics are monitored:
//
//   - trending gradient: the linear-regression slope over the stored
//     MIs' average RTTs (paper §5) — catches slow persistent inflation
//     that stays inside per-MI tolerance.
//   - trending deviation: the standard deviation of the stored MIs' RTT
//     deviations (paper §5) — catches bursts of deviation volatility.
//   - deviation level: the per-MI RTT deviation itself, against an EWMA
//     of its history. This extends the paper's formula: the volatility
//     statistic alone cannot distinguish steady competition (deviation
//     persistently elevated but stable) from a quiet channel, yet that
//     steady state is exactly where a scavenger must keep yielding.
//
// Model hygiene: the moving averages are meant to describe noise, so
// anomalous (likely-congestion) samples update them at a vanishing gain
// — otherwise a few seconds of competition would be absorbed into the
// noise floor and blind the scavenger. During the initial warmup the
// model learns at full gain regardless, to capture the channel's
// ambient noise (e.g. WiFi jitter) before discrimination begins.
type noiseState struct {
	avgRTTs []float64 // ring of the last k MIs' average RTTs
	devs    []float64 // ring of the last k MIs' RTT deviations
	idx     []float64 // 1..k regression abscissa (reused)
	seen    int

	trendGrad *stats.EWMA // noise model of the trending gradient
	trendDev  *stats.EWMA // noise model of the trending deviation
	devLevel  *stats.EWMA // noise model of the per-MI deviation level
}

func newNoiseState() *noiseState {
	return &noiseState{
		trendGrad: stats.NewEWMA(),
		trendDev:  stats.NewEWMA(),
		devLevel:  stats.NewEWMA(),
	}
}

// observe folds one finalized MI's (pre-tolerance) metrics into the
// trending state and reports whether the gradient and deviation are
// anomalous — i.e. must not be zeroed by the per-MI tolerance.
func (ns *noiseState) observe(met Metrics) (gradAnomalous, devAnomalous bool) {
	ns.seen++
	ns.avgRTTs = append(ns.avgRTTs, met.AvgRTT)
	ns.devs = append(ns.devs, met.RTTDeviation)
	if len(ns.avgRTTs) > trendK {
		ns.avgRTTs = ns.avgRTTs[1:]
		ns.devs = ns.devs[1:]
	}
	warmup := ns.seen <= noiseWarmupMIs
	if len(ns.avgRTTs) < trendK {
		// Not enough history for the trending statistics: learn the
		// deviation level and stay conservative (treat as anomalous).
		ns.devLevel.Add(met.RTTDeviation)
		return true, true
	}
	if len(ns.idx) != trendK {
		ns.idx = make([]float64, trendK)
		for i := range ns.idx {
			ns.idx[i] = float64(i + 1)
		}
	}
	trendingGradient := stats.LinearRegression(ns.idx, ns.avgRTTs).Slope
	trendingDeviation := stats.StdDev(ns.devs)

	if ns.trendGrad.Initialized() {
		gradAnomalous = abs(trendingGradient-ns.trendGrad.Avg()) > g1*ns.trendGrad.Dev()
	} else {
		gradAnomalous = true
	}
	if ns.trendDev.Initialized() {
		volatile := trendingDeviation-ns.trendDev.Avg() > g2*ns.trendDev.Dev()
		elevated := met.RTTDeviation-ns.devLevel.Avg() > g2*ns.devLevel.Dev()
		devAnomalous = volatile || elevated
	} else {
		devAnomalous = true
	}
	if warmup {
		gradAnomalous = true
		devAnomalous = true
		ns.trendGrad.Add(trendingGradient)
		ns.trendDev.Add(trendingDeviation)
		ns.devLevel.Add(met.RTTDeviation)
		return gradAnomalous, devAnomalous
	}
	ns.addSample(ns.trendGrad, trendingGradient, gradAnomalous)
	ns.addSample(ns.trendDev, trendingDeviation, devAnomalous)
	ns.addSample(ns.devLevel, met.RTTDeviation, devAnomalous)
	return gradAnomalous, devAnomalous
}

// addSample updates a noise-model EWMA: full gain for ordinary samples,
// a vanishing gain for anomalous ones so congestion cannot teach itself
// into the noise floor (yet a genuine long-term shift in channel noise
// is eventually absorbed).
func (ns *noiseState) addSample(e *stats.EWMA, v float64, anomalous bool) {
	if !anomalous || !e.Initialized() {
		e.Add(v)
		return
	}
	a, b := e.Alpha, e.Beta
	e.Alpha, e.Beta = a/256, b/256
	e.Add(v)
	e.Alpha, e.Beta = a, b
}
