package pathmodel

import (
	"math"
	"math/rand"
)

// Bundled synthetic trace generators. Both emit an ordinary Trace —
// the same object the file parser produces — so generated and captured
// channels replay through identical machinery. Generation is
// deterministic in (seed, dur): the figures cite the seed and the
// tables reproduce bitwise.

// genStep is the generators' sample spacing, matching the 100 ms
// scheduler-report granularity of the usual cellular trace corpora.
const genStep = 0.1

// GenLTE synthesizes an LTE downlink capacity trace: a bounded
// geometric random walk around ~25 Mbps (per-user eNodeB scheduler
// share swinging on sub-second timescales) punctuated by occasional
// deep fades to ~1 Mbps lasting a few hundred milliseconds, during
// which the radio buffer adds tens of milliseconds of extra one-way
// delay.
func GenLTE(seed int64, dur float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	const (
		mean     = 25.0
		sigma    = 0.22 // per-step lognormal volatility
		minMbps  = 2.0
		maxMbps  = 55.0
		fadeProb = 0.008 // per-step chance a deep fade begins
	)
	tr := &Trace{Label: "lte", Loop: true, Step: genStep}
	mbps := mean
	fadeLeft := 0
	for t := 0.0; t <= dur; t += genStep {
		if fadeLeft > 0 {
			fadeLeft--
			fadeMbps := 0.6 + 1.4*rng.Float64()
			delay := 0.020 + 0.060*rng.Float64()
			tr.Points = append(tr.Points, TracePoint{T: t, Mbps: fadeMbps, ExtraDelay: delay})
			continue
		}
		if rng.Float64() < fadeProb {
			fadeLeft = 3 + rng.Intn(8) // 0.3–1.0 s
		}
		step := math.Exp(sigma * rng.NormFloat64())
		// Mean-revert gently so the walk orbits the operating point.
		mbps = mbps*step + 0.05*(mean-mbps)
		if mbps < minMbps {
			mbps = minMbps
		}
		if mbps > maxMbps {
			mbps = maxMbps
		}
		tr.Points = append(tr.Points, TracePoint{T: t, Mbps: mbps})
	}
	return tr
}

// Gen5G synthesizes a 5G mmWave-like trace: a two-state line-of-sight
// channel. In LoS the capacity random-walks in the 120–250 Mbps band;
// blockage (NLoS) events cut it to 5–30 Mbps with a ~15 ms delay
// penalty and clear after a geometric number of steps. The blockage
// process is the channel's defining feature — capacity swings of an
// order of magnitude in a few hundred milliseconds.
func Gen5G(seed int64, dur float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	const (
		losMean   = 190.0
		losSigma  = 0.12
		losMin    = 120.0
		losMax    = 250.0
		blockProb = 0.015 // per-step chance LoS -> NLoS
		unblockPr = 0.12  // per-step chance NLoS -> LoS
		nlosSigma = 0.30
		nlosMin   = 5.0
		nlosMax   = 30.0
		nlosDelay = 0.015
	)
	tr := &Trace{Label: "5g", Loop: true, Step: genStep}
	mbps := losMean
	blocked := false
	for t := 0.0; t <= dur; t += genStep {
		if blocked {
			if rng.Float64() < unblockPr {
				blocked = false
				mbps = losMin + (losMax-losMin)*rng.Float64()
			}
		} else if rng.Float64() < blockProb {
			blocked = true
			mbps = nlosMin + (nlosMax-nlosMin)*rng.Float64()
		}
		if blocked {
			mbps *= math.Exp(nlosSigma * rng.NormFloat64())
			if mbps < nlosMin {
				mbps = nlosMin
			}
			if mbps > nlosMax {
				mbps = nlosMax
			}
			tr.Points = append(tr.Points, TracePoint{T: t, Mbps: mbps, ExtraDelay: nlosDelay})
			continue
		}
		mbps = mbps*math.Exp(losSigma*rng.NormFloat64()) + 0.05*(losMean-mbps)
		if mbps < losMin {
			mbps = losMin
		}
		if mbps > losMax {
			mbps = losMax
		}
		tr.Points = append(tr.Points, TracePoint{T: t, Mbps: mbps})
	}
	return tr
}
