package campaign

import (
	"math"
	"math/rand"
)

// MixEntry is one controller class in the population, drawn per flow
// by weight. Proto names are whatever the injected Factory accepts —
// with the experiment harness's registry, "proteus-p", "proteus-s",
// "proteus-h", "cubic", "bbr", "bbr-s", "copa", "ledbat", "vivace", …
type MixEntry struct {
	Proto  string  `json:"proto"`
	Weight float64 `json:"weight"`
}

// PopulationSpec describes the workload a scenario carries: a diurnal
// Poisson flow-arrival process, bounded-Pareto (heavy-tailed) flow
// sizes, and a weighted controller mix.
type PopulationSpec struct {
	// ArrivalRate is the mean flow arrival rate in flows/sec; the
	// instantaneous rate is modulated by DiurnalAmp (0..1) over
	// DiurnalPeriod seconds of virtual time, emulating a day cycle:
	// λ(t) = ArrivalRate · (1 + DiurnalAmp · sin(2πt/Period)).
	ArrivalRate   float64 `json:"arrival_rate"`
	DiurnalAmp    float64 `json:"diurnal_amp"`
	DiurnalPeriod float64 `json:"diurnal_period"`

	// FlowKB bounds flow sizes in kilobytes; sizes follow a bounded
	// Pareto with tail index ParetoAlpha (smaller = heavier tail).
	FlowKB      Range   `json:"flow_kb"`
	ParetoAlpha float64 `json:"pareto_alpha"`

	// MaxFlows caps the flows spawned per scenario, bounding memory and
	// pinning total campaign flow count to Scenarios × MaxFlows when
	// the arrival process saturates the cap.
	MaxFlows int `json:"max_flows"`

	Mix []MixEntry `json:"mix"`
}

func (p PopulationSpec) withDefaults(duration float64) PopulationSpec {
	if p.ArrivalRate == 0 {
		p.ArrivalRate = 4
	}
	if p.DiurnalPeriod == 0 {
		p.DiurnalPeriod = duration
	}
	p.FlowKB = p.FlowKB.orDefault(Range{50, 20000})
	if p.ParetoAlpha == 0 {
		p.ParetoAlpha = 1.2
	}
	if p.MaxFlows == 0 {
		p.MaxFlows = 100
	}
	if len(p.Mix) == 0 {
		p.Mix = []MixEntry{
			{Proto: "proteus-p", Weight: 0.35},
			{Proto: "proteus-s", Weight: 0.35},
			{Proto: "cubic", Weight: 0.30},
		}
	}
	return p
}

// pickProto draws one controller name by mix weight.
func pickProto(mix []MixEntry, rng *rand.Rand) string {
	total := 0.0
	for _, m := range mix {
		total += m.Weight
	}
	x := rng.Float64() * total
	for _, m := range mix {
		x -= m.Weight
		if x < 0 {
			return m.Proto
		}
	}
	return mix[len(mix)-1].Proto
}

// boundedPareto draws from a Pareto(alpha) truncated to [lo, hi] by
// inverse-CDF sampling. hi <= lo degenerates to the constant lo.
func boundedPareto(rng *rand.Rand, alpha, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	u := rng.Float64()
	ratio := math.Pow(lo/hi, alpha)
	return lo / math.Pow(1-u*(1-ratio), 1/alpha)
}

// sin2pi returns sin(2πx).
func sin2pi(x float64) float64 { return math.Sin(2 * math.Pi * x) }
