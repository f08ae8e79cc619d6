package exp

import (
	"pccproteus/internal/core"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
)

// AblationVariant is one noise-tolerance configuration of §5. The paper
// notes ("we do not have enough space to show how each tolerance
// mechanism contributes") that per-MI regression tolerance is necessary
// for saturation even on stable bottlenecks, trending tolerance enhances
// latency sensitivity, and the ACK filter and majority rule matter in
// highly dynamic networks — this experiment quantifies those claims.
type AblationVariant struct {
	Name   string
	Mutate func(cfg *core.Config)
}

// AblationVariants returns the standard ablation set: the full design
// plus one variant per disabled mechanism.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "full", Mutate: func(*core.Config) {}},
		{Name: "no-ack-filter", Mutate: func(c *core.Config) { c.UseAckFilter = false }},
		{Name: "no-regression-tol", Mutate: func(c *core.Config) {
			c.UseRegressionTolerance = false
			c.FixedGradTolerance = 0.005 // falls back to Vivace's flat threshold
		}},
		{Name: "no-trending", Mutate: func(c *core.Config) { c.UseTrending = false }},
		{Name: "two-pair-probes", Mutate: func(c *core.Config) { c.ProbePairs = 2 }},
	}
}

// flow is a Proteus flow of one mode with the variant's mechanisms off.
func (v AblationVariant) flow(mode string, util core.UtilityFunc, startAt float64) FlowSpec {
	return FlowSpec{Proto: mode + ":" + v.Name, StartAt: startAt, New: func(s *sim.Sim) transport.Controller {
		cfg := core.ProteusConfig(s.Rand())
		v.Mutate(&cfg)
		return core.New(mode+":"+v.Name, cfg, util)
	}}
}

// AblationResult quantifies one variant across the three §5 scenarios.
type AblationResult struct {
	Variant       string
	CleanSoloMbps float64 // stable 50 Mbps bottleneck, Proteus-P alone
	NoisySoloMbps float64 // WiFi-like jitter, Proteus-P alone
	YieldRatio    float64 // Proteus-P throughput share vs Proteus-S scavenger
}

// Ablation runs each variant in the three scenarios.
func Ablation(o Options) []AblationResult {
	o = o.withDefaults()
	dur := o.Duration
	clean := emulabLink(375000)
	noisy := emulabLink(375000)
	noisy.Jitter = netem.SpikeNoise{
		Base:      netem.LognormalNoise{Median: 0.001, Sigma: 0.8},
		SpikeProb: 0.001, SpikeMin: 0.01, SpikeMax: 0.03,
	}
	var out []AblationResult
	for _, v := range AblationVariants() {
		m := meanOver(o, func(_ int, seed int64) []float64 {
			alone := []FlowSpec{v.flow(ProtoProteusP, core.NewPrimary(), 0)}
			cleanT := Run(Scenario{Seed: seed, Link: clean, Flows: alone, MeasureFrom: dur * 0.2, Duration: dur}).Flows[0].Mbps
			noisyT := Run(Scenario{Seed: seed, Link: noisy, Flows: alone, MeasureFrom: dur * 0.2, Duration: dur}).Flows[0].Mbps
			// The primary's share of the bytes both move once a
			// scavenger has joined it.
			pair := Run(Scenario{Seed: seed, Link: clean, MeasureFrom: (dur + 80) * 0.4, Duration: dur + 80,
				Flows: []FlowSpec{v.flow(ProtoProteusP, core.NewPrimary(), 0), v.flow(ProtoProteusS, core.NewScavenger(), 20)}}).Flows
			share := 0.0
			if pT, sT := float64(pair[0].WindowBytes), float64(pair[1].WindowBytes); pT+sT != 0 {
				share = pT / (pT + sT)
			}
			return []float64{cleanT, noisyT, share}
		})
		out = append(out, AblationResult{Variant: v.Name, CleanSoloMbps: m[0], NoisySoloMbps: m[1], YieldRatio: m[2]})
	}
	return out
}

// AblationTable renders ablation results.
func AblationTable(rs []AblationResult) *Table {
	t := &Table{
		Title:   "Ablation: Proteus noise-tolerance mechanisms (§5)",
		XLabel:  "variant",
		Columns: []string{"clean(Mbps)", "noisy(Mbps)", "yieldShare"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, TableRow{
			XName: r.Variant,
			Cells: []float64{r.CleanSoloMbps, r.NoisySoloMbps, r.YieldRatio},
		})
	}
	return t
}
