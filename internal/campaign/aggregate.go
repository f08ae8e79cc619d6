package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pccproteus/internal/overload"
	"pccproteus/internal/stats"
)

// Sketch shapes. These are part of the aggregate's identity: two
// aggregates merge only if they share them, and changing them changes
// golden outputs.
const (
	goodputBins = 48 // Mbps, log-spaced over [0.01, 1000)
	fctBins     = 48 // seconds, log-spaced over [0.01, 1000)
	rttBins     = 40 // seconds, log-spaced over [0.001, 10)
	fracBins    = 30 // unitless fractions, log-spaced over [0.001, 1)
)

// ClassAgg aggregates one controller class across every scenario.
type ClassAgg struct {
	Flows     int64          `json:"flows"`
	Completed int64          `json:"completed"`
	Bytes     int64          `json:"bytes"` // acked bytes, incl. partial flows
	Goodput   *stats.LogHist `json:"goodput_mbps"`
	FCT       *stats.LogHist `json:"fct_s"`
	RTT       *stats.LogHist `json:"rtt_s"`

	GoodputMoments stats.Moments `json:"goodput_moments"`
	RTTMoments     stats.Moments `json:"rtt_moments"`
	Loss           stats.Moments `json:"loss_frac"` // per-flow loss fraction
}

func newClassAgg() *ClassAgg {
	return &ClassAgg{
		Goodput: stats.NewLogHist(0.01, 1000, goodputBins),
		FCT:     stats.NewLogHist(0.01, 1000, fctBins),
		RTT:     stats.NewLogHist(0.001, 10, rttBins),
	}
}

func (c *ClassAgg) merge(o *ClassAgg) error {
	c.Flows += o.Flows
	c.Completed += o.Completed
	c.Bytes += o.Bytes
	if err := c.Goodput.Merge(o.Goodput); err != nil {
		return err
	}
	if err := c.FCT.Merge(o.FCT); err != nil {
		return err
	}
	if err := c.RTT.Merge(o.RTT); err != nil {
		return err
	}
	c.GoodputMoments.Merge(o.GoodputMoments)
	c.RTTMoments.Merge(o.RTTMoments)
	c.Loss.Merge(o.Loss)
	return nil
}

// Aggregate is the streaming campaign result: counters plus fixed-size
// sketches, mergeable across shards. Its JSON encoding is deterministic
// (encoding/json sorts map keys), which is what the worker-count
// determinism guarantee is stated against.
type Aggregate struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	Scenarios int64  `json:"scenarios"`
	Flows     int64  `json:"flows"`
	Completed int64  `json:"completed"`

	// Per-scenario distributions: scavenger yield (scavenger bytes as a
	// fraction of bottleneck capacity × duration), Jain's index over
	// completed primary flows, bottleneck utilization.
	ScavYield       *stats.LogHist `json:"scav_yield"`
	Fairness        *stats.LogHist `json:"fairness"`
	YieldMoments    stats.Moments  `json:"yield_moments"`
	FairnessMoments stats.Moments  `json:"fairness_moments"`
	Utilization     stats.Moments  `json:"utilization"`

	Classes map[string]*ClassAgg `json:"classes"`
}

func newAggregate() *Aggregate {
	return &Aggregate{
		ScavYield: stats.NewLogHist(0.001, 1, fracBins),
		Fairness:  stats.NewLogHist(0.001, 1, fracBins),
		Classes:   map[string]*ClassAgg{},
	}
}

// class returns the accumulator for proto, creating it on first use.
func (a *Aggregate) class(proto string) *ClassAgg {
	c := a.Classes[proto]
	if c == nil {
		c = newClassAgg()
		a.Classes[proto] = c
	}
	return c
}

// Merge folds another aggregate into a. Merge order matters for
// bit-exactness of the floating-point moments; Run folds in scenario
// order via OrderedReduce.
func (a *Aggregate) Merge(o *Aggregate) error {
	a.Scenarios += o.Scenarios
	a.Flows += o.Flows
	a.Completed += o.Completed
	if err := a.ScavYield.Merge(o.ScavYield); err != nil {
		return err
	}
	if err := a.Fairness.Merge(o.Fairness); err != nil {
		return err
	}
	a.YieldMoments.Merge(o.YieldMoments)
	a.FairnessMoments.Merge(o.FairnessMoments)
	a.Utilization.Merge(o.Utilization)
	// Per-key folds are independent, so map iteration order here does
	// not affect the result.
	for proto, oc := range o.Classes {
		if err := a.class(proto).merge(oc); err != nil {
			return fmt.Errorf("class %s: %w", proto, err)
		}
	}
	return nil
}

// EncodeJSON renders the aggregate as stable, indented JSON with a
// trailing newline — the byte stream the determinism tests and the CI
// golden compare.
func EncodeJSON(a *Aggregate) ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ClassNames returns the aggregate's class keys sorted for stable
// rendering.
func (a *Aggregate) ClassNames() []string {
	names := make([]string, 0, len(a.Classes))
	for n := range a.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Render formats the campaign report: headline counts, the scavenger
// yield / fairness / utilization distributions, and a per-class table.
func (a *Aggregate) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Campaign %q: %d scenarios, %d flows (%d completed), seed %d\n",
		a.Name, a.Scenarios, a.Flows, a.Completed, a.Seed)
	q := func(h *stats.LogHist, p float64) float64 { return h.Quantile(p) }
	fmt.Fprintf(&b, "%-34s %8s %8s %8s %8s %8s\n", "per-scenario distribution", "p10", "p50", "p90", "mean", "n")
	fmt.Fprintf(&b, "%-34s %8.4f %8.4f %8.4f %8.4f %8d\n", "scavenger yield (frac of capacity)",
		q(a.ScavYield, 0.10), q(a.ScavYield, 0.50), q(a.ScavYield, 0.90), a.YieldMoments.Mean, a.ScavYield.N())
	fmt.Fprintf(&b, "%-34s %8.4f %8.4f %8.4f %8.4f %8d\n", "primary fairness (Jain)",
		q(a.Fairness, 0.10), q(a.Fairness, 0.50), q(a.Fairness, 0.90), a.FairnessMoments.Mean, a.Fairness.N())
	fmt.Fprintf(&b, "%-34s %8s %8s %8s %8.4f %8d\n", "bottleneck utilization",
		"-", "-", "-", a.Utilization.Mean, a.Utilization.Count)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-12s %5s %8s %8s %10s %10s %10s %9s %9s %9s %9s %9s\n",
		"class", "kind", "flows", "done", "bytes(MB)", "gput-p50", "gput-p90", "fct-p50", "rtt-p50", "rtt-p95", "rtt-p99", "loss-mean")
	for _, name := range a.ClassNames() {
		c := a.Classes[name]
		kind := "pri"
		if overload.ClassOf(name) == overload.ClassScavenger {
			kind = "scav"
		}
		fmt.Fprintf(&b, "%-12s %5s %8d %8d %10.1f %10.3f %10.3f %9.3f %9.4f %9.4f %9.4f %9.5f\n",
			name, kind, c.Flows, c.Completed, float64(c.Bytes)/1e6,
			c.Goodput.Quantile(0.50), c.Goodput.Quantile(0.90),
			c.FCT.Quantile(0.50), c.RTT.Quantile(0.50),
			c.RTT.Quantile(0.95), c.RTT.Quantile(0.99), c.Loss.Mean)
	}
	return b.String()
}
