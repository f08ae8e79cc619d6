// Package exp is the experiment harness: it reconstructs every figure of
// the paper's evaluation (§6, §7.1, Appendix B) on the emulated network
// substrate. A Scenario describes one run — flows of named protocols on
// one bottleneck, measured over a window — and Run executes it; each
// Fig* function is the paper's sweep of such scenarios plus arithmetic
// on their Outcomes; Figures is the table of figure ids the
// cmd/proteusbench CLI loops over, rendering each figure's Blocks as
// text tables and CSV.
package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"pccproteus/internal/campaign"
	"pccproteus/internal/cc/allegro"
	"pccproteus/internal/cc/bbr"
	"pccproteus/internal/cc/bbr2"
	"pccproteus/internal/cc/copa"
	"pccproteus/internal/cc/cubic"
	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/cc/ledbat"
	"pccproteus/internal/core"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
)

// Protocol names accepted by NewController. These match the labels used
// in the paper's figures.
const (
	ProtoProteusP = "proteus-p"
	ProtoProteusS = "proteus-s"
	ProtoProteusH = "proteus-h"
	ProtoVivace   = "vivace"
	ProtoCubic    = "cubic"
	ProtoBBR      = "bbr"
	ProtoBBRS     = "bbr-s"
	ProtoBBR2     = "bbr2"
	ProtoCopa     = "copa"
	ProtoLEDBAT   = "ledbat"
	ProtoLEDBAT25 = "ledbat-25"
	ProtoAllegro  = "allegro"
	ProtoFixedPfx = "fixed:" // e.g. "fixed:20" = 20 Mbps constant rate
)

// Primaries are the primary protocols evaluated throughout §6.
var Primaries = []string{ProtoCubic, ProtoBBR, ProtoCopa, ProtoProteusP, ProtoVivace}

// AllSingle is the single-flow protocol set of Figures 3–5.
var AllSingle = []string{ProtoProteusS, ProtoLEDBAT, ProtoCubic, ProtoBBR, ProtoProteusP, ProtoCopa, ProtoVivace}

// NewController builds a controller by protocol name. Unknown names
// panic: experiment definitions are static and a typo should fail loudly.
func NewController(s *sim.Sim, name string) transport.Controller {
	return NewControllerRNG(s.Rand(), name)
}

// NewControllerRNG is NewController with an explicit randomness source,
// for datapaths that run outside a simulator (the daemons seed a
// private RNG per flow so real-time runs stay reproducible).
func NewControllerRNG(rng *rand.Rand, name string) transport.Controller {
	switch name {
	case ProtoProteusP:
		return core.NewProteusP(rng)
	case ProtoProteusS:
		return core.NewProteusS(rng)
	case ProtoProteusH:
		c, _ := core.NewProteusH(rng)
		return c
	case ProtoVivace:
		return core.NewVivace(rng)
	case ProtoCubic:
		return cubic.New()
	case ProtoBBR:
		return bbr.New()
	case ProtoBBRS:
		return bbr.NewScavenger()
	case ProtoBBR2:
		return bbr2.New()
	case ProtoCopa:
		return copa.New()
	case ProtoLEDBAT:
		return ledbat.New(0.100)
	case ProtoLEDBAT25:
		return ledbat.New(0.025)
	case ProtoAllegro:
		return allegro.New(rng)
	}
	if strings.HasPrefix(name, ProtoFixedPfx) {
		mbps, err := strconv.ParseFloat(strings.TrimPrefix(name, ProtoFixedPfx), 64)
		if err != nil {
			panic("exp: bad fixed-rate protocol " + name)
		}
		return fixedrate.New(mbps)
	}
	panic("exp: unknown protocol " + name)
}

// LinkSpec describes one emulated bottleneck.
type LinkSpec struct {
	Mbps     float64
	RTT      float64 // base round-trip, seconds
	BufBytes int
	LossProb float64
	Jitter   netem.Noise
	AckHold  bool // bursty-ACK (WiFi MAC) model on the return path
}

// Build instantiates the path on a simulator.
func (l LinkSpec) Build(s *sim.Sim) *netem.Path {
	link := netem.NewLink(s, l.Mbps, l.BufBytes, l.RTT/2)
	link.LossProb = l.LossProb
	link.Jitter = l.Jitter
	p := &netem.Path{Link: link, AckDelay: l.RTT / 2}
	if l.AckHold {
		p.Batcher = &netem.AckBatcher{Sim: s, HoldRate: 2, HoldTime: 0.02}
	}
	return p
}

// BDPBytes returns the link's bandwidth-delay product in bytes.
func (l LinkSpec) BDPBytes() float64 { return l.Mbps * 1e6 / 8 * l.RTT }

// BurstFor returns the pacing-train length for a protocol. Kernel
// stacks emit GSO-style multi-packet trains, and user-space UDP senders
// burst comparably under OS timer granularity, so every congestion
// controller keeps the transport default; only the constant-bit-rate
// measurement probe of Figure 2 is configured as perfectly smooth.
func BurstFor(proto string) int {
	if strings.HasPrefix(proto, ProtoFixedPfx) {
		return 1
	}
	return 0 // transport default (GSO-style train)
}

// meanOver runs fn once per trial — numbered from 1, with the seed the
// options derive for it — on the campaign worker pool and returns the
// component-wise mean of the vectors it returns. OrderedReduce folds in
// trial order, so the sums are bit-identical for any Workers.
func meanOver(o Options, fn func(trial int, seed int64) []float64) []float64 {
	var mean []float64
	campaign.OrderedReduce(o.Trials, o.Workers, func(t int) []float64 {
		return fn(t+1, o.seedFor(int64(t+1)))
	}, func(_ int, v []float64) {
		if mean == nil {
			mean = make([]float64, len(v))
		}
		for i, x := range v {
			mean[i] += x
		}
	})
	for i := range mean {
		mean[i] /= float64(o.Trials)
	}
	return mean
}

// Table is a generic labeled result grid: one row per X value, one
// column per series, used by the text renderer and the benchmarks.
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	Rows    []TableRow
}

// TableRow is one x-value's cells.
type TableRow struct {
	X     float64
	XName string // optional label overriding X
	Cells []float64
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		if r.XName != "" {
			fmt.Fprintf(&b, "%-14s", r.XName)
		} else {
			fmt.Fprintf(&b, "%-14.4g", r.X)
		}
		for _, c := range r.Cells {
			if math.IsNaN(c) {
				fmt.Fprintf(&b, " %12s", "-")
			} else {
				fmt.Fprintf(&b, " %12.4g", c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CDFSeries is a named empirical distribution, for the CDF figures.
type CDFSeries struct {
	Name   string
	Values []float64
}

// RenderCDFs prints one line per decile for each series.
func RenderCDFs(title string, series []CDFSeries) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-26s %6s %6s %6s %6s %6s %6s\n", "series", "p10", "p25", "p50", "p75", "p90", "mean")
	for _, s := range series {
		v := append([]float64(nil), s.Values...)
		sort.Float64s(v)
		fmt.Fprintf(&b, "%-26s %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f\n", s.Name,
			stats.PercentileSorted(v, 10), stats.PercentileSorted(v, 25),
			stats.PercentileSorted(v, 50), stats.PercentileSorted(v, 75),
			stats.PercentileSorted(v, 90), stats.Mean(v))
	}
	return b.String()
}
