package exp

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"pccproteus/internal/equi"
	"pccproteus/internal/stats"
)

// Figure is one row of the figure table: what `proteusbench -fig ID`
// regenerates.
type Figure struct {
	ID      string
	Aliases []string // other names for the same row
	All     bool     // part of `-fig all`
	Run     func(o Options) ([]Block, error)
}

// Block is one unit of a figure's output. Exactly one of Table, CDFs,
// Timeline and Text is set.
type Block struct {
	Name     string // CSV file stem; "" for preformatted text
	Title    string // heading of a CDF set; scenario name of a timeline
	Table    *Table
	CDFs     []CDFSeries
	Timeline []TimelineSeries
	Text     string
}

// AppendixSingles is Appendix B's single-flow protocol set: AllSingle
// plus LEDBAT-25.
var AppendixSingles = []string{
	ProtoProteusS, ProtoLEDBAT25, ProtoLEDBAT, ProtoCubic,
	ProtoBBR, ProtoProteusP, ProtoCopa, ProtoVivace,
}

// Figures is the figure table, in `-fig all` order. Figs 15–17, 19, 21
// and 22 are Figs 3–6, 9 and 10 with the Appendix-B protocol sets; Fig 7
// reads its RTT ratios off Fig 6's tables.
var Figures = []Figure{
	{ID: "2", All: true, Run: fig2Blocks},
	{ID: "3", All: true, Run: fig3Blocks(3, AllSingle)},
	{ID: "4", All: true, Run: tableFig("fig4", func(o Options) *Table { return Fig4(o, 4, AllSingle) })},
	{ID: "5", All: true, Run: tableFig("fig5", func(o Options) *Table { return Fig5(o, 5, AllSingle) })},
	{ID: "6", Aliases: []string{"7"}, All: true, Run: fig6Blocks("6", "fig6", ProtoLEDBAT, ProtoProteusS, ProtoProteusP, ProtoCopa)},
	{ID: "8", All: true, Run: cdfFig("fig8", "Fig 8: primary throughput ratio over configuration sweep", Fig8)},
	{ID: "9", All: true, Run: cdfFig("fig9", "Fig 9: normalized single-flow throughput on WiFi-like paths",
		func(o Options) []CDFSeries { return Fig9(o, AllSingle) })},
	{ID: "10", All: true, Run: cdfFig("fig10", "Fig 10: primary throughput ratio on WiFi-like paths",
		func(o Options) []CDFSeries { return Fig10(o, []string{ProtoProteusS, ProtoLEDBAT}) })},
	{ID: "11", All: true, Run: func(o Options) ([]Block, error) {
		return []Block{{Name: "fig11a", Table: Fig11Video(o)},
			{Name: "fig11b", Title: "Fig 11(b): page load time (s) with background flow", CDFs: Fig11Web(o)}}, nil
	}},
	{ID: "12", All: true, Run: tableFig("fig12", func(o Options) *Table { return Fig12Table(Fig12(o, false), false) })},
	{ID: "13", All: true, Run: tableFig("fig13", func(o Options) *Table { return Fig12Table(Fig12(o, true), true) })},
	{ID: "14", All: true, Run: timelineFig("fig14", "Fig 14: BBR-S throughput over time", Fig14)},
	{ID: "15", All: true, Run: fig3Blocks(15, AppendixSingles)},
	{ID: "16", All: true, Run: tableFig("fig16", func(o Options) *Table { return Fig4(o, 16, AppendixSingles) })},
	{ID: "17", All: true, Run: tableFig("fig17", func(o Options) *Table { return Fig5(o, 17, AppendixSingles) })},
	{ID: "18", All: true, Run: timelineFig("fig18", "Fig 18: 4-flow competition over time", Fig18)},
	{ID: "19", Aliases: []string{"20"}, All: true, Run: fig6Blocks("19/20", "fig19", ProtoLEDBAT25, ProtoLEDBAT, ProtoProteusS)},
	{ID: "21", All: true, Run: cdfFig("fig21", "Fig 21: single-flow WiFi throughput incl. LEDBAT-25",
		func(o Options) []CDFSeries { return Fig9(o, AppendixSingles) })},
	{ID: "22", All: true, Run: cdfFig("fig22", "Fig 22: WiFi yielding incl. LEDBAT-25",
		func(o Options) []CDFSeries { return Fig10(o, []string{ProtoProteusS, ProtoLEDBAT25, ProtoLEDBAT}) })},
	{ID: "ablation", All: true, Run: tableFig("ablation", func(o Options) *Table { return AblationTable(Ablation(o)) })},
	{ID: "equilibrium", All: true, Run: func(Options) ([]Block, error) { return []Block{{Text: equilibriumText()}}, nil }},
	{ID: "fetch", All: true, Run: tableFig("fetch_yield", func(o Options) *Table { return FetchYieldTable(FetchYield(o)) })},
	{ID: "cellular", All: true, Run: cellularBlocks},
	{ID: "satellite", All: true, Run: tableFig("satellite", func(o Options) *Table {
		return SatelliteSurvival(o, []string{ProtoProteusS, ProtoProteusP, ProtoBBR2, ProtoBBR, ProtoCubic})
	})},
	{ID: "incast", All: true, Run: tableFig("incast", func(o Options) *Table {
		return IncastFairness(o, []string{ProtoCubic, ProtoBBR, ProtoBBR2, ProtoCopa, ProtoProteusP, ProtoProteusS})
	})},
	{ID: "lte", Run: tableFig("lte", func(o Options) *Table {
		return LTESolo(o, append(append([]string{}, AllSingle...), ProtoAllegro))
	})},
	{ID: "overload", All: true, Run: func(o Options) ([]Block, error) {
		t, err := OverloadFig(o)
		if err != nil {
			return nil, err
		}
		return []Block{{Name: "overload", Table: t}}, nil
	}},
}

// FigureByName resolves a -fig name — an id or an alias — to its row.
func FigureByName(name string) (Figure, bool) {
	for _, f := range Figures {
		if f.ID == name || slices.Contains(f.Aliases, name) {
			return f, true
		}
	}
	return Figure{}, false
}

// FigureNames lists every name FigureByName accepts, in table order.
func FigureNames() []string {
	var names []string
	for _, f := range Figures {
		names = append(append(names, f.ID), f.Aliases...)
	}
	return names
}

func tableFig(name string, run func(Options) *Table) func(Options) ([]Block, error) {
	return func(o Options) ([]Block, error) { return []Block{{Name: name, Table: run(o)}}, nil }
}

func cdfFig(name, title string, run func(Options) []CDFSeries) func(Options) ([]Block, error) {
	return func(o Options) ([]Block, error) { return []Block{{Name: name, Title: title, CDFs: run(o)}}, nil }
}

// timelineFig prints the title line, then one block per scenario in
// name order — not map order: two runs must be byte-identical.
func timelineFig(name, title string, run func(Options) map[string][]TimelineSeries) func(Options) ([]Block, error) {
	return func(o Options) ([]Block, error) {
		m := run(o)
		scenarios := make([]string, 0, len(m))
		for sc := range m {
			scenarios = append(scenarios, sc)
		}
		sort.Strings(scenarios)
		blocks := []Block{{Text: "# " + title + "\n"}}
		for _, sc := range scenarios {
			blocks = append(blocks, Block{Name: name + "_" + sc, Title: sc, Timeline: m[sc]})
		}
		return blocks, nil
	}
}

func fig3Blocks(fig int, protocols []string) func(Options) ([]Block, error) {
	return func(o Options) ([]Block, error) {
		tput, infl := Fig3(o, fig, protocols)
		return []Block{{Name: fmt.Sprintf("fig%da", fig), Table: tput}, {Name: fmt.Sprintf("fig%db", fig), Table: infl}}, nil
	}
}

// fig6Blocks is one yield matrix per scavenger; fig labels the titles
// and stem the CSV files.
func fig6Blocks(fig, stem string, scavengers ...string) func(Options) ([]Block, error) {
	return func(o Options) ([]Block, error) {
		cells := Fig6(o, scavengers)
		var blocks []Block
		for _, scv := range scavengers {
			blocks = append(blocks, Block{Name: stem + "_" + scv, Table: Fig6Table(cells, fig, scv)})
		}
		return blocks, nil
	}
}

func cellularBlocks(o Options) ([]Block, error) {
	var blocks []Block
	for _, model := range []string{"lte", "5g"} {
		t, err := CellularSolo(o, append(append([]string{}, AllSingle...), ProtoBBR2), model)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, Block{Name: "cellular_" + model, Table: t})
	}
	t, err := CellularYield(o, "lte")
	if err != nil {
		return nil, err
	}
	return append(blocks, Block{Name: "cellular_yield", Table: t}), nil
}

func fig2Blocks(o Options) ([]Block, error) {
	r := Fig2(o)
	var b strings.Builder
	fmt.Fprintln(&b, "# Fig 2: PDF of RTT deviation/gradient under Poisson CUBIC arrivals")
	for i, rate := range r.ArrivalRates {
		fmt.Fprintf(&b, "arrival=%g/s  dev: mean=%.4fms p90=%.4fms   |grad|: mean=%.5f p90=%.5f\n",
			rate,
			histMean(r.DevHistograms[i])*1000, histP90(r.DevHistograms[i])*1000,
			histMean(r.GradHistograms[i]), histP90(r.GradHistograms[i]))
	}
	fmt.Fprintf(&b, "confusion probability: deviation=%.4f  gradient=%.4f (paper: 0.006 vs 0.080)\n\n",
		r.DevConfusion, r.GradConfusion)
	return []Block{{Text: b.String()}}, nil
}

func histMean(h *stats.Histogram) float64 {
	if h.N == 0 {
		return 0
	}
	m := 0.0
	for i, c := range h.Counts {
		m += h.BinCenter(i) * float64(c)
	}
	return m / float64(h.N)
}

func histP90(h *stats.Histogram) float64 {
	if h.N == 0 {
		return 0
	}
	cum := 0
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= 0.9*float64(h.N) {
			return h.BinCenter(i)
		}
	}
	return h.BinCenter(len(h.Counts) - 1)
}

func equilibriumText() string {
	var b strings.Builder
	fmt.Fprintln(&b, "# Appendix A: numerical equilibria (probing-smoothed game, C=100 Mbps)")
	p := equi.Default(100)
	for _, n := range []int{2, 5, 10} {
		kinds := make([]equi.SenderKind, n)
		x, _ := p.Equilibrium(kinds, nil)
		total := 0.0
		for _, xi := range x {
			total += xi
		}
		fmt.Fprintf(&b, "%d Proteus-P senders: per-flow %.2f Mbps (fair share of %.1f)\n", n, x[0], total)
	}
	mixed, _ := p.EquilibriumAppendixA([]equi.SenderKind{equi.Primary, equi.Scavenger}, nil)
	fmt.Fprintf(&b, "Appendix-A mixed P+S equilibrium: P=%.2f S=%.2f\n", mixed[0], mixed[1])
	x1, x2 := equi.HybridPrediction(30, 40, 65)
	fmt.Fprintf(&b, "Proteus-H prediction (r1=30, r2=40, C=65): (%.1f, %.1f)\n\n", x1, x2)
	return b.String()
}

// Render formats the block as the text proteusbench prints.
func (b Block) Render() string {
	switch {
	case b.Table != nil:
		return b.Table.Render() + "\n"
	case b.CDFs != nil:
		return RenderCDFs(b.Title, b.CDFs) + "\n"
	case b.Timeline != nil:
		var w strings.Builder
		fmt.Fprintf(&w, "## %s\n", b.Title)
		// Every tenth second, then the steady state: the second half's mean.
		var tputs []float64
		for _, s := range b.Timeline {
			fmt.Fprintf(&w, "%-12s", s.Name)
			for i, v := range s.Mbps {
				if i%10 == 0 {
					fmt.Fprintf(&w, " %5.1f", v)
				}
			}
			fmt.Fprintln(&w)
			tputs = append(tputs, stats.Mean(s.Mbps[len(s.Mbps)/2:]))
		}
		fmt.Fprintf(&w, "steady-state Mbps: %v\n\n", tputs)
		return w.String()
	}
	return b.Text
}

// WriteCSV emits the block's data for external plotting: the table, the
// long-form CDF samples, or the per-second timeline. Text has none.
func (b Block) WriteCSV(w io.Writer) error {
	switch {
	case b.Table != nil:
		return b.Table.WriteCSV(w)
	case b.CDFs != nil:
		return WriteCDFCSV(w, b.CDFs)
	case b.Timeline != nil:
		return WriteTimelineCSV(w, b.Title, b.Timeline)
	}
	return nil
}
