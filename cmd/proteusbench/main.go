// Command proteusbench regenerates the paper's evaluation figures on the
// emulated network substrate and prints them as text tables.
//
// Usage:
//
//	proteusbench -fig 6                 # one figure at paper scale
//	proteusbench -fig all -fast         # every figure, reduced grids
//	proteusbench -fig 8 -trials 1       # heavy sweep, single trial
//	proteusbench -fig all -fast -jobs 4 # four figures in parallel
//	proteusbench -fig 14 -fast -trace /tmp/t -trace-events mi,rate,drop
//	proteusbench -chaos -fast           # cross-world fault replay (real time)
//	proteusbench -campaign specs/campaign-smoke.json -campaign-out agg.json
//
// Figure ids: 2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,
// plus "ablation", "equilibrium", the §7.2 extension "lte", and the
// Appendix-F bulk-fetch scavenger-yield table "fetch".
//
// Independent figures run on a -jobs worker pool (default: NumCPU capped
// at the figure count); output is printed in figure order regardless of
// completion order. A failing figure no longer aborts the batch: every
// failure is collected and reported at exit.
//
// With -trace, every simulation a figure runs records flight-recorder
// events and writes one JSONL file per flow under <dir>/<figure>/;
// -trace-events selects event kinds (mi,rate,util,drop,queue,rtt,mode or
// "all") and -trace-csv writes a CSV beside each JSONL.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"pccproteus/internal/equi"
	"pccproteus/internal/exp"
	"pccproteus/internal/stats"
	"pccproteus/internal/trace"
)

var csvDir string

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (2..22, ablation, equilibrium, lte, cellular, satellite, incast, fetch, all)")
	fast := flag.Bool("fast", false, "reduced grids and durations")
	trials := flag.Int("trials", 0, "trials per data point (0 = default)")
	jobs := flag.Int("jobs", 0, "figures to run in parallel (0 = NumCPU, capped at figure count)")
	traceDir := flag.String("trace", "", "write per-flow flight-recorder JSONL traces under this directory")
	traceEvents := flag.String("trace-events", "all", "comma-separated event kinds to trace (mi,rate,util,drop,queue,rtt,mode)")
	traceCSV := flag.Bool("trace-csv", false, "also write traces as CSV beside each JSONL")
	flag.StringVar(&csvDir, "csv", "", "also write plot-ready CSV files into this directory")
	seed := flag.Int64("seed", 0, "master seed for all per-trial RNGs (0 = historical defaults)")
	hunt := flag.String("hunt", "", "hunt for invariant violations of this controller instead of running figures")
	huntBudget := flag.Int("hunt-budget", 200, "schedule evaluations to spend in a -hunt search")
	huntModel := flag.String("hunt-model", "", "hunt over this path model (lte, 5g, leo) instead of a static bottleneck")
	huntOut := flag.String("hunt-out", "", "write the minimized counterexample JSON here (with -hunt)")
	replay := flag.String("replay", "", "re-verify a counterexample replay file instead of running figures")
	wireMode := flag.Bool("wire", false, "run the sim-vs-wire parity table (real UDP loopback, real time) instead of figures; with -replay, replay the counterexample through the wire shim")
	chaosMode := flag.Bool("chaos", false, "replay the chaos fault plan through the simulator and the real UDP shim and compare survival + fault attribution (real time)")
	wireProtos := flag.String("wire-protos", "proteus-p,proteus-s,proteus-h", "comma-separated protocols for -wire")
	wireDur := flag.Float64("wire-dur", 0, "seconds per -wire run (0 = 12, or 8 with -fast)")
	wireMbps := flag.Float64("wire-mbps", 20, "bottleneck capacity for -wire")
	wireRTT := flag.Float64("wire-rtt", 0.040, "base RTT for -wire, seconds")
	campaignSpec := flag.String("campaign", "", "run a simulation campaign from this JSON spec instead of figures")
	campaignWorkers := flag.Int("campaign-workers", 0, "campaign worker pool size (0 = NumCPU); the aggregate is identical for any value")
	campaignOut := flag.String("campaign-out", "", "write the campaign aggregate JSON here (with -campaign)")
	flag.Parse()

	if *campaignSpec != "" {
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
				os.Exit(1)
			}
		}
		if err := runCampaign(os.Stdout, *campaignSpec, *campaignWorkers, *campaignOut); err != nil {
			fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *chaosMode {
		if err := runChaosSoak(os.Stdout, *wireProtos, *wireDur, *wireMbps, *wireRTT, *seed, *fast); err != nil {
			fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *wireMode && *replay == "" {
		if err := runWireParity(os.Stdout, *wireProtos, *wireDur, *wireMbps, *wireRTT, *seed, *fast); err != nil {
			fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *replay != "" && *wireMode {
		if err := runWireReplay(os.Stdout, *replay); err != nil {
			fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *hunt != "" || *replay != "" {
		var err error
		if *replay != "" {
			err = runReplay(os.Stdout, *replay)
		} else {
			huntSeed := *seed
			if huntSeed == 0 {
				huntSeed = 1
			}
			huntJobs := *jobs
			if huntJobs <= 0 {
				huntJobs = runtime.NumCPU()
			}
			err = runHunt(os.Stdout, *hunt, *huntModel, *huntBudget, huntSeed, huntJobs, *fast, *huntOut)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
			os.Exit(1)
		}
	}
	mask, err := trace.ParseKinds(*traceEvents)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
		os.Exit(1)
	}

	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = []string{"2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13",
			"14", "15", "16", "17", "18", "19", "21", "22", "ablation", "equilibrium", "fetch",
			"cellular", "satellite", "incast"}
	}
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
	}

	workers := *jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(ids) {
		workers = len(ids)
	}

	type result struct {
		out  bytes.Buffer
		errs []error
		done chan struct{}
	}
	results := make([]*result, len(ids))
	for i := range results {
		results[i] = &result{done: make(chan struct{})}
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, id := range ids {
		i, id := i, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := results[i]
			defer close(r.done)
			o := exp.Options{Fast: *fast, Trials: *trials, Seed: *seed}
			var tc *exp.Tracing
			if *traceDir != "" {
				tc = &exp.Tracing{Dir: filepath.Join(*traceDir, figDirName(id)), Mask: mask, CSV: *traceCSV}
				o.Trace = tc
			}
			if err := run(&r.out, id, o); err != nil {
				r.errs = append(r.errs, fmt.Errorf("fig %s: %w", id, err))
			}
			if err := tc.Err(); err != nil {
				r.errs = append(r.errs, fmt.Errorf("fig %s: %w", id, err))
			}
		}()
	}

	// Print in figure order as each finishes; collect every failure.
	var failures []error
	for _, r := range results {
		<-r.done
		os.Stdout.Write(r.out.Bytes())
		failures = append(failures, r.errs...)
	}
	wg.Wait()
	if len(failures) > 0 {
		for _, err := range failures {
			fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "proteusbench: %d figure(s) failed\n", len(failures))
		os.Exit(1)
	}
}

// figDirName maps a figure id to its trace subdirectory ("14" → "fig14",
// "lte" → "lte").
func figDirName(id string) string {
	if id != "" && id[0] >= '0' && id[0] <= '9' {
		return "fig" + id
	}
	return id
}

var appendixSingles = []string{
	exp.ProtoProteusS, exp.ProtoLEDBAT25, exp.ProtoLEDBAT, exp.ProtoCubic,
	exp.ProtoBBR, exp.ProtoProteusP, exp.ProtoCopa, exp.ProtoVivace,
}

func run(w io.Writer, id string, o exp.Options) error {
	switch id {
	case "2":
		r := exp.Fig2(o)
		fmt.Fprintln(w, "# Fig 2: PDF of RTT deviation/gradient under Poisson CUBIC arrivals")
		for i, rate := range r.ArrivalRates {
			fmt.Fprintf(w, "arrival=%g/s  dev: mean=%.4fms p90=%.4fms   |grad|: mean=%.5f p90=%.5f\n",
				rate,
				histMean(r.DevHistograms[i])*1000, histP90(r.DevHistograms[i])*1000,
				histMean(r.GradHistograms[i]), histP90(r.GradHistograms[i]))
		}
		fmt.Fprintf(w, "confusion probability: deviation=%.4f  gradient=%.4f (paper: 0.006 vs 0.080)\n\n",
			r.DevConfusion, r.GradConfusion)
	case "3":
		tput, infl := exp.Fig3(o, nil)
		emit(w, "fig3a", tput)
		emit(w, "fig3b", infl)
	case "4":
		emit(w, "fig4", exp.Fig4(o, nil))
	case "5":
		emit(w, "fig5", exp.Fig5(o, nil))
	case "6", "7":
		cells := exp.Fig6(o, nil)
		for _, scv := range []string{exp.ProtoLEDBAT, exp.ProtoProteusS, exp.ProtoProteusP, exp.ProtoCopa} {
			emit(w, "fig6_"+scv, exp.Fig6Table(cells, scv))
		}
	case "8":
		emitCDF(w, "fig8", "Fig 8: primary throughput ratio over configuration sweep", exp.Fig8(o, nil, nil))
	case "9":
		emitCDF(w, "fig9", "Fig 9: normalized single-flow throughput on WiFi-like paths", exp.Fig9(o, nil))
	case "10":
		emitCDF(w, "fig10", "Fig 10: primary throughput ratio on WiFi-like paths", exp.Fig10(o, nil, nil))
	case "11":
		emit(w, "fig11a", exp.Fig11Video(o))
		emitCDF(w, "fig11b", "Fig 11(b): page load time (s) with background flow", exp.Fig11Web(o))
	case "12":
		emit(w, "fig12", exp.Fig12Table(exp.Fig12(o, false), false))
	case "13":
		emit(w, "fig13", exp.Fig12Table(exp.Fig12(o, true), true))
	case "14":
		printTimelines(w, "Fig 14: BBR-S throughput over time", exp.Fig14(o))
	case "15":
		tput, infl := exp.Fig3(o, appendixSingles)
		fmt.Fprintln(w, strings.Replace(tput.Render(), "Fig 3(a)", "Fig 15(a)", 1))
		fmt.Fprintln(w, strings.Replace(infl.Render(), "Fig 3(b)", "Fig 15(b)", 1))
	case "16":
		fmt.Fprintln(w, strings.Replace(exp.Fig4(o, appendixSingles).Render(), "Fig 4", "Fig 16", 1))
	case "17":
		fmt.Fprintln(w, strings.Replace(exp.Fig5(o, appendixSingles).Render(), "Fig 5", "Fig 17", 1))
	case "18":
		printTimelines(w, "Fig 18: 4-flow competition over time", exp.Fig18(o, nil))
	case "19", "20":
		cells := exp.Fig6(o, []string{exp.ProtoLEDBAT25, exp.ProtoLEDBAT, exp.ProtoProteusS})
		for _, scv := range []string{exp.ProtoLEDBAT25, exp.ProtoLEDBAT, exp.ProtoProteusS} {
			fmt.Fprintln(w, strings.Replace(exp.Fig6Table(cells, scv).Render(), "Fig 6", "Fig 19/20", 1))
		}
	case "21":
		fmt.Fprintln(w, exp.RenderCDFs("Fig 21: single-flow WiFi throughput incl. LEDBAT-25", exp.Fig9(o, appendixSingles)))
	case "22":
		fmt.Fprintln(w, exp.RenderCDFs("Fig 22: WiFi yielding incl. LEDBAT-25",
			exp.Fig10(o, nil, []string{exp.ProtoProteusS, exp.ProtoLEDBAT25, exp.ProtoLEDBAT})))
	case "ablation":
		emit(w, "ablation", exp.AblationTable(exp.Ablation(o)))
	case "fetch":
		emit(w, "fetch_yield", exp.FetchYieldTable(exp.FetchYield(o)))
	case "lte":
		emit(w, "lte", exp.LTESolo(o, append(append([]string{}, exp.AllSingle...), exp.ProtoAllegro)))
	case "equilibrium":
		printEquilibrium(w)
	case "cellular":
		for _, model := range []string{"lte", "5g"} {
			t, err := exp.CellularSolo(o, nil, model)
			if err != nil {
				return err
			}
			emit(w, "cellular_"+model, t)
		}
		t, err := exp.CellularYield(o, "lte")
		if err != nil {
			return err
		}
		emit(w, "cellular_yield", t)
	case "satellite":
		t, err := exp.SatelliteSurvival(o, nil)
		if err != nil {
			return err
		}
		emit(w, "satellite", t)
	case "incast":
		emit(w, "incast", exp.IncastFairness(o, nil))
	case "overload":
		t, err := exp.OverloadFig(o)
		if err != nil {
			return err
		}
		emit(w, "overload", t)
	default:
		return fmt.Errorf("unknown figure %q (valid: %s)", id, strings.Join(validFigs, ", "))
	}
	return nil
}

// validFigs lists every -fig name run() accepts, for the unknown-name
// error and the "all" batch above.
var validFigs = []string{
	"2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13",
	"14", "15", "16", "17", "18", "19", "20", "21", "22",
	"ablation", "equilibrium", "lte", "fetch", "cellular", "satellite", "incast",
	"overload",
}

// emit prints a table and, when -csv is set, writes it alongside.
func emit(w io.Writer, name string, t *exp.Table) {
	fmt.Fprintln(w, t.Render())
	if csvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
		return
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
	}
}

// emitCDF prints CDF summaries and optionally the long-form CSV.
func emitCDF(w io.Writer, name, title string, series []exp.CDFSeries) {
	fmt.Fprintln(w, exp.RenderCDFs(title, series))
	if csvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
		return
	}
	defer f.Close()
	if err := exp.WriteCDFCSV(f, series); err != nil {
		fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
	}
}

func printTimelines(w io.Writer, title string, m map[string][]exp.TimelineSeries) {
	fmt.Fprintln(w, "# "+title)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		series := m[name]
		fmt.Fprintf(w, "## %s\n", name)
		for _, s := range series {
			fmt.Fprintf(w, "%-12s", s.Name)
			for i, v := range s.Mbps {
				if i%10 == 0 {
					fmt.Fprintf(w, " %5.1f", v)
				}
			}
			fmt.Fprintln(w)
		}
		// Steady-state summary over the second half.
		var tputs []float64
		for _, s := range series {
			tputs = append(tputs, stats.Mean(s.Mbps[len(s.Mbps)/2:]))
		}
		fmt.Fprintf(w, "steady-state Mbps: %v\n\n", tputs)
	}
}

func printEquilibrium(w io.Writer) {
	fmt.Fprintln(w, "# Appendix A: numerical equilibria (probing-smoothed game, C=100 Mbps)")
	p := equi.Default(100)
	for _, n := range []int{2, 5, 10} {
		kinds := make([]equi.SenderKind, n)
		x, _ := p.Equilibrium(kinds, nil)
		fmt.Fprintf(w, "%d Proteus-P senders: per-flow %.2f Mbps (fair share of %.1f)\n", n, x[0], sum(x))
	}
	mixed, _ := p.EquilibriumAppendixA([]equi.SenderKind{equi.Primary, equi.Scavenger}, nil)
	fmt.Fprintf(w, "Appendix-A mixed P+S equilibrium: P=%.2f S=%.2f\n", mixed[0], mixed[1])
	x1, x2 := equi.HybridPrediction(30, 40, 65)
	fmt.Fprintf(w, "Proteus-H prediction (r1=30, r2=40, C=65): (%.1f, %.1f)\n\n", x1, x2)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
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
