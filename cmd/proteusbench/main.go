// Command proteusbench regenerates the paper's evaluation figures on the
// emulated network substrate and prints them as text tables.
//
// Usage:
//
//	proteusbench -fig 6                 # one figure at paper scale
//	proteusbench -fig all -fast         # every figure, reduced grids
//	proteusbench -fig 8 -trials 1       # heavy sweep, single trial
//	proteusbench -fig 14 -fast -trace /tmp/t -trace-events mi,rate,drop
//	proteusbench -wire -fast            # sim-vs-engine parity table (virtual time)
//	proteusbench -chaos -fast           # cross-world fault replay (virtual time)
//	proteusbench -replay internal/adversary/testdata/bbr.json
//	proteusbench -campaign specs/campaign-smoke.json -out agg.json
//
// Figure ids are the rows of exp.Figures: the paper's 2–22, plus
// "ablation", "equilibrium", the Appendix-F bulk-fetch table "fetch", the
// path-model extensions "cellular", "satellite" and "incast", the
// engine's "overload" degradation table, and — not part of "all" — the
// §7.2 extension "lte". An unknown id is rejected before anything runs.
//
// Independent figures, hunt evaluations and campaign scenarios run on a
// worker pool of GOMAXPROCS workers; output is identical for any pool
// size, and figures print in figure order regardless of completion
// order. A failing figure does not abort the batch: every failure is
// collected and reported at exit.
//
// With -trace, every simulation a figure runs records flight-recorder
// events and writes one JSONL file per flow under <dir>/<figure>/;
// -trace-events selects event kinds (mi,rate,util,drop,queue,rtt,mode or
// "all").
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pccproteus/internal/campaign"
	"pccproteus/internal/exp"
	"pccproteus/internal/trace"
)

// The command line: every flag proteusbench has (TestFlagSurface pins
// the set).
var (
	fig          = flag.String("fig", "all", "comma-separated figures to regenerate ("+strings.Join(exp.FigureNames(), ", ")+", or all)")
	fast         = flag.Bool("fast", false, "reduced grids and durations")
	trials       = flag.Int("trials", 0, "trials per data point (0 = default)")
	traceDir     = flag.String("trace", "", "write per-flow flight-recorder JSONL traces under this directory")
	traceEvents  = flag.String("trace-events", "all", "comma-separated event kinds to trace (mi,rate,util,drop,queue,rtt,mode)")
	csvDir       = flag.String("csv", "", "also write plot-ready CSV files into this directory")
	seed         = flag.Int64("seed", 0, "master seed for all per-trial RNGs (0 = historical defaults)")
	hunt         = flag.String("hunt", "", "hunt for invariant violations of this controller instead of running figures")
	huntBudget   = flag.Int("hunt-budget", 200, "schedule evaluations to spend in a -hunt search")
	huntModel    = flag.String("hunt-model", "", "hunt over this path model (lte, 5g, leo) instead of a static bottleneck")
	replay       = flag.String("replay", "", "re-verify a counterexample replay file, in the simulator and then against an engine flow, instead of running figures")
	wireMode     = flag.Bool("wire", false, "run the sim-vs-wire parity table (simulated transport vs an engine flow on the same emulated link, virtual time) instead of figures")
	chaosMode    = flag.Bool("chaos", false, "replay the chaos fault plan under the simulated transport and under an engine flow and compare survival + fault attribution (virtual time)")
	wireProtos   = flag.String("wire-protos", "proteus-p,proteus-s,proteus-h", "comma-separated protocols for -wire and -chaos")
	campaignSpec = flag.String("campaign", "", "run a simulation campaign from this JSON spec instead of figures")
	out          = flag.String("out", "", "write the minimized counterexample (with -hunt) or the campaign aggregate (with -campaign) JSON here")
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
		os.Exit(1)
	}
}

func realMain() error {
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	switch {
	case *campaignSpec != "":
		return runCampaign(os.Stdout, *campaignSpec, *out)
	case *chaosMode:
		return runChaosSoak(os.Stdout, *wireProtos, *seed, *fast)
	case *replay != "":
		return runReplay(os.Stdout, *replay)
	case *wireMode:
		return runWireParity(os.Stdout, *wireProtos, *seed, *fast)
	case *hunt != "":
		huntSeed := *seed
		if huntSeed == 0 {
			huntSeed = 1
		}
		return runHunt(os.Stdout, *hunt, *huntModel, *huntBudget, huntSeed, *fast, *out)
	}

	mask, err := trace.ParseKinds(*traceEvents)
	if err != nil {
		return err
	}
	ids, err := figureIDs(*fig)
	if err != nil {
		return err
	}

	type result struct {
		out  bytes.Buffer
		errs []error
	}
	// Figures run on GOMAXPROCS workers and print in figure order as each
	// finishes; every failure is collected.
	var failures []error
	campaign.OrderedReduce(len(ids), 0, func(i int) *result {
		id, r := ids[i], new(result)
		o := exp.Options{Fast: *fast, Trials: *trials, Seed: *seed}
		var tc *exp.Tracing
		if *traceDir != "" {
			tc = &exp.Tracing{Dir: filepath.Join(*traceDir, figDirName(id)), Mask: mask}
			o.Trace = tc
		}
		if err := run(&r.out, id, o); err != nil {
			r.errs = append(r.errs, fmt.Errorf("fig %s: %w", id, err))
		}
		if err := tc.Err(); err != nil {
			r.errs = append(r.errs, fmt.Errorf("fig %s: %w", id, err))
		}
		return r
	}, func(_ int, r *result) {
		os.Stdout.Write(r.out.Bytes())
		failures = append(failures, r.errs...)
	})
	if len(failures) > 0 {
		for _, err := range failures {
			fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
		}
		return fmt.Errorf("%d figure(s) failed", len(failures))
	}
	return nil
}

// figDirName maps a figure id to its trace subdirectory ("14" → "fig14",
// "lte" → "lte").
func figDirName(id string) string {
	if id != "" && id[0] >= '0' && id[0] <= '9' {
		return "fig" + id
	}
	return id
}

// figureIDs expands -fig's value — "all" or comma-separated names —
// and rejects a name the figure table does not have, so that a typo
// costs nothing instead of the figures listed before it.
func figureIDs(spec string) ([]string, error) {
	var ids []string
	if spec == "all" {
		for _, f := range exp.Figures {
			if f.All {
				ids = append(ids, f.ID)
			}
		}
		return ids, nil
	}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if _, ok := exp.FigureByName(id); !ok {
			return nil, fmt.Errorf("unknown figure %q (valid: %s, all)", id, strings.Join(exp.FigureNames(), ", "))
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// run regenerates one figure onto w and, when -csv is set, writes each
// of its blocks that has data alongside.
func run(w io.Writer, id string, o exp.Options) error {
	f, _ := exp.FigureByName(id) // figureIDs vouched for id
	blocks, err := f.Run(o)
	if err != nil {
		return err
	}
	for _, b := range blocks {
		emit(w, b)
	}
	return nil
}

// emit prints a block and, when -csv is set and the block has data,
// writes it alongside.
func emit(w io.Writer, b exp.Block) {
	io.WriteString(w, b.Render())
	if *csvDir == "" || b.Name == "" {
		return
	}
	f, err := os.Create(filepath.Join(*csvDir, b.Name+".csv"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
		return
	}
	if err := b.WriteCSV(f); err != nil {
		fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "proteusbench: %v\n", err)
	}
}
