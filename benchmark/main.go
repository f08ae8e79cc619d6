// Command benchmark is the repo's performance benchmark: five workloads
// over the simulator, the engine datapath and the fetch protocol, the
// end-to-end metrics a user of each would see, and a traced mode that
// attributes the time to layers from outside (see README.md).
//
// One workload, as the benchmark driver runs it:
//
//	benchmark --workload engine-bulk --seed 3 --seconds 15 --trace 0
//
// prints a report and, as its last line, the result JSON. Without
// --workload it runs every workload, each in its own child process (so
// CPU time and peak RSS are per workload), then again traced when
// --trace 1, and writes out/result.json and out/trace.json.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 15

// childTimeout bounds one workload process; the driver allows 180 s.
const childTimeout = 170 * time.Second

func main() {
	testing.Init() // registers test.benchtime, which the standalone replays shorten
	var (
		workloadName = flag.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
		seed         = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured time per workload run")
		traceOn      = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics, tracing off")
		scale        = flag.Float64("scale", 1, "batch-size multiplier (scenarios, virtual seconds, flows, object bytes); goldens apply at 1 only")
		aa           = flag.Int("aa", 0, "run N full sets (seeds seed..seed+N-1) and report median, quartiles and spread per metric")
		update       = flag.Bool("update-golden", false, "record goldens for this seed instead of checking them (model changes only)")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for result.json and trace.json")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *scale <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--scale f] [--aa n] [--update-golden] [--out dir]")
		os.Exit(2)
	}
	benchtime := max(time.Duration(150*float64(time.Millisecond)*min(1, *scale)), 5*time.Millisecond)
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fatal(err)
	}

	if *workloadName != "" {
		cfg := runConfig{Workload: *workloadName, Seed: *seed, Seconds: *seconds, Scale: *scale,
			Traced: *traceOn == 1, OutDir: *outDir, Update: *update}
		if cfg.Traced {
			// A traced run spends its time budget twice over: half on
			// traced repetitions, the rest on the untraced comparison
			// repetition and the standalone layer replays.
			cfg.Seconds /= 2
		}
		res, d, err := execute(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if err := printResult(os.Stdout, res, d); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	ok, err := runSets(setConfig{Seed: *seed, Seconds: *seconds, Scale: *scale, Traced: *traceOn == 1,
		Sets: max(1, *aa), OutDir: *outDir, Update: *update})
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

type setConfig struct {
	Seed    int64
	Seconds float64
	Scale   float64
	Traced  bool
	Sets    int
	OutDir  string
	Update  bool
}

// childRun is one workload process's outcome as the parent keeps it.
type childRun struct {
	Result result `json:"result"`
	Detail detail `json:"detail"`
}

// spawn runs one workload in a child process of this same binary and
// parses the two lines it ends with.
func spawn(c setConfig, name string, seed int64, traced bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(c.Seconds),
		"--trace", tr, "--scale", fmt.Sprint(c.Scale), "--out", c.OutDir}
	if c.Update {
		args = append(args, "--update-golden")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var buf bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a failed operation exits 1 after printing its result; parse first

	var out childRun
	var lines []string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], detailPrefix) {
		if runErr != nil {
			return out, fmt.Errorf("%s: %w", name, runErr)
		}
		return out, fmt.Errorf("%s: child printed no result", name)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], detailPrefix)), &out.Detail); err != nil {
		return out, fmt.Errorf("%s: detail line: %w", name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.Result); err != nil {
		return out, fmt.Errorf("%s: result line: %w", name, err)
	}
	return out, nil
}

// spread is the acceptance statistic over repeated sets of one metric
// on one workload.
type spread struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"iqr_over_median"`
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within_bound"`
}

// report is out/result.json.
type report struct {
	Schema  string                `json:"schema"`
	Env     envRecord             `json:"env"`
	Seed    int64                 `json:"seed"`
	Seconds float64               `json:"seconds"`
	Scale   float64               `json:"scale"`
	Sets    []map[string]childRun `json:"sets"`             // untraced, by workload
	Traced  map[string]childRun   `json:"traced,omitempty"` // first set's seed
	Spreads []spread              `json:"spreads,omitempty"`
	Correct bool                  `json:"correct"`
}

// runSets is the full benchmark: every workload, one child each, for
// each set; then the traced pass; then the tables.
func runSets(c setConfig) (bool, error) {
	rep := report{Schema: "pccproteus-benchmark/v1", Env: newEnvRecord(), Seed: c.Seed,
		Seconds: c.Seconds, Scale: c.Scale, Correct: true}
	if rep.Env.Noisy {
		fmt.Printf("NOISY: load average %.2f exceeds nproc/2 before the run; timings are suspect\n", rep.Env.LoadBefore)
	}
	for s := 0; s < c.Sets; s++ {
		set := map[string]childRun{}
		for _, w := range workloads {
			cr, err := spawn(c, w.Name, c.Seed+int64(s), false)
			if err != nil {
				return false, err
			}
			set[w.Name] = cr
			rep.Correct = rep.Correct && cr.Result.Correct
		}
		rep.Sets = append(rep.Sets, set)
	}
	if c.Traced {
		rep.Traced = map[string]childRun{}
		for _, w := range workloads {
			cr, err := spawn(c, w.Name, c.Seed, true)
			if err != nil {
				return false, err
			}
			rep.Traced[w.Name] = cr
			rep.Correct = rep.Correct && cr.Result.Correct
		}
		if err := mergeTraces(c.OutDir); err != nil {
			return false, err
		}
	}
	rep.Env.finish()

	fmt.Printf("\n# end-to-end (tracing off; set 1 of %d, seed %d)\n", c.Sets, c.Seed)
	fmt.Printf("%-16s", "workload")
	for _, m := range endToEnd {
		fmt.Printf(" %16s", m.Name+"["+m.Unit+"]")
	}
	fmt.Printf(" %12s\n", "fail_share")
	for _, w := range workloads {
		cr := rep.Sets[0][w.Name]
		fmt.Printf("%-16s", w.Name)
		for _, m := range endToEnd {
			fmt.Printf(" %16.4f", cr.Result.Metrics[m.Name].Value)
		}
		fmt.Printf(" %6d/%-6d\n", cr.Result.Failed, cr.Result.Attempted)
	}
	if c.Traced {
		fmt.Printf("\n# per layer (traced run, seed %d); 0 = the workload does not run that layer\n", c.Seed)
		fmt.Printf("%-32s %-6s", "metric", "unit")
		for _, w := range workloads {
			fmt.Printf(" %14s", w.Name)
		}
		fmt.Println()
		for _, m := range perLayer {
			fmt.Printf("%-32s %-6s", m.Name, m.Unit)
			for _, w := range workloads {
				fmt.Printf(" %14.4f", rep.Traced[w.Name].Result.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
	}
	if c.Sets > 1 {
		fmt.Printf("\n# spread over %d sets (IQR / median as statistics.quantiles(n=4) gives it)\n", c.Sets)
		fmt.Printf("%-16s %-16s %14s %14s %14s %3s %8s %6s %s\n", "workload", "metric", "median", "q1", "q3", "n", "spread%", "bound%", "within")
		for _, w := range workloads {
			for _, m := range endToEnd {
				sp := spread{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
				for _, set := range rep.Sets {
					sp.Values = append(sp.Values, set[w.Name].Result.Metrics[m.Name].Value)
				}
				sp.Q1, sp.Median, sp.Q3 = quartiles(sp.Values)
				sp.Spread = ratio(sp.Q3-sp.Q1, sp.Median)
				sp.Within = sp.Spread <= m.Bound
				rep.Spreads = append(rep.Spreads, sp)
				fmt.Printf("%-16s %-16s %14.4f %14.4f %14.4f %3d %8.2f %6.0f %v\n", w.Name, m.Name,
					sp.Median, sp.Q1, sp.Q3, len(sp.Values), 100*sp.Spread, 100*m.Bound, sp.Within)
			}
		}
	}

	if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
		return false, err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(c.OutDir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("\nwrote %s; correct=%v\n", filepath.Join(c.OutDir, "result.json"), rep.Correct)
	return rep.Correct, nil
}

// mergeTraces concatenates the traced children's span files into
// out/trace.json.
func mergeTraces(dir string) error {
	type file struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var all []file
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
		if err != nil {
			return err
		}
		var f file
		if err := json.Unmarshal(b, &f); err != nil {
			return err
		}
		all = append(all, f)
	}
	b, err := json.Marshal(map[string]any{"workloads": all})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), append(b, '\n'), 0o644)
}
