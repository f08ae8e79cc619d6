// Command benchab runs the repo's benchmark as alternating pairs of a
// base revision and the checkout it runs in, and prints, for every
// end-to-end metric BENCHMARK.json names, the per-pair ratios, both
// medians, the base's quartiles, the pairs won and a sign test.
//
//	go run ./cmd/benchab -base HEAD~1 -workloads engine-bulk -seeds 1-10,11-12
//
// The base is checked out into a temporary git worktree, removed on exit.
// Each pair runs BENCHMARK.json's command (`bash benchmark/run.sh`) with
// `--workload W --seed s --seconds S --trace 0`, S its run_seconds, in
// both trees, the base first on odd seeds. The head is the checkout as it
// is on disk, uncommitted changes included, so `-base HEAD` on a clean
// checkout compares the code with itself and shows the host's noise.
// benchab exits 1 if any run was not correct or failed an operation.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run does the whole comparison and reports whether every run was
// correct with no failed operation.
func run(args []string, w io.Writer) (bool, error) {
	fs := flag.NewFlagSet("benchab", flag.ContinueOnError)
	base := fs.String("base", "", "revision to compare against (required)")
	workloads := fs.String("workloads", "", "comma-separated workloads (default: every one in BENCHMARK.json)")
	seedList := fs.String("seeds", "1-10", "seeds, one pair each: ranges and single seeds, comma-separated")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *base == "" || fs.NArg() > 0 {
		fs.Usage()
		return false, errors.New("usage: benchab -base <rev> [-workloads a,b] [-seeds 1-10]")
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		return false, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	c, err := parseContract(raw)
	if err != nil {
		return false, err
	}
	names, err := pickWorkloads(c, *workloads)
	if err != nil {
		return false, err
	}
	rev, err := git(ctx, root, "rev-parse", "--short", "--verify", *base+"^{commit}")
	if err != nil {
		return false, err
	}

	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	baseTree := filepath.Join(tmp, "base")
	if _, err := git(ctx, root, "worktree", "add", "--detach", baseTree, rev); err != nil {
		return false, err
	}
	defer func() {
		// Not ctx: an interrupt must still remove the worktree.
		if _, err := git(context.Background(), root, "worktree", "remove", "--force", baseTree); err != nil {
			fmt.Fprintln(os.Stderr, "benchab:", err)
		}
	}()

	// pairs[workload][i] is seed i's base and head result.
	pairs := map[string][][2]result{}
	allOK := true
	for _, seed := range seeds {
		for _, name := range names {
			trees := [2]string{baseTree, root}
			if seed%2 == 0 {
				trees = [2]string{root, baseTree}
			}
			var res [2]result
			for i, tree := range trees {
				r, err := runOnce(ctx, tree, c, name, seed)
				if err != nil {
					return false, err
				}
				if !r.ok() {
					allOK = false
					fmt.Fprintf(os.Stderr, "benchab: %s seed %d in %s: correct=%v failed=%d of %d\n",
						name, seed, tree, r.Correct, r.Failed, r.Attempted)
				}
				res[i] = r
			}
			if trees[0] == root {
				res[0], res[1] = res[1], res[0]
			}
			pairs[name] = append(pairs[name], res)
		}
	}

	fmt.Fprintf(w, "# base %s vs head %s, seeds %s, %g s per run\n", rev, root, *seedList, c.RunSeconds)
	for _, name := range names {
		for _, m := range c.EndToEnd {
			var base, head []float64
			for _, p := range pairs[name] {
				base = append(base, p[0].Metrics[m.Name].Value)
				head = append(head, p[1].Metrics[m.Name].Value)
			}
			report(w, name, m, seeds, base, head)
		}
	}
	if !allOK {
		fmt.Fprintln(w, "\n# some runs were not correct or failed operations (see stderr)")
	}
	return allOK, nil
}

// pickWorkloads is the comma-separated list, checked against the
// contract, or every workload when the list is empty.
func pickWorkloads(c contract, list string) ([]string, error) {
	var all []string
	for _, wl := range c.Workloads {
		all = append(all, wl.Name)
	}
	if list == "" {
		return all, nil
	}
	names := strings.Split(list, ",")
	for _, n := range names {
		if !slices.Contains(all, n) {
			return nil, fmt.Errorf("workload %q is not in BENCHMARK.json (%s)", n, strings.Join(all, ", "))
		}
	}
	return names, nil
}

// runOnce runs one workload at one seed in tree and parses its result.
// A run that fails an operation exits 1 after printing its result, so
// the exit status matters only when there is no result to read. The run
// gets a process group of its own, and an interrupt kills the whole
// group: the build run.sh starts before it execs the benchmark must not
// outlive benchab and write into a worktree being removed.
func runOnce(ctx context.Context, tree string, c contract, workload string, seed int64) (result, error) {
	start := time.Now()
	args := append(slices.Clip(c.Command[1:]), "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(c.RunSeconds), "--trace", "0")
	cmd := exec.CommandContext(ctx, c.Command[0], args...)
	cmd.Dir = tree
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}
	r, err := parseResult(out.String())
	if err != nil {
		return r, fmt.Errorf("%s seed %d in %s: %w (exit: %v)", workload, seed, tree, err, runErr)
	}
	fmt.Fprintf(os.Stderr, "benchab: %s seed %d in %s: %.1f s\n", workload, seed, tree, time.Since(start).Seconds())
	return r, nil
}

// report prints one metric's pairs on one workload. A metric the
// workload does not report reads 0 in every run and is skipped.
func report(w io.Writer, workload string, m metricSpec, seeds []int64, base, head []float64) {
	if !slices.ContainsFunc(base, func(v float64) bool { return v != 0 }) {
		return
	}
	s := summarize(base, head, m.Better)
	fmt.Fprintf(w, "\n%s@%s [%s, %s is better, bound %g]\n", m.Name, workload, m.Unit, m.Better, m.Bound)
	fmt.Fprintf(w, "  %-6s %12s %12s %8s\n", "seed", "base", "head", "ratio")
	for i, seed := range seeds {
		fmt.Fprintf(w, "  %-6d %12.4g %12.4g %8.3f\n", seed, base[i], head[i], s.ratios[i])
	}
	iqr, moved := s.baseQ3-s.baseQ1, "no more"
	if max(s.headMed-s.baseMed, s.baseMed-s.headMed) > iqr {
		moved = "more"
	}
	fmt.Fprintf(w, "  median %.4g -> %.4g (x%.3f); base quartiles %.4g / %.4g, IQR %.4g: the medians differ by %s than it\n",
		s.baseMed, s.headMed, s.headMed/s.baseMed, s.baseQ1, s.baseQ3, iqr, moved)
	fmt.Fprintf(w, "  head better in %d of %d pairs (%d worse, %d tied); two-sided sign test p = %.4f\n",
		s.won, len(seeds), s.lost, len(seeds)-s.won-s.lost, s.p)
}

// git runs git in dir (the process's own when empty) and returns its
// trimmed output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
