package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pccproteus/internal/stats"
)

// contract is what benchab reads of BENCHMARK.json: the command that
// runs one workload, how long a run measures, the workloads and their
// end-to-end metrics.
type contract struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// parseContract decodes BENCHMARK.json and checks that it names a
// command and a run length.
func parseContract(raw []byte) (contract, error) {
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(c.Command) == 0 || c.RunSeconds <= 0 {
		return c, fmt.Errorf("BENCHMARK.json: command %q, run_seconds %g: want a command and a positive run length", c.Command, c.RunSeconds)
	}
	return c, nil
}

// metricSpec is one end-to-end metric: its unit, the direction that is
// better ("higher" or "lower") and the regression bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the JSON line a benchmark run ends with.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// ok reports whether the run was correct and failed no operation.
func (r result) ok() bool { return r.Correct && r.Failed == 0 }

// parseResult reads the result line: the last non-empty line of out.
func parseResult(out string) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	if last == "" {
		return r, fmt.Errorf("no output")
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("result line %q: %w", last, err)
	}
	return r, nil
}

// parseSeeds reads a seed list such as "1-10" or "1-10,12".
func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", part, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return nil, fmt.Errorf("seed %q: %w", part, err)
			}
		}
		if b < a {
			return nil, fmt.Errorf("seed range %q runs backwards", part)
		}
		for x := a; x <= b; x++ {
			seeds = append(seeds, x)
		}
	}
	return seeds, nil
}

// wins counts the pairs where head is better than base in the direction
// better names, and those where it is worse; ties count for neither.
func wins(base, head []float64, better string) (won, lost int) {
	for i := range base {
		d := head[i] - base[i]
		if better == "lower" {
			d = -d
		}
		switch {
		case d > 0:
			won++
		case d < 0:
			lost++
		}
	}
	return won, lost
}

// signTestP is the two-sided sign test's p-value for won of won+lost
// pairs under the null hypothesis that either side wins a pair with
// probability one half.
func signTestP(won, lost int) float64 {
	n, k := won+lost, min(won, lost)
	if n == 0 {
		return 1
	}
	// Σ_{i≤k} C(n,i) / 2^n, each term in logs so large n cannot overflow.
	tail := 0.0
	for i := 0; i <= k; i++ {
		lg := lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1) - float64(n)*math.Ln2
		tail += math.Exp(lg)
	}
	return min(1, 2*tail)
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}

// summary is one metric's pairs on one workload.
type summary struct {
	ratios           []float64 // head / base, per pair
	baseMed, headMed float64
	baseQ1, baseQ3   float64
	won, lost        int
	p                float64
}

// summarize compares head with base, pair by pair.
func summarize(base, head []float64, better string) summary {
	s := summary{baseMed: stats.Median(base), headMed: stats.Median(head)}
	for i := range base {
		s.ratios = append(s.ratios, head[i]/base[i])
	}
	s.baseQ1, s.baseQ3 = stats.Quartiles(base)
	s.won, s.lost = wins(base, head, better)
	s.p = signTestP(s.won, s.lost)
	return s
}
