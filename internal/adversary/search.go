package adversary

import (
	"fmt"
	"math/rand"
	"sort"

	"pccproteus/internal/campaign"
)

// Config parameterizes one hunt.
type Config struct {
	Scenario Scenario
	Budget   int   // schedule evaluations to spend searching
	Seed     int64 // master seed: schedules, runs, everything derives from it
	Jobs     int   // parallel evaluation workers (1 = serial, ≤0 = GOMAXPROCS)
}

// Result is the outcome of a hunt. When the search found a violation,
// Counterexample holds the minimized schedule and its verdict;
// otherwise Best is the schedule that came closest (smallest margin).
type Result struct {
	Config         Config
	Evals          int
	ShrinkEvals    int
	Best           Schedule
	BestVerdicts   []Verdict
	BestFitness    float64
	Counterexample *Counterexample
	Log            []string // deterministic per-generation progress lines
}

// Search internals. genSize is fixed (not derived from Jobs) so a hunt
// produces identical results whatever the worker count.
const (
	genSize      = 16
	elitePool    = 8
	freshFrac    = 0.15 // fraction of later generations drawn fresh
	shrinkBudget = 150  // extra evaluations granted to the shrinker
)

type evaluated struct {
	schedule Schedule
	verdicts []Verdict
	fitness  float64
}

// evaluator runs schedules against one scenario with a shared baseline.
type evaluator struct {
	sc       Scenario
	seed     int64
	baseline *Baseline
	jobs     int
}

func (e *evaluator) evalOne(s Schedule) evaluated {
	rc := Run(e.sc, s, e.seed)
	rc.Baseline = e.baseline
	vs := CheckAll(rc)
	return evaluated{schedule: rc.Schedule, verdicts: vs, fitness: MinMargin(vs)}
}

// evalBatch evaluates candidates on e.jobs workers (≤0 = GOMAXPROCS).
// Results land in input order, so the outcome is independent of
// scheduling.
func (e *evaluator) evalBatch(cands []Schedule) []evaluated {
	out := make([]evaluated, len(cands))
	campaign.OrderedReduce(len(cands), e.jobs,
		func(i int) evaluated { return e.evalOne(cands[i]) },
		func(i int, v evaluated) { out[i] = v })
	return out
}

// Hunt searches for a schedule that violates one of the target
// protocol's invariants, then shrinks the first violation found. It is
// deterministic in Config (Jobs affects wall-clock only).
func Hunt(cfg Config) (*Result, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	if cfg.Budget < 1 {
		cfg.Budget = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ev := &evaluator{
		sc:       cfg.Scenario,
		seed:     cfg.Seed,
		baseline: NewBaseline(cfg.Scenario, cfg.Seed),
		jobs:     cfg.Jobs,
	}
	res := &Result{Config: cfg, BestFitness: 2}

	var elites []evaluated
	gen := 0
	for res.Evals < cfg.Budget {
		gen++
		size := genSize
		if rem := cfg.Budget - res.Evals; size > rem {
			size = rem
		}
		cands := make([]Schedule, size)
		for i := range cands {
			if len(elites) == 0 || rng.Float64() < freshFrac {
				cands[i] = RandomSchedule(rng, cfg.Scenario)
			} else {
				cands[i] = Mutate(rng, cfg.Scenario, elites[rng.Intn(len(elites))].schedule)
			}
		}
		batch := ev.evalBatch(cands)
		res.Evals += len(batch)

		// Merge into the elite pool; stable sort keeps ties in arrival
		// order, so the pool is identical run to run.
		elites = append(elites, batch...)
		sort.SliceStable(elites, func(i, j int) bool { return elites[i].fitness < elites[j].fitness })
		if len(elites) > elitePool {
			elites = elites[:elitePool]
		}
		best := elites[0]
		res.Log = append(res.Log, fmt.Sprintf("gen %d: evals=%d best-fitness=%+.4f (%s)",
			gen, res.Evals, best.fitness, worstName(best.verdicts)))
		if best.fitness < 0 {
			break
		}
	}

	best := elites[0]
	res.Best = best.schedule
	res.BestVerdicts = best.verdicts
	res.BestFitness = best.fitness
	if best.fitness >= 0 {
		return res, nil
	}

	// Violation: shrink it to a short reproducing schedule.
	target := worstName(best.verdicts)
	small, evals := Shrink(ev, best.schedule, target, shrinkBudget)
	res.ShrinkEvals = evals
	final := ev.evalOne(small)
	res.Counterexample = &Counterexample{
		Version:  CounterexampleVersion,
		Scenario: cfg.Scenario,
		Seed:     cfg.Seed,
		Schedule: small,
		Verdict:  findVerdict(final.verdicts, target),
		Fitness:  final.fitness,
	}
	return res, nil
}

// worstName returns the invariant with the smallest margin.
func worstName(vs []Verdict) string {
	name, m := "", 2.0
	for _, v := range vs {
		if v.Margin < m {
			m, name = v.Margin, v.Invariant
		}
	}
	return name
}

// findVerdict returns the named verdict (zero Verdict if absent).
func findVerdict(vs []Verdict, name string) Verdict {
	for _, v := range vs {
		if v.Invariant == name {
			return v
		}
	}
	return Verdict{}
}
