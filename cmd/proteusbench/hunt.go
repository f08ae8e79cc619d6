package main

import (
	"fmt"
	"io"

	"pccproteus/internal/adversary"
	"pccproteus/internal/pathmodel"
)

// runHunt drives the adversarial search: it hunts for a schedule that
// breaks one of proto's invariants, prints the deterministic search log
// and final verdicts, and (optionally) writes the minimized
// counterexample as a JSON replay file. The exit error is non-nil only
// on operational failures — finding a violation is a successful hunt.
func runHunt(w io.Writer, proto, model string, budget int, seed int64, fast bool, out string) error {
	sc := adversary.DefaultScenario(proto, fast)
	if model != "" {
		sc.PathModel = &pathmodel.Spec{Kind: model}
	}
	cfg := adversary.Config{
		Scenario: sc,
		Budget:   budget,
		Seed:     seed,
	}
	fmt.Fprintf(w, "# hunt: %s, budget %d, seed %d\n", cfg.Scenario, cfg.Budget, seed)
	res, err := adversary.Hunt(cfg)
	if err != nil {
		return err
	}
	for _, line := range res.Log {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "evaluations: %d search + %d shrink\n", res.Evals, res.ShrinkEvals)

	if res.Counterexample == nil {
		fmt.Fprintf(w, "no violation found; closest schedule (fitness %+.4f):\n", res.BestFitness)
		fmt.Fprintln(w, "  "+res.Best.String())
		for _, v := range res.BestVerdicts {
			fmt.Fprintln(w, "  "+v.String())
		}
		return nil
	}

	ce := res.Counterexample
	fmt.Fprintf(w, "VIOLATION: %s\n", ce.Verdict)
	fmt.Fprintln(w, "minimized schedule:")
	fmt.Fprintln(w, "  "+ce.Schedule.String())
	if out != "" {
		if err := ce.WriteFile(out); err != nil {
			return err
		}
		fmt.Fprintf(w, "replay file written to %s\n", out)
	}
	return nil
}

// runReplay re-verifies a counterexample file: it prints the simulator's
// verdicts, then re-executes the schedule against an engine flow and
// checks the wire invariants.
func runReplay(w io.Writer, path string) error {
	ce, vs, err := adversary.ReplayFile(path)
	if ce != nil {
		fmt.Fprintf(w, "# replay: %s (seed %d)\n", ce.Scenario, ce.Seed)
		fmt.Fprintln(w, "schedule: "+ce.Schedule.String())
		for _, v := range vs {
			fmt.Fprintln(w, "  "+v.String())
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded verdict reproduces: %s\n", ce.Verdict)
	rep, err := adversary.ReplayWire(ce)
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.Render())
	if !rep.OK() {
		return fmt.Errorf("wire replay reproduced %d violation(s)", len(rep.Violations))
	}
	return nil
}
