package main

import (
	"fmt"
	"io"
	"strings"

	"pccproteus/internal/adversary"
	"pccproteus/internal/exp"
)

// runWireParity cross-validates the controllers between the simulator
// and the real UDP loopback datapath (an engine flow through the
// impairment shim). Runs in real time: expect about one -wire-dur per
// protocol.
func runWireParity(w io.Writer, protos string, dur, mbps, rtt float64, seed int64, fast bool) error {
	if dur <= 0 {
		dur = 12
		if fast {
			dur = 8
		}
	}
	var list []string
	for _, p := range strings.Split(protos, ",") {
		if p = strings.TrimSpace(p); p != "" {
			list = append(list, p)
		}
	}
	res, err := exp.WireParity(exp.WireParityOptions{
		Protos:   list,
		Mbps:     mbps,
		RTT:      rtt,
		Duration: dur,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Render())
	if !res.AllPass() {
		return fmt.Errorf("wire parity outside %.0f%% tolerance", res.Opts.TolerancePct)
	}
	return nil
}

// runChaosSoak replays the default (or a scaled) chaos fault plan
// through both worlds — the simulator link and the real UDP shim — and
// prints the survival/attribution comparison. Runs in real time:
// expect about one -wire-dur per protocol.
func runChaosSoak(w io.Writer, protos string, dur, mbps, rtt float64, seed int64, fast bool) error {
	if dur <= 0 {
		dur = 16
		if fast {
			dur = 10
		}
	}
	var list []string
	for _, p := range strings.Split(protos, ",") {
		if p = strings.TrimSpace(p); p != "" {
			list = append(list, p)
		}
	}
	res, err := exp.ChaosSoak(exp.ChaosSoakOptions{
		Protos:   list,
		Mbps:     mbps,
		RTT:      rtt,
		Duration: dur,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Render())
	if !res.AllPass() {
		return fmt.Errorf("chaos soak failed: survival or attribution mismatch between worlds")
	}
	return nil
}

// runWireReplay re-executes a counterexample's impairment schedule on
// the wire shim and checks the wire invariants.
func runWireReplay(w io.Writer, path string) error {
	ce, err := adversary.ReadCounterexample(path)
	if err != nil {
		return err
	}
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
