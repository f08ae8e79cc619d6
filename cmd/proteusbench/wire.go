package main

import (
	"fmt"
	"io"
	"strings"

	"pccproteus/internal/exp"
)

// protoList splits -wire-protos.
func protoList(protos string) []string {
	var list []string
	for _, p := range strings.Split(protos, ",") {
		if p = strings.TrimSpace(p); p != "" {
			list = append(list, p)
		}
	}
	return list
}

// runWireParity cross-validates the controllers between the simulated
// transport and the real datapath (an engine flow on an engine.SimNet)
// across the same emulated link: 12 virtual seconds per protocol, 8
// with -fast.
func runWireParity(w io.Writer, protos string, seed int64, fast bool) error {
	o := exp.CrossWorldOptions{Protos: protoList(protos), Seed: seed}
	if fast {
		o.Duration = 8
	}
	res, err := exp.WireParity(o)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Render())
	if !res.AllPass() {
		return fmt.Errorf("wire parity outside tolerance")
	}
	return nil
}

// runChaosSoak replays the default chaos fault plan under both senders
// and prints the survival/attribution comparison: 16 virtual seconds per
// protocol, 10 with -fast.
func runChaosSoak(w io.Writer, protos string, seed int64, fast bool) error {
	o := exp.CrossWorldOptions{Protos: protoList(protos), Seed: seed}
	if fast {
		o.Duration = 10
	}
	res, err := exp.ChaosSoak(o)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Render())
	if !res.AllPass() {
		return fmt.Errorf("chaos soak failed: survival or attribution mismatch between worlds")
	}
	return nil
}
