package exp

import (
	"fmt"
	"strings"

	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
)

// DefaultSoakPlan builds the canonical soak schedule for a run of the
// given length: a 2 s full blackout once the ramp has settled, then
// overlapping corruption/duplication/reordering windows, and a short
// ack-path blackout near the end. Every fault category used by the
// attribution comparison is exercised.
func DefaultSoakPlan(duration float64) chaos.Plan {
	t := duration
	return chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.KindBlackout, At: 0.35 * t, Dur: 2},
		{Kind: chaos.KindCorrupt, At: 0.6 * t, Dur: 0.2 * t, Value: 0.03},
		{Kind: chaos.KindDuplicate, At: 0.6 * t, Dur: 0.2 * t, Value: 0.05},
		{Kind: chaos.KindReorder, At: 0.62 * t, Dur: 0.15 * t, Value: 0.1, Delay: 0.02},
		{Kind: chaos.KindAckBlackout, At: 0.85 * t, Dur: 0.4},
	}}.Canonical()
}

// ChaosAttribution is the path's per-category fault accounting after a
// soak: how many packets each injected fault destroyed, damaged,
// duplicated, reordered, or flushed.
type ChaosAttribution struct {
	FaultDrop  int64 // data destroyed by blackout
	AckDropped int64 // acks destroyed by blackout / ack blackout
	Corrupted  int64
	Duplicated int64
	Reordered  int64
	Flushed    int64 // data flushed by peer restart
}

func attributionOf(l netem.LinkStats, p netem.PathStats) ChaosAttribution {
	return ChaosAttribution{
		FaultDrop: l.FaultDrop, AckDropped: p.AckDropped, Corrupted: l.Corrupted,
		Duplicated: l.Duplicated, Reordered: l.Reordered, Flushed: l.Flushed,
	}
}

// categories returns the attribution counters in a fixed order with
// names, for comparison and rendering.
func (a ChaosAttribution) categories() []struct {
	Name string
	N    int64
} {
	return []struct {
		Name string
		N    int64
	}{
		{"fault-drop", a.FaultDrop},
		{"ack-drop", a.AckDropped},
		{"corrupted", a.Corrupted},
		{"duplicated", a.Duplicated},
		{"reordered", a.Reordered},
		{"flushed", a.Flushed},
	}
}

// ChaosSoakRow is one protocol's matched survival outcome.
type ChaosSoakRow struct {
	Proto               string
	SimMbps, WireMbps   float64 // acked throughput over the full run
	SimTrips, WireTrips int64   // watchdog trips
	SimRecov, WireRecov int64   // watchdog recoveries
	SimAttr, WireAttr   ChaosAttribution
	Mismatch            string // first attribution category active in one world only
	Pass                bool
}

// ChaosSoakResult is the full cross-world soak outcome.
type ChaosSoakResult struct {
	Opts CrossWorldOptions
	Plan chaos.Plan // the canonical plan both worlds replayed
	Rows []ChaosSoakRow
}

// AllPass reports whether every protocol survived in both worlds with
// matching fault attribution.
func (r *ChaosSoakResult) AllPass() bool {
	for _, row := range r.Rows {
		if !row.Pass {
			return false
		}
	}
	return true
}

// ChaosSoak is the cross-world fault replay: DefaultSoakPlan is applied
// to the path under the simulated transport and to the path under the
// engine for each protocol, and the survival machinery plus the paths'
// per-category fault attribution are compared.
func ChaosSoak(o CrossWorldOptions) (*ChaosSoakResult, error) {
	o.defaults(16)
	plan := DefaultSoakPlan(o.Duration)
	res := &ChaosSoakResult{Opts: o, Plan: plan}
	for i, proto := range o.Protos {
		seed := o.Seed + int64(i)
		row := ChaosSoakRow{Proto: proto}
		// The simulator half: a solo flow on the matched link under the
		// same plan, throughput over the full run.
		out := Run(Scenario{Seed: seed, Link: crossWorldLink, Flows: solo(proto), Faults: &plan, Duration: o.Duration})
		row.SimMbps = out.Flows[0].Mbps
		row.SimTrips, row.SimRecov = out.Flows[0].WatchdogTrips, out.Flows[0].WatchdogRecoveries
		row.SimAttr = attributionOf(out.Link, out.Path)

		lb, err := engineRun(seed, proto, nil, &plan, o.Duration, 0)
		if err != nil {
			return nil, err
		}
		row.WireMbps = float64(lb.Flow.AckedBytes) * 8 / o.Duration / 1e6
		row.WireTrips = lb.Flow.WatchdogTrips
		row.WireRecov = lb.Flow.Recoveries
		row.WireAttr = attributionOf(lb.Link, lb.Path)

		// Attribution must agree across worlds: every category a fault
		// activated in one world must also have fired in the other.
		simCats, wireCats := row.SimAttr.categories(), row.WireAttr.categories()
		for j := range simCats {
			if (simCats[j].N > 0) != (wireCats[j].N > 0) {
				row.Mismatch = simCats[j].Name
				break
			}
		}
		// The plan's blackout must trip and release the watchdog, as
		// often under one sender as under the other.
		row.Pass = row.Mismatch == "" &&
			row.SimTrips >= 1 && row.SimRecov >= 1 &&
			row.WireTrips == row.SimTrips && row.WireRecov == row.SimRecov
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the soak table: throughput, survival counters, and
// the per-category attribution comparison.
func (r *ChaosSoakResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Chaos soak: %.0f Mbps, %.0f ms RTT, %.1f s, %d faults replayed in both worlds\n",
		crossWorldLink.Mbps, crossWorldLink.RTT*1e3, r.Opts.Duration, len(r.Plan.Faults))
	for _, f := range r.Plan.Faults {
		fmt.Fprintf(&b, "#   %-13s t=[%.2f,%.2f)", f.Kind, f.At, f.At+f.Dur)
		if f.Value != 0 {
			fmt.Fprintf(&b, " value=%.3f", f.Value)
		}
		if f.Delay != 0 {
			fmt.Fprintf(&b, " delay=%.3f", f.Delay)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s %9s %9s %11s %11s  %s\n",
		"proto", "sim Mbps", "wire Mbps", "sim trip/rec", "wire trip/rec", "verdict")
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Pass {
			verdict = "FAIL"
			if row.Mismatch != "" {
				verdict += " (" + row.Mismatch + " attribution differs)"
			}
		}
		fmt.Fprintf(&b, "%-12s %9.2f %9.2f %8d/%-3d %8d/%-4d  %s\n",
			row.Proto, row.SimMbps, row.WireMbps,
			row.SimTrips, row.SimRecov, row.WireTrips, row.WireRecov, verdict)
	}
	fmt.Fprintf(&b, "%-12s %12s %12s\n", "attribution", "sim", "wire")
	for i, row := range r.Rows {
		if i > 0 {
			break // attribution is per-proto; render the first in full
		}
		simCats, wireCats := row.SimAttr.categories(), row.WireAttr.categories()
		for j := range simCats {
			fmt.Fprintf(&b, "  %-10s %12d %12d\n", simCats[j].Name, simCats[j].N, wireCats[j].N)
		}
	}
	return b.String()
}
