package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"pccproteus/internal/chaos"
	"pccproteus/internal/engine"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// ChaosSoakOptions configures one cross-world fault-replay run: the
// same canonical chaos plan is applied to the simulator link and to the
// real-UDP shim, and the survival machinery plus per-category fault
// attribution are compared between worlds.
type ChaosSoakOptions struct {
	Protos     []string    // default: proteus-p, proteus-s, proteus-h
	Mbps       float64     // bottleneck capacity (default 20)
	RTT        float64     // base round-trip, seconds (default 0.040)
	QueueBytes int         // default 1.5 × BDP
	Duration   float64     // seconds, both domains (default 16; wire runs real time)
	Seed       int64       // master seed (0 = 1)
	Plan       *chaos.Plan // nil = DefaultSoakPlan(Duration)
}

func (o *ChaosSoakOptions) defaults() {
	if len(o.Protos) == 0 {
		o.Protos = []string{ProtoProteusP, ProtoProteusS, ProtoProteusH}
	}
	if o.Mbps <= 0 {
		o.Mbps = 20
	}
	if o.RTT <= 0 {
		o.RTT = 0.040
	}
	if o.QueueBytes <= 0 {
		o.QueueBytes = int(1.5 * o.Mbps * 1e6 / 8 * o.RTT)
	}
	if o.Duration <= 0 {
		o.Duration = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Plan == nil {
		p := DefaultSoakPlan(o.Duration)
		o.Plan = &p
	}
}

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

// ChaosAttribution is the per-category fault accounting one world
// reports after a soak: how many packets each injected fault destroyed,
// damaged, duplicated, reordered, or flushed.
type ChaosAttribution struct {
	FaultDrop  int64 // data destroyed by blackout
	AckDropped int64 // acks destroyed by blackout / ack blackout
	Corrupted  int64
	Duplicated int64
	Reordered  int64
	Flushed    int64 // data flushed by peer restart
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
	Opts ChaosSoakOptions
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

// ChaosSoak replays the plan through both worlds for each protocol.
// The wire half runs in real time: expect ~len(Protos)×Duration wall
// seconds.
func ChaosSoak(o ChaosSoakOptions) (*ChaosSoakResult, error) {
	o.defaults()
	plan := o.Plan.Canonical()
	res := &ChaosSoakResult{Opts: o, Plan: plan}
	planHasBlackout := false
	for _, f := range plan.Faults {
		if f.Kind == chaos.KindBlackout {
			planHasBlackout = true
		}
	}
	for i, proto := range o.Protos {
		seed := o.Seed + int64(i)
		row := ChaosSoakRow{Proto: proto}
		row.SimMbps, row.SimTrips, row.SimRecov, row.SimAttr = chaosSoakSim(seed, o, plan, proto)

		lb, err := engine.RunShimLoopback(engine.ShimLoopbackConfig{
			CC: NewControllerRNG(rand.New(rand.NewSource(wire.MixSeed(seed, 0x55))), proto),
			Shim: wire.ShimConfig{
				RateMbps:   o.Mbps,
				QueueBytes: o.QueueBytes,
				Delay:      o.RTT / 2,
				AckDelay:   o.RTT / 2,
				Seed:       wire.MixSeed(seed, 0x77),
			},
			Duration: o.Duration,
			Chaos:    &plan,
		})
		if err != nil {
			return nil, fmt.Errorf("wire soak %s: %w", proto, err)
		}
		row.WireMbps = float64(lb.Flow.AckedBytes) * 8 / o.Duration / 1e6
		row.WireTrips = lb.Flow.WatchdogTrips
		row.WireRecov = lb.Flow.Recoveries
		row.WireAttr = ChaosAttribution{
			FaultDrop:  lb.Shim.FaultDrop,
			AckDropped: lb.Shim.AckFaultDrop,
			Corrupted:  lb.Shim.Corrupted,
			Duplicated: lb.Shim.Duplicated,
			Reordered:  lb.Shim.Reordered,
			Flushed:    lb.Shim.Flushed,
		}

		// Attribution must agree across worlds: every category a fault
		// activated in one world must also have fired in the other.
		simCats, wireCats := row.SimAttr.categories(), row.WireAttr.categories()
		for j := range simCats {
			if (simCats[j].N > 0) != (wireCats[j].N > 0) {
				row.Mismatch = simCats[j].Name
				break
			}
		}
		row.Pass = row.Mismatch == ""
		if planHasBlackout {
			row.Pass = row.Pass &&
				row.SimTrips >= 1 && row.SimRecov >= 1 &&
				row.WireTrips >= 1 && row.WireRecov >= 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// chaosSoakSim is the simulator half: a solo survival-enabled flow on
// the matched link with the plan applied via chaos.ApplySim.
func chaosSoakSim(seed int64, o ChaosSoakOptions, plan chaos.Plan, proto string) (mbps float64, trips, recov int64, attr ChaosAttribution) {
	s := sim.New(seed)
	spec := LinkSpec{Mbps: o.Mbps, RTT: o.RTT, BufBytes: o.QueueBytes}
	path := spec.Build(s)
	snd := transport.NewSender(1, path, NewController(s, proto))
	snd.Survival = true
	chaos.ApplySim(s, path.Link, path, plan, o.Duration)
	snd.Start()
	s.Run(o.Duration)

	mbps = float64(snd.AckedBytes()) * 8 / o.Duration / 1e6
	trips, recov = snd.WatchdogTrips(), snd.WatchdogRecoveries()
	ls, ps := path.Link.Stats(), path.Stats()
	attr = ChaosAttribution{
		FaultDrop:  ls.FaultDrop,
		AckDropped: ps.AckDropped,
		Corrupted:  ls.Corrupted,
		Duplicated: ls.Duplicated,
		Reordered:  ls.Reordered,
		Flushed:    ls.Flushed,
	}
	return mbps, trips, recov, attr
}

// Render formats the soak table: throughput, survival counters, and
// the per-category attribution comparison.
func (r *ChaosSoakResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Chaos soak: %.0f Mbps, %.0f ms RTT, %.1f s, %d faults replayed in both worlds\n",
		r.Opts.Mbps, r.Opts.RTT*1e3, r.Opts.Duration, len(r.Plan.Faults))
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
