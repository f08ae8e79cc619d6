package adversary

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"pccproteus/internal/chaos"
	"pccproteus/internal/core"
	"pccproteus/internal/engine"
	"pccproteus/internal/exp"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// Wire replay: a counterexample's impairment schedule, re-executed on
// the real UDP loopback datapath through the wire shim. The sim
// invariants cannot be re-judged there (wire runs are single-flow and
// real-time-compressed), so the wire pass checks its own, weaker
// properties — ones that must hold in any datapath claiming to emulate
// the schedule:
//
//   - wire-capacity: acked throughput cannot exceed the time-integral
//     of the emulated capacity (with slack for the queue draining).
//   - wire-progress: the flow must not stall outright.
//
// A counterexample that violates a sim invariant AND breaks these on
// the wire points at a controller bug; one that replays cleanly on the
// wire localizes the issue to sim-only dynamics.
const (
	// wireReplayDur is the real-time length of a wire replay. Hunt
	// schedules span 60–90 virtual seconds; replaying them 1:1 would
	// make `-replay -wire` painfully slow, so the schedule's timeline is
	// compressed onto this many wall seconds (rates, delays and loss
	// probabilities are preserved; only event times shrink).
	wireReplayDur = 12.0

	// wireCapTol is the slack factor on the capacity integral: the
	// receiver can momentarily ack faster than the long-run capacity
	// while the bottleneck queue drains.
	wireCapTol = 1.1
)

// WireReplay is the outcome of one counterexample replay on the wire.
type WireReplay struct {
	Scenario     Scenario
	TimeScale    float64 // virtual seconds per wire second
	Updates      []wire.ShimUpdate
	FaultPlan    *chaos.Plan // fault segments on the compressed clock, nil if none
	SkippedFlows int         // flow segments the single-flow wire path cannot run
	Result       *engine.ShimLoopbackResult
	Verdicts     []Verdict
	Violations   []Verdict
}

// OK reports whether every wire invariant held.
func (w *WireReplay) OK() bool { return len(w.Violations) == 0 }

// WireSchedule compiles a counterexample's environment segments into
// timed shim updates on a compressed clock. Each update carries the
// full path state sampled from the same pure functions the simulator
// applied (RateAt/LossAt/DelayAt/QueueCapAt), so the wire shim walks
// through exactly the sequence of operating points the sim run did.
// Flow segments have no wire equivalent and are counted, not applied.
func WireSchedule(ce *Counterexample) (updates []wire.ShimUpdate, timeScale float64, skippedFlows int) {
	sc := ce.Scenario.withModel()
	sch := ce.Schedule.Canonical(sc)
	timeScale = sc.Duration / wireReplayDur
	if timeScale < 1 {
		timeScale = 1
	}
	boundaries := map[float64]struct{}{}
	add := func(t float64) {
		if t > 0 && t <= sc.Duration {
			boundaries[t] = struct{}{}
		}
	}
	// Path-model steps are change boundaries exactly as in the sim
	// applier, so the compressed wire schedule walks the same operating
	// points.
	if sc.model != nil {
		for _, st := range pathmodel.Steps(sc.model, sc.Duration) {
			add(st.At)
		}
	}
	for _, g := range sch.Segments {
		if g.Kind == KindFlow {
			skippedFlows++
			continue
		}
		if isFaultKind(g.Kind) {
			continue // replayed via the shim's chaos executor, not shim updates
		}
		add(g.At)
		add(g.end())
		if g.Kind == KindBWOsc {
			for t := g.At + g.Value; t < g.end(); t += g.Value {
				add(t)
			}
		}
	}
	times := make([]float64, 0, len(boundaries))
	for t := range boundaries {
		times = append(times, t)
	}
	sort.Float64s(times)
	for _, t := range times {
		updates = append(updates, wire.ShimUpdate{
			At:         t / timeScale,
			RateMbps:   sch.RateAt(sc, t),
			LossProb:   sch.LossAt(t),
			ExtraDelay: sch.DelayAt(sc, t) - sc.RTT/2,
			QueueBytes: sch.QueueCapAt(sc, t),
		})
	}
	return updates, timeScale, skippedFlows
}

// ReplayWire runs the counterexample's schedule through the wire shim
// and judges the wire invariants. It runs for wireReplayDur real
// seconds.
func ReplayWire(ce *Counterexample) (*WireReplay, error) {
	sc := ce.Scenario
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withModel()
	updates, timeScale, skipped := WireSchedule(ce)
	w := &WireReplay{
		Scenario: sc, TimeScale: timeScale,
		Updates: updates, SkippedFlows: skipped,
	}
	// Fault segments ride the same compressed clock as the shim updates:
	// the schedule's chaos plan, scaled onto wire time, replays through
	// the loopback harness's chaos executor.
	var chaosPlan *chaos.Plan
	plan, ok := ce.Schedule.Canonical(sc).FaultPlan()
	if sc.model != nil {
		if mp, mok := pathmodel.FaultPlan(sc.model, sc.Duration); mok {
			plan = pathmodel.MergePlans(plan, mp)
			ok = true
		}
	}
	if ok {
		scaled := plan.Scale(timeScale)
		chaosPlan = &scaled
		w.FaultPlan = &scaled
	}
	rng := rand.New(rand.NewSource(wire.MixSeed(ce.Seed, 0x9a)))
	var cc transport.Controller
	if sc.Proto == exp.ProtoProteusH {
		c, h := core.NewProteusH(rng)
		h.SetThreshold(hybridThresholdFor(sc))
		cc = c
	} else {
		cc = exp.NewControllerRNG(rng, sc.Proto)
	}
	res, err := engine.RunShimLoopback(engine.ShimLoopbackConfig{
		CC: cc,
		Shim: wire.ShimConfig{
			RateMbps:   sc.LinkMbps,
			QueueBytes: sc.BufBytes,
			Delay:      sc.RTT / 2,
			AckDelay:   sc.RTT / 2,
			Seed:       wire.MixSeed(ce.Seed, 0x3c),
		},
		Duration:    wireReplayDur,
		MeasureFrom: sc.Warmup / timeScale,
		Schedule:    updates,
		Chaos:       chaosPlan,
	})
	if err != nil {
		return nil, err
	}
	w.Result = res
	w.Verdicts = checkWire(res)
	for _, v := range w.Verdicts {
		if v.Violated() {
			w.Violations = append(w.Violations, v)
		}
	}
	return w, nil
}

// checkWire evaluates the wire invariants on a finished loopback run.
func checkWire(res *engine.ShimLoopbackResult) []Verdict {
	// wire-capacity: acked bytes vs the capacity integral the shim
	// actually emulated (rate changes included), with queue-drain slack.
	capV := Verdict{Invariant: "wire-capacity", Margin: 1}
	if allowed := wireCapTol * res.CapacityMbps; allowed > 0 {
		acked := float64(res.Flow.AckedBytes) * 8 / 1e6 / wireReplayDur
		capV.Margin = clamp((allowed-acked)/allowed, -1, 1)
		capV.Detail = fmt.Sprintf("acked %.2f Mbps vs %.2f allowed (cap %.2f × %.1f)",
			acked, allowed, res.CapacityMbps, wireCapTol)
	}
	// wire-progress: the compressed schedule must not stall the flow.
	progV := Verdict{Invariant: "wire-progress"}
	meas := 0.0
	n := 0
	for _, m := range res.PerSecMbps[len(res.PerSecMbps)/2:] {
		meas += m
		n++
	}
	if n > 0 {
		meas /= float64(n)
	}
	progV.Margin = clamp(meas/progressFloor-1, -1, 1)
	progV.Detail = fmt.Sprintf("%.3f Mbps over the last %d s (floor %.2g)", meas, n, progressFloor)
	// wire-finite: the datapath's own numbers stay sane.
	finV := Verdict{Invariant: "wire-finite", Margin: 1}
	for _, x := range []float64{res.Mbps, res.MeanRTT, res.P95RTT, res.LossRate} {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			finV = Verdict{Invariant: "wire-finite", Margin: -1,
				Detail: fmt.Sprintf("non-finite or negative wire stat %v", x)}
			break
		}
	}
	return []Verdict{capV, progV, finV}
}

// Render formats the replay for the CLI.
func (w *WireReplay) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Wire replay: %s, compressed ×%.1f onto %.0f s\n",
		w.Scenario, w.TimeScale, wireReplayDur)
	fmt.Fprintf(&b, "shim updates: %d", len(w.Updates))
	if w.FaultPlan != nil {
		fmt.Fprintf(&b, "  chaos faults: %d", len(w.FaultPlan.Faults))
	}
	if w.SkippedFlows > 0 {
		fmt.Fprintf(&b, "  (skipped %d flow segment(s): wire path is single-flow)", w.SkippedFlows)
	}
	b.WriteByte('\n')
	r := w.Result
	fmt.Fprintf(&b, "throughput %.2f Mbps  meanRTT %.1f ms  p95RTT %.1f ms  loss %.2f%%  capacity(avg) %.2f Mbps\n",
		r.Mbps, r.MeanRTT*1e3, r.P95RTT*1e3, r.LossRate*100, r.CapacityMbps)
	fmt.Fprintf(&b, "shim: enq=%d drop=%d rand-loss=%d delivered=%d acks=%d overflow=%d\n",
		r.Shim.Enqueued, r.Shim.Dropped, r.Shim.LostRandom, r.Shim.Delivered, r.Shim.AcksRelay, r.Shim.Overflow)
	for _, v := range w.Verdicts {
		fmt.Fprintf(&b, "%s\n", v)
	}
	return b.String()
}
