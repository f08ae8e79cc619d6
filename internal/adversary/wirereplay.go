package adversary

import (
	"fmt"
	"math"
	"strings"

	"pccproteus/internal/chaos"
	"pccproteus/internal/engine"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// Wire replay: a counterexample's run with the target moved from the
// simulated transport onto the real datapath — an engine flow between
// two engines on an engine.SimNet, across the path Run builds, under the
// schedule Run applies, second for second. Competitor flows stay
// simulated senders on the same bottleneck. The sim invariants are
// calibrated on the simulated sender's timelines and are not re-judged;
// the wire pass checks properties that must hold for any sender on that
// path:
//
//   - wire-capacity: acked throughput cannot exceed the time-integral
//     of the schedule's capacity (with slack for the queue draining).
//   - wire-progress: the flow must not stall outright.
//   - wire-finite: the datapath's own statistics stay sane.
//
// A counterexample that violates a sim invariant AND breaks these on
// the engine points at a controller bug; one that replays cleanly
// localizes the issue to the simulated sender's dynamics.

// wireCapTol is the slack factor on the capacity integral: the
// receiver can momentarily ack faster than the long-run capacity
// while the bottleneck queue drains.
const wireCapTol = 1.1

// WireReplay is the outcome of one counterexample replay on the engine.
type WireReplay struct {
	Scenario     Scenario
	Schedule     Schedule // canonical, as applied
	CapacityMbps float64  // the schedule's RateAt, averaged over the run
	Result       engine.LoopbackRun
	Link         netem.LinkStats // the bottleneck's, at the run's end
	Verdicts     []Verdict
	Violations   []Verdict
}

// OK reports whether every wire invariant held.
func (w *WireReplay) OK() bool { return len(w.Violations) == 0 }

// capacityMbps integrates the schedule's capacity over [0, Duration]
// along its own change boundaries and returns the time average.
func (s Schedule) capacityMbps(sc Scenario) float64 {
	sum, from := 0.0, 0.0
	for _, t := range append(s.boundaries(sc), sc.Duration) {
		sum += s.RateAt(sc, from) * (t - from)
		from = t
	}
	return sum / sc.Duration
}

// ReplayWire runs the counterexample's schedule against an engine flow
// in virtual time and judges the wire invariants. Like Run it is a pure
// function of the counterexample.
func ReplayWire(ce *Counterexample) (*WireReplay, error) {
	sc := ce.Scenario
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withModel()
	schedule := ce.Schedule.Canonical(sc)
	w := &WireReplay{Scenario: sc, Schedule: schedule, CapacityMbps: schedule.capacityMbps(sc)}

	s := sim.New(ce.Seed)
	lb, err := engine.NewLoopback(s, engine.Config{}, engine.Config{})
	if err != nil {
		return nil, err
	}
	defer lb.Stop()
	cc, _ := sc.newController(s)
	fl, path, err := lb.StartFlow(wire.ShimConfig{RateMbps: sc.LinkMbps, QueueBytes: sc.BufBytes, Delay: sc.RTT / 2, AckDelay: sc.RTT / 2}, cc)
	if err != nil {
		return nil, err
	}
	var competitors []*transport.Sender
	// The engine flow is already running: StartFlow built the path for it.
	if err := sc.stage(s, path, schedule, &competitors, func(bool) {}, func(plan chaos.Plan) error {
		return lb.Install(nil, &plan, sc.Duration)
	}); err != nil {
		return nil, err
	}
	w.Result = lb.Measure(fl, sc.Duration, sc.Warmup)
	w.Link = path.Link.Stats()
	w.Verdicts = w.check()
	for _, v := range w.Verdicts {
		if v.Violated() {
			w.Violations = append(w.Violations, v)
		}
	}
	return w, nil
}

// check evaluates the wire invariants on the finished run.
func (w *WireReplay) check() []Verdict {
	res := w.Result
	// wire-capacity: acked bytes vs the capacity integral of the
	// schedule (rate changes included), with queue-drain slack.
	capV := Verdict{Invariant: "wire-capacity", Margin: 1}
	if allowed := wireCapTol * w.CapacityMbps; allowed > 0 {
		acked := float64(res.Flow.AckedBytes) * 8 / 1e6 / w.Scenario.Duration
		capV.Margin = clamp((allowed-acked)/allowed, -1, 1)
		capV.Detail = fmt.Sprintf("acked %.2f Mbps vs %.2f allowed (cap %.2f × %.1f)",
			acked, allowed, w.CapacityMbps, wireCapTol)
	}
	// wire-progress: the schedule must not stall the flow.
	progV := Verdict{Invariant: "wire-progress"}
	tail := res.PerSecMbps[len(res.PerSecMbps)/2:]
	meas := meanOver(tail, 0, len(tail))
	progV.Margin = clamp(meas/progressFloor-1, -1, 1)
	progV.Detail = fmt.Sprintf("%.3f Mbps over the last %d s (floor %.2g)", meas, len(tail), progressFloor)
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
	fmt.Fprintf(&b, "# Wire replay (engine flow, virtual time): %s\n", w.Scenario)
	fmt.Fprintf(&b, "schedule: %s\n", w.Schedule)
	r := w.Result
	fmt.Fprintf(&b, "throughput %.2f Mbps  meanRTT %.1f ms  p95RTT %.1f ms  loss %.2f%%  capacity(avg) %.2f Mbps\n",
		r.Mbps, r.MeanRTT*1e3, r.P95RTT*1e3, r.LossRate*100, w.CapacityMbps)
	fmt.Fprintf(&b, "link: enq=%d drop=%d rand-loss=%d fault-drop=%d delivered=%d\n",
		w.Link.Enqueued, w.Link.Dropped, w.Link.LostRandom, w.Link.FaultDrop, w.Link.Delivered)
	for _, v := range w.Verdicts {
		fmt.Fprintf(&b, "%s\n", v)
	}
	return b.String()
}
