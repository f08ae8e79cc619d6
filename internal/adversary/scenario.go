package adversary

import (
	"fmt"
	"math"

	"pccproteus/internal/chaos"
	"pccproteus/internal/core"
	"pccproteus/internal/exp"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
	"pccproteus/internal/trace"
	"pccproteus/internal/transport"
)

// CompetitorProtos is the set of protocols a KindFlow segment may run
// against the target. They are the paper's primary protocols — the
// traffic a scavenger must yield to and a primary must share with.
var CompetitorProtos = []string{"cubic", "bbr", "proteus-p", "vivace", "copa"}

// Scenario fixes the base topology a hunt perturbs: one target flow of
// Proto on a single bottleneck. Schedules may only perturb the path
// after Warmup (the controller's start-up is not the behavior under
// test) and must go quiet early enough that the recovery invariant has
// a measurement window before Duration.
type Scenario struct {
	Proto    string  `json:"proto"`
	LinkMbps float64 `json:"link_mbps"`
	RTT      float64 `json:"rtt"`
	BufBytes int     `json:"buf_bytes"`
	Duration float64 `json:"duration"`
	Warmup   float64 `json:"warmup"`

	// PathModel, when set, makes the base path itself time-varying: the
	// model's capacity/delay schedule underlies every perturbation (a
	// bw-step multiplies the model's capacity at that instant, and the
	// invariant envelope functions track the same arithmetic), and the
	// model's outage windows merge into the run's chaos fault plan. A
	// zero model seed pins seed 1 so counterexamples replay bit-exactly
	// regardless of the hunt seed. Model-free scenarios are bit-identical
	// to runs from before this field existed.
	PathModel *pathmodel.Spec `json:"path_model,omitempty"`

	// model is the built PathModel, cached by withModel so hunts don't
	// rebuild (or re-read a trace file) on every envelope sample.
	model pathmodel.Model
}

// withModelErr returns sc with its path model built, validated, and
// cached; a nil PathModel or an already-built model is a no-op.
func (sc Scenario) withModelErr() (Scenario, error) {
	if sc.PathModel == nil || sc.model != nil {
		return sc, nil
	}
	ps := *sc.PathModel
	if ps.Seed == 0 {
		ps.Seed = 1 // replay determinism: never derive from the hunt seed
	}
	m, err := ps.Build(sc.Duration)
	if err != nil {
		return sc, err
	}
	if err := pathmodel.Validate(m, sc.Duration); err != nil {
		return sc, err
	}
	sc.model = m
	return sc, nil
}

// withModel is withModelErr for contexts past the Validate boundary,
// where a build failure is a programming error.
func (sc Scenario) withModel() Scenario {
	out, err := sc.withModelErr()
	if err != nil {
		panic(err)
	}
	return out
}

// baseMbpsAt returns the unperturbed path capacity at t: the static
// link rate, or the path model's (floor-clamped) prescription.
func (sc Scenario) baseMbpsAt(t float64) float64 {
	if sc.model == nil {
		return sc.LinkMbps
	}
	return pathmodel.ClampMbps(sc.model.StateAt(t).Mbps)
}

// baseDelayAt returns the unperturbed one-way delay at t: the static
// half-RTT plus whatever extra delay the path model prescribes.
func (sc Scenario) baseDelayAt(t float64) float64 {
	d := sc.RTT / 2
	if sc.model != nil {
		d += sc.model.StateAt(t).ExtraDelay
	}
	return d
}

// outageOverlaps reports whether a path-model outage window — plus the
// same post-heal settling grace blackout segments get — overlaps
// [a, b). Model-free scenarios never overlap.
func (sc Scenario) outageOverlaps(a, b float64) bool {
	if sc.model == nil {
		return false
	}
	plan, ok := pathmodel.FaultPlan(sc.model, sc.Duration)
	if !ok {
		return false
	}
	for _, f := range plan.Faults {
		if f.At < b && f.At+f.Dur+blackoutSettle > a {
			return true
		}
	}
	return false
}

// DefaultScenario returns the standard hunting ground for proto: a
// 40 Mbps / 40 ms / 1.5·BDP bottleneck, 90 virtual seconds with a 20 s
// warmup. fast halves the run for smoke tests.
func DefaultScenario(proto string, fast bool) Scenario {
	sc := Scenario{
		Proto:    proto,
		LinkMbps: 40,
		RTT:      0.040,
		BufBytes: 300000, // 1.5 BDP
		Duration: 90,
		Warmup:   20,
	}
	if fast {
		sc.Duration = 60
		sc.Warmup = 15
	}
	return sc
}

// maxSegEnd is the latest time any segment may still be active: the
// recovery invariant needs RecoveryT of settling plus a measurement
// window before the end of the run.
func (sc Scenario) maxSegEnd() float64 { return sc.Duration - RecoveryT - recoveryWindow }

func (sc Scenario) String() string {
	s := fmt.Sprintf("%s on %.0fMbps/%.0fms/%dKB, %.0fs (warmup %.0fs)",
		sc.Proto, sc.LinkMbps, sc.RTT*1000, sc.BufBytes/1000, sc.Duration, sc.Warmup)
	if sc.PathModel != nil {
		s += " over " + sc.PathModel.Kind + " path model"
	}
	return s
}

// Validate checks the scenario is runnable (known protocol, sane
// timing) before a hunt burns budget on it.
func (sc Scenario) Validate() error {
	if sc.maxSegEnd() <= sc.Warmup+minSegDur {
		return fmt.Errorf("adversary: duration %.0fs leaves no room for perturbations (warmup %.0fs + recovery %.0fs)",
			sc.Duration, sc.Warmup, RecoveryT+recoveryWindow)
	}
	if sc.LinkMbps <= 0 || sc.RTT <= 0 || sc.BufBytes <= 0 {
		return fmt.Errorf("adversary: scenario needs positive link parameters")
	}
	if _, err := sc.withModelErr(); err != nil {
		return err
	}
	return probeProto(sc.Proto)
}

// probeProto verifies proto is constructible, converting the harness's
// fail-loud panic into an error a CLI can print.
func probeProto(proto string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("adversary: %v", r)
		}
	}()
	s := sim.New(1)
	exp.NewController(s, proto)
	return nil
}

// RunContext is everything the invariant checkers see about one run:
// the scenario and schedule that produced it, per-second timelines of
// the target and its competitors, the target's flight-recorder event
// stream, and link-level counters.
type RunContext struct {
	Scenario Scenario
	Schedule Schedule
	Seed     int64

	// Per-second samples; index i covers virtual time [i, i+1).
	TargetMbps []float64 // target's acked throughput
	CompMbps   []float64 // all competitors' combined acked throughput
	PacingMbps []float64 // target CC's explicit pacing rate (0 = window-based)
	CWnd       []float64 // target CC's congestion window, bytes

	Events    []trace.Event // target flow's decision events
	Acked     int64
	LinkStats netem.LinkStats

	// HybridThreshold is the Proteus-H switching threshold the runner
	// configured (0 for every other controller).
	HybridThreshold float64

	// Baseline timelines from the unperturbed run of the same scenario
	// and seed; set by the evaluator, nil in a bare Run.
	Baseline *Baseline
}

// Baseline holds the clean (empty-schedule) run of a scenario, against
// which the recovery invariant compares.
type Baseline struct {
	TargetMbps []float64
}

// NewBaseline runs the scenario with no perturbations.
func NewBaseline(sc Scenario, seed int64) *Baseline {
	rc := Run(sc, Schedule{}, seed)
	return &Baseline{TargetMbps: rc.TargetMbps}
}

// hybridThresholdFor returns the Proteus-H switching threshold used in
// hunts: a quarter of the base capacity, the "keep at least this much"
// application demand of §4.3.
func hybridThresholdFor(sc Scenario) float64 { return sc.LinkMbps / 4 }

// adversaryMask captures only decision-level events: per-packet kinds
// are sampled separately by the per-second probes, and dropping them
// keeps a 200-candidate hunt's allocation footprint flat.
var adversaryMask = trace.MaskOf(trace.KindMIDecision, trace.KindRateChange,
	trace.KindUtilitySample, trace.KindModeSwitch)

// newController builds the target's controller; tau is the Proteus-H
// switching threshold it was given (0 for every other controller).
func (sc Scenario) newController(s *sim.Sim) (cc transport.Controller, tau float64) {
	if sc.Proto != exp.ProtoProteusH {
		return exp.NewController(s, sc.Proto), 0
	}
	c, h := core.NewProteusH(s.Rand())
	tau = hybridThresholdFor(sc)
	h.SetThreshold(tau)
	return c, tau
}

// faultPlan is what replays through the chaos model: the schedule's
// fault segments and the path model's outage windows — a handover
// micro-blackout arms survival exactly like an adversarial blackout
// segment. Only when it reports faults do the senders run with the
// survival machinery armed: fault-free schedules stay bit-identical to
// runs from before the chaos subsystem existed, which keeps the golden
// counterexamples valid.
func (sc Scenario) faultPlan(schedule Schedule) (chaos.Plan, bool) {
	plan, hasFaults := schedule.FaultPlan()
	if sc.model != nil {
		if mp, ok := pathmodel.FaultPlan(sc.model, sc.Duration); ok {
			return pathmodel.MergePlans(plan, mp), true
		}
	}
	return plan, hasFaults
}

// stage puts schedule on path, in the order every run takes: the link
// at the schedule's t=0 operating point (the model's, when there is one;
// apply's boundaries, which include every model step, keep it current),
// the target through start, the environment changes and competing flows
// (appended to *competitors), then the fault plan, if there is one,
// through install — the one step the simulator and an engine on a
// SimNet take differently. The target and the competitors arm the
// survival machinery only in a run with faults.
func (sc Scenario) stage(s *sim.Sim, path *netem.Path, schedule Schedule, competitors *[]*transport.Sender,
	start func(survival bool), install func(chaos.Plan) error) error {
	if sc.model != nil {
		path.Link.SetRateMbps(schedule.RateAt(sc, 0))
		if err := path.Link.SetPropDelay(schedule.DelayAt(sc, 0)); err != nil {
			panic(err)
		}
	}
	plan, hasFaults := sc.faultPlan(schedule)
	start(hasFaults)
	schedule.apply(s, sc, path.Link, competitor(s, path, hasFaults, competitors))
	if !hasFaults {
		return nil
	}
	return install(plan)
}

// competitor is schedule.apply's flow spawner: a simulated sender of the
// segment's protocol on path, recorded in *all.
func competitor(s *sim.Sim, path *netem.Path, survival bool, all *[]*transport.Sender) func(i int, g Segment) func() {
	return func(i int, g Segment) func() {
		snd := transport.NewSender(2+i, path, exp.NewController(s, g.Proto))
		snd.Burst = exp.BurstFor(g.Proto)
		snd.Survival = survival
		snd.Start()
		*all = append(*all, snd)
		return snd.Stop
	}
}

// Run executes one scenario under one schedule. It is a pure function
// of (sc, schedule, seed): every call reproduces the identical
// RunContext, which is what makes hunts parallelizable and
// counterexamples replayable.
func Run(sc Scenario, schedule Schedule, seed int64) *RunContext {
	sc = sc.withModel()
	schedule = schedule.Canonical(sc)
	s := sim.New(seed)
	rec := trace.NewRecorder(trace.Options{Mask: adversaryMask, FlowCap: 1 << 16})
	s.SetTrace(rec)

	path := &netem.Path{Link: netem.NewLink(s, sc.LinkMbps, sc.BufBytes, sc.RTT/2), AckDelay: sc.RTT / 2}
	cc, hybridTau := sc.newController(s)
	var target *transport.Sender
	var competitors []*transport.Sender
	sc.stage(s, path, schedule, &competitors, func(survival bool) {
		target = transport.NewSender(1, path, cc)
		target.Burst = exp.BurstFor(sc.Proto)
		target.Survival = survival
		target.Start()
	}, func(plan chaos.Plan) error {
		chaos.ApplySim(s, path.Link, path, plan, sc.Duration)
		return nil
	})

	n := int(math.Ceil(sc.Duration))
	rc := &RunContext{
		Scenario: sc, Schedule: schedule, Seed: seed,
		TargetMbps:      make([]float64, 0, n),
		CompMbps:        make([]float64, 0, n),
		PacingMbps:      make([]float64, 0, n),
		CWnd:            make([]float64, 0, n),
		HybridThreshold: hybridTau,
	}
	var lastTarget, lastComp int64
	for sec := 1; sec <= n; sec++ {
		s.At(float64(sec), func() {
			rc.TargetMbps = append(rc.TargetMbps, float64(target.AckedBytes()-lastTarget)*8/1e6)
			lastTarget = target.AckedBytes()
			var comp int64
			for _, c := range competitors {
				comp += c.AckedBytes()
			}
			rc.CompMbps = append(rc.CompMbps, float64(comp-lastComp)*8/1e6)
			lastComp = comp
			rc.PacingMbps = append(rc.PacingMbps, cc.PacingRate()*8/1e6)
			rc.CWnd = append(rc.CWnd, cc.CWnd())
		})
	}
	s.Run(sc.Duration)

	rc.Events = rec.Events(1)
	rc.Acked = target.AckedBytes()
	rc.LinkStats = path.Link.Stats()
	return rc
}

// meanOver returns the mean of samples[lo:hi) clamped to the slice,
// or 0 when the window is empty. Indices are seconds.
func meanOver(samples []float64, lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(samples) {
		hi = len(samples)
	}
	if hi <= lo {
		return 0
	}
	s := 0.0
	for _, v := range samples[lo:hi] {
		s += v
	}
	return s / float64(hi-lo)
}
