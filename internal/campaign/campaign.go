// Package campaign runs fleet-scale simulation campaigns: thousands of
// seeded scenarios — each a multi-bottleneck topology carrying a
// population of flows with stochastic arrivals, heavy-tailed sizes, and
// a mixed controller population — sharded across a worker pool with
// streaming aggregation. No per-flow trace is ever retained: every
// scenario folds its flows into fixed-size mergeable sketches
// (stats.Moments, stats.LogHist), and scenario aggregates are folded in
// strictly increasing scenario order (OrderedReduce), so the final
// aggregate is bit-identical regardless of worker count.
//
// Seeding uses the same splitmix64 scheme as the experiment harness:
// scenario i runs on SplitSeed(spec.Seed, i+1), making any scenario
// individually replayable (e.g. under the flight recorder) without
// rerunning the campaign.
package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
)

// Factory builds a congestion controller by protocol name. The
// experiment harness's registry (exp.NewControllerRNG) is the canonical
// implementation; it is injected rather than imported so campaign stays
// below exp in the dependency order (exp reuses this package's pool).
type Factory func(rng *rand.Rand, proto string) transport.Controller

// Spec is a complete, JSON-serializable campaign description. The zero
// value of most fields selects a sensible default (see withDefaults);
// Scenarios and the topology/population shapes are what callers
// typically set.
type Spec struct {
	Name      string         `json:"name"`
	Seed      int64          `json:"seed"`      // master seed; 0 = 1
	Scenarios int            `json:"scenarios"` // seeded scenarios to run
	Duration  float64        `json:"duration"`  // virtual seconds per scenario
	Topology  []TopologySpec `json:"topologies"`
	Pop       PopulationSpec `json:"population"`
}

// LoadSpec reads a Spec from a JSON file. Unknown fields are rejected:
// a misspelled knob silently reverting to its default is exactly the
// kind of error a 100k-flow run should not absorb.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("campaign spec %s: %w", path, err)
	}
	return s, nil
}

func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Scenarios == 0 {
		s.Scenarios = 16
	}
	if s.Duration == 0 {
		s.Duration = 30
	}
	if len(s.Topology) == 0 {
		s.Topology = []TopologySpec{{Kind: TopoDumbbell}}
	}
	for i := range s.Topology {
		s.Topology[i] = s.Topology[i].withDefaults()
	}
	s.Pop = s.Pop.withDefaults(s.Duration)
	return s
}

func (s Spec) validate() error {
	if s.Scenarios < 0 || s.Duration <= 0 {
		return fmt.Errorf("campaign: bad scenario count %d / duration %g", s.Scenarios, s.Duration)
	}
	for _, t := range s.Topology {
		switch t.Kind {
		case TopoDumbbell, TopoParkingLot, TopoSharedUplink:
		default:
			return fmt.Errorf("campaign: unknown topology kind %q", t.Kind)
		}
		if t.Weight < 0 {
			return fmt.Errorf("campaign: negative topology weight %g", t.Weight)
		}
		if t.PathModel != nil {
			// Build once with a fixed probe seed: catches unknown kinds,
			// missing trace files, and parse errors before any scenario
			// runs, so a 100k-scenario campaign cannot die halfway in.
			probe := *t.PathModel
			if probe.Seed == 0 {
				probe.Seed = 1
			}
			m, err := probe.Build(s.Duration)
			if err != nil {
				return err
			}
			if err := pathmodel.Validate(m, s.Duration); err != nil {
				return err
			}
		}
	}
	if len(s.Pop.Mix) == 0 {
		return errors.New("campaign: empty controller mix")
	}
	for _, m := range s.Pop.Mix {
		if m.Weight < 0 {
			return fmt.Errorf("campaign: negative mix weight for %q", m.Proto)
		}
	}
	return nil
}

// RunOpts configures one campaign execution. Workers <= 0 uses
// GOMAXPROCS; the result does not depend on the worker count.
type RunOpts struct {
	Workers       int
	NewController Factory
}

// Run executes every scenario of the spec and returns the merged
// aggregate. Memory is bounded: per-flow state lives only inside a
// scenario, per-scenario sketches are O(1), and at most O(workers)
// scenario aggregates exist at once in the reorder buffer.
func Run(spec Spec, opts RunOpts) (*Aggregate, error) {
	if opts.NewController == nil {
		return nil, errors.New("campaign: RunOpts.NewController is required")
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	total := newAggregate()
	total.Name = spec.Name
	total.Seed = spec.Seed
	OrderedReduce(spec.Scenarios, opts.Workers, func(i int) *Aggregate {
		return runScenario(spec, i, opts.NewController)
	}, func(_ int, a *Aggregate) {
		if err := total.Merge(a); err != nil {
			// All scenario aggregates share one shape; a mismatch is a
			// programming error, not an input error.
			panic(err)
		}
	})
	return total, nil
}

// flowState is the transient per-flow bookkeeping inside one scenario.
// It is dropped (and the sender released) as soon as the flow's metrics
// are folded into the aggregate.
type flowState struct {
	proto string
	scav  bool
	size  int64
	start float64
	done  bool
	snd   *transport.Sender
}

// runScenario builds and runs scenario idx and returns its aggregate.
func runScenario(spec Spec, idx int, factory Factory) *Aggregate {
	seed := SplitSeed(spec.Seed, int64(idx)+1)
	s := sim.New(seed)
	rng := s.Rand()

	ts := pickTopology(spec.Topology, rng)
	topo := buildTopology(s, ts, rng)
	survival := false
	if ts.PathModel != nil {
		ps := *ts.PathModel
		if ps.Seed == 0 {
			ps.Seed = seed // fresh trace per scenario
		}
		m, err := ps.Build(spec.Duration)
		if err == nil {
			// Outage windows ride the chaos executor. Blackout faults act
			// through the shared link, so the path Install hands it (which
			// chaos writes ack-fault fields into) can be a throwaway.
			survival, err = pathmodel.Install(s, &netem.Path{Link: topo.bottleneck}, m, nil, spec.Duration)
		}
		if err != nil {
			// validate() already built this spec once; failing here means
			// the environment changed mid-campaign (e.g. the trace file
			// vanished), which no aggregate can honestly absorb.
			panic(err)
		}
		// The bottleneck's capacity is now time-varying: the utilization
		// and yield denominator is the model's time-weighted mean.
		topo.capacity = pathmodel.MeanMbps(m, spec.Duration) * 1e6 / 8
	}
	agg := newAggregate()
	agg.Scenarios = 1

	var (
		flows        []*flowState
		primaryGoods []float64 // completed primary goodputs, for Jain
		classBytes   = map[string]int64{}
	)

	complete := func(fs *flowState, now float64) {
		fs.done = true
		snd := fs.snd
		fs.snd = nil // release sender state; metrics are folded below
		ca := agg.class(fs.proto)
		ca.Completed++
		ca.Bytes += fs.size
		classBytes[fs.proto] += fs.size
		fct := now - fs.start
		if fct <= 0 {
			fct = 1e-9
		}
		goodput := float64(fs.size) * 8 / fct / 1e6
		ca.FCT.Add(fct)
		ca.Goodput.Add(goodput)
		ca.GoodputMoments.Add(goodput)
		if rtt := snd.SRTT(); rtt > 0 {
			ca.RTT.Add(rtt)
			ca.RTTMoments.Add(rtt)
		}
		if tot := snd.AckedBytes() + snd.LostBytes(); tot > 0 {
			ca.Loss.Add(float64(snd.LostBytes()) / float64(tot))
		}
		if !fs.scav {
			primaryGoods = append(primaryGoods, goodput)
		}
	}

	spawn := func(now float64) {
		pop := spec.Pop
		proto := pickProto(pop.Mix, rng)
		size := boundedPareto(rng, pop.ParetoAlpha, pop.FlowKB.Lo*1024, pop.FlowKB.Hi*1024)
		fs := &flowState{proto: proto, scav: IsScavenger(proto), size: int64(size), start: now}
		snd := transport.NewSender(len(flows)+1, topo.assign(rng), factory(rng, proto))
		snd.Limit = fs.size
		snd.Survival = survival // outage machinery only when the model has outages
		snd.OnComplete = func(at float64) { complete(fs, at) }
		fs.snd = snd
		flows = append(flows, fs)
		agg.Flows++
		agg.class(proto).Flows++
		snd.Start()
	}

	// Diurnal Poisson arrivals by thinning: candidate events at the peak
	// rate, accepted with probability λ(t)/λmax. Every draw comes from
	// the scenario's seeded source, so the arrival pattern is a pure
	// function of (spec, idx).
	pop := spec.Pop
	lambdaMax := pop.ArrivalRate * (1 + pop.DiurnalAmp)
	lambda := func(t float64) float64 {
		return pop.ArrivalRate * (1 + pop.DiurnalAmp*sin2pi(t/pop.DiurnalPeriod))
	}
	var arrive func()
	arrive = func() {
		if len(flows) >= pop.MaxFlows {
			return
		}
		s.After(rng.ExpFloat64()/lambdaMax, func() {
			now := s.Now()
			if rng.Float64()*lambdaMax < lambda(now) && len(flows) < pop.MaxFlows {
				spawn(now)
			}
			arrive()
		})
	}
	arrive()

	s.Run(spec.Duration)

	// Credit bytes of flows still in progress at the horizon, then fold
	// the scenario-level distributions.
	for _, fs := range flows {
		if fs.done {
			continue
		}
		b := fs.snd.AckedBytes()
		agg.class(fs.proto).Bytes += b
		classBytes[fs.proto] += b
		fs.snd = nil
	}
	capBytes := topo.capacity * spec.Duration
	var scavBytes, totalBytes int64
	for proto, b := range classBytes {
		totalBytes += b
		if IsScavenger(proto) {
			scavBytes += b
		}
	}
	agg.Completed = countCompleted(flows)
	agg.ScavYield.Add(float64(scavBytes) / capBytes)
	agg.YieldMoments.Add(float64(scavBytes) / capBytes)
	agg.Utilization.Add(float64(totalBytes) / capBytes)
	if len(primaryGoods) >= 2 {
		j := stats.JainIndex(primaryGoods)
		agg.Fairness.Add(j)
		agg.FairnessMoments.Add(j)
	}
	return agg
}

func countCompleted(flows []*flowState) int64 {
	var n int64
	for _, fs := range flows {
		if fs.done {
			n++
		}
	}
	return n
}
