package exp

import (
	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
)

// FlowSpec is one flow of a scenario: Proto names its controller for
// NewController, or — when New is set — only labels a controller the
// scenario constructs itself (an ablation variant, a recording probe,
// Proteus-H with its threshold handle).
type FlowSpec struct {
	Proto   string
	New     func(s *sim.Sim) transport.Controller
	StartAt float64
	Limit   int64 // bytes to transfer; 0 = unbounded
}

// Scenario describes one run of the evaluation's recipe: flows of named
// protocols on one emulated bottleneck for Duration seconds, measured
// from MeasureFrom on.
type Scenario struct {
	Trace *Tracing // nil = no flight recorder
	Label string   // stem of the trace files
	Seed  int64
	Link  LinkSpec
	Flows []FlowSpec

	Model  pathmodel.Model // time-varying capacity/delay/outages, or nil
	Faults *chaos.Plan     // injected faults, or nil

	MeasureFrom, Duration float64

	// Setup installs what is not a plain flow — DASH players, page
	// loads, cross traffic, a rate walk, a bulk fetch — once the path is
	// built and before the first flow of Flows is.
	Setup func(e *Env)
}

// Env is the simulation under construction, as a Setup hook sees it.
type Env struct {
	S    *sim.Sim
	Path *netem.Path

	survival bool
	flows    []*envFlow
}

type envFlow struct {
	snd        *transport.Sender
	mark, last int64 // acked bytes at the window mark and at the last sample
	res        FlowResult
}

// Add builds one more sender on the path, not yet started, for traffic
// an application drives itself. It is reported in Outcome.Flows after
// the senders added before it.
func (e *Env) Add(f FlowSpec) *transport.Sender {
	var cc transport.Controller
	if f.New != nil {
		cc = f.New(e.S)
	} else {
		cc = NewController(e.S, f.Proto)
	}
	fl := &envFlow{snd: transport.NewSender(len(e.flows)+1, e.Path, cc), res: FlowResult{Proto: f.Proto}}
	fl.snd.Burst = BurstFor(f.Proto)
	fl.snd.RecordRTT = true
	fl.snd.Survival = e.survival
	if f.Limit > 0 {
		fl.snd.Limit = f.Limit
		fl.snd.OnComplete = func(now float64) { fl.res.DoneAt = now }
	}
	e.flows = append(e.flows, fl)
	return fl.snd
}

// FlowResult is everything the figures read off one flow of one run.
type FlowResult struct {
	Proto       string
	Mbps        float64 // mean throughput over [MeasureFrom, Duration]
	WindowBytes int64   // bytes acked in that window
	AckedBytes  int64   // over the whole run
	LostBytes   int64
	RTTSamples  []float64 // every sample of the run
	RTTFrom     int       // index of the window's first sample
	PerSec      []float64 // Mbps; sample i covers second [i, i+1)
	DoneAt      float64   // when a Limit-ed transfer completed; 0 = it did not

	WatchdogTrips, WatchdogRecoveries int64
}

// P95RTT returns the 95th-percentile RTT of the flow's samples.
func (f FlowResult) P95RTT() float64 { return stats.Percentile(f.RTTSamples, 95) }

// Outcome is one run's result: the flows in the order they were added,
// and the bottleneck's counters.
type Outcome struct {
	Flows []FlowResult
	Link  netem.LinkStats
	Path  netem.PathStats
}

// Run executes a scenario. The construction order is fixed and is part
// of every figure's numbers — events at one instant run in scheduling
// order and all randomness comes from one seeded source: path; model
// steps and fault plan; Setup; then per flow its controller, its sender
// and its start; the window mark; the per-second samplers.
func Run(sc Scenario) Outcome {
	s := sim.New(sc.Seed)
	rec := sc.Trace.attach(s)
	e := &Env{S: s, Path: sc.Link.Build(s)}
	survival, err := pathmodel.Install(s, e.Path, sc.Model, sc.Faults, sc.Duration)
	if err != nil {
		panic(err) // scenarios are static: a model that fails validation is a bug
	}
	e.survival = survival
	if sc.Setup != nil {
		sc.Setup(e)
	}
	for _, f := range sc.Flows {
		snd := e.Add(f)
		if f.StartAt <= 0 {
			snd.Start()
		} else {
			s.At(f.StartAt, snd.Start)
		}
	}
	s.At(sc.MeasureFrom, func() {
		for _, fl := range e.flows {
			fl.mark, fl.res.RTTFrom = fl.snd.AckedBytes(), len(fl.snd.RTTSamples())
		}
	})
	for sec := 1.0; sec <= sc.Duration; sec++ {
		s.At(sec, func() {
			for _, fl := range e.flows {
				acked := fl.snd.AckedBytes()
				fl.res.PerSec = append(fl.res.PerSec, float64(acked-fl.last)*8/1e6)
				fl.last = acked
			}
		})
	}
	s.Run(sc.Duration)

	out := Outcome{Flows: make([]FlowResult, len(e.flows)), Link: e.Path.Link.Stats(), Path: e.Path.Stats()}
	for i, fl := range e.flows {
		r := &fl.res
		r.AckedBytes, r.LostBytes = fl.snd.AckedBytes(), fl.snd.LostBytes()
		r.WindowBytes = r.AckedBytes - fl.mark
		r.Mbps = float64(r.WindowBytes) * 8 / (sc.Duration - sc.MeasureFrom) / 1e6
		r.RTTSamples = fl.snd.RTTSamples()
		r.WatchdogTrips, r.WatchdogRecoveries = fl.snd.WatchdogTrips(), fl.snd.WatchdogRecoveries()
		out.Flows[i] = *r
	}
	sc.Trace.flush(rec, sc.Label, out.Flows)
	return out
}
