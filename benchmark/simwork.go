package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"pccproteus/internal/campaign"
	"pccproteus/internal/exp"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
	"pccproteus/internal/trace"
	"pccproteus/internal/transport"
)

// dataPath finds a file of benchmark/testdata from the repo root (go
// run ./benchmark) or from the package directory (go test).
func dataPath(name string) string {
	for _, dir := range []string{"benchmark", "."} {
		p := filepath.Join(dir, "testdata", name)
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return filepath.Join("benchmark", "testdata", name)
}

// repeat runs n repetitions (n = 0: until the time budget is spent),
// each bracketed by the host-speed reference kernel; then, in a traced
// run, one more with tracing off: the difference in wall time per
// packet is the tracing overhead. The engine and fetch
// datapaths have nothing decorated on them, so there the difference is
// run-to-run noise around 0.
func (r *run) repeat(one func(traced bool) (rep, error), n int) error {
	ref := func() float64 { return hostRefMillis(r.cfg.Scale) }
	before := ref()
	for (n == 0 && r.budgetLeft()) || len(r.reps) < n {
		p, err := one(r.cfg.Traced)
		if err != nil {
			return err
		}
		after := ref()
		p.ref = (before + after) / 2
		before = after
		r.reps = append(r.reps, p)
	}
	if !r.cfg.Traced {
		return nil
	}
	base, err := one(false)
	if err != nil {
		return err
	}
	var traced []float64
	for _, p := range r.reps {
		traced = append(traced, ratio(p.wall, p.pkts))
	}
	r.set("harness.trace_overhead_pct", 100*(ratio(median(traced), ratio(base.wall, base.pkts))-1))
	return nil
}

// ---- campaign-fleet ----

// fleetScenarios is the campaign size at scale 1: specs/campaign-100k's
// population and topologies (copied to testdata so the benchmark does
// not change when that spec does) cut from 1000 scenarios to this many.
const fleetScenarios = 50

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func runCampaignFleet(r *run) error {
	scenarios := int(math.Max(2, math.Round(fleetScenarios*r.cfg.Scale)))
	var (
		first    string
		flows    []float64 // simulated flows per host second, per repetition
		allocs   []float64
		heapB    []float64
		gcShare  []float64
		encodeMS []float64
		ctl      callClock
		newCC    callClock
		pktsSeen float64
		wallSeen float64
		lastWall float64
		lastJSON string
		specUsed campaign.Spec
	)
	one := func(traced bool) (rep, error) {
		id := r.spans.begin(r.root, "harness", "repetition")
		defer r.spans.end(id)

		setupID := r.spans.begin(id, "campaign", "setup: load spec + warm-up")
		t0 := time.Now()
		spec, err := campaign.LoadSpec(dataPath("campaign-fleet.json"))
		if err != nil {
			return rep{}, err
		}
		// The warm-up fills caches and the heap, it is not an input: it
		// keeps the spec's own seed so set-up costs the same at every
		// --seed.
		warm := spec
		warm.Scenarios = min(3, scenarios)
		if _, err := exp.RunCampaign(warm, 1); err != nil {
			return rep{}, err
		}
		spec.Seed = r.cfg.Seed
		spec.Scenarios = scenarios
		settle()
		setup := time.Since(t0).Seconds()
		r.spans.end(setupID)

		var probe *ccProbe
		if traced {
			probe = newCCProbe()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		gc0 := gcCPUSeconds()
		runID := r.spans.begin(id, "campaign", "campaign.Run")
		sw := startWatch()
		agg, err := campaign.Run(spec, campaign.RunOpts{Workers: 1, NewController: probe.factory(exp.NewControllerRNG)})
		wall, cpu := sw.stop()
		r.spans.end(runID)
		if err != nil {
			return rep{}, err
		}
		runtime.ReadMemStats(&ms1)
		gc1 := gcCPUSeconds()

		encID := r.spans.begin(id, "campaign", "campaign.EncodeJSON")
		te := time.Now()
		js, err := campaign.EncodeJSON(agg)
		encodeMS = append(encodeMS, float64(time.Since(te).Nanoseconds())/1e6)
		r.spans.end(encID)
		if err != nil {
			return rep{}, err
		}
		sum := sha256.Sum256(js)
		r.checkGolden("aggregate-sha256", hex.EncodeToString(sum[:]), &first)
		r.op(agg.Scenarios == int64(scenarios) && agg.Flows > 0, "campaign ran %d scenarios, %d flows", agg.Scenarios, agg.Flows)

		var bytes int64
		for _, c := range agg.Classes {
			bytes += c.Bytes
		}
		p := rep{setup: setup, wall: wall, cpu: cpu, pkts: float64(bytes) / netem.MTU, bytes: float64(bytes)}
		flows = append(flows, ratio(float64(agg.Flows), wall))
		if traced {
			allocs = append(allocs, ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(agg.Flows)))
			heapB = append(heapB, ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(agg.Flows)))
			gcShare = append(gcShare, 100*ratio(gc1-gc0, cpu.total()))
			t := probe.totals()[""]
			ctl.merge(t.all)
			newCC.merge(probe.newCalls)
			pktsSeen += p.pkts
			wallSeen += wall
			r.spans.aggregate(runID, "core", "controller callbacks (all flows)", t.all)
			r.spans.aggregate(runID, "core", "controller construction", probe.newCalls)
		}
		lastWall, lastJSON, specUsed = wall, string(js), spec
		r.info["campaign.flows"] = float64(agg.Flows)
		r.info["campaign.completed"] = float64(agg.Completed)
		return p, nil
	}
	if err := r.repeat(one, 0); err != nil {
		return err
	}
	r.info["campaign.flows_per_s"] = median(flows)
	if !r.cfg.Traced {
		return nil
	}

	r.set("campaign.flows_per_s", median(flows))
	r.set("campaign.allocs_per_flow", median(allocs))
	r.set("campaign.bytes_per_flow", median(heapB))
	r.set("campaign.gc_share", median(gcShare))
	r.set("campaign.encode_ms", median(encodeMS))
	r.set("core.new_ns", newCC.nsPerCall())
	r.set("core.new_count", float64(newCC.calls)/float64(len(r.reps)))
	r.set("core.ctl_ns_per_pkt", ratio(float64(ctl.net().Nanoseconds()), pktsSeen))
	r.set("core.ctl_share", 100*ratio(ctl.net().Seconds(), wallSeen))
	r.set("core.calls_per_pkt", ratio(float64(ctl.calls), pktsSeen))

	// Two workers: the aggregate must stay byte-identical, and the
	// efficiency says how much of the second core a campaign gets.
	id := r.spans.begin(r.root, "campaign", "campaign.Run workers=2")
	t0 := time.Now()
	agg2, err := exp.RunCampaign(specUsed, 2)
	wall2 := time.Since(t0).Seconds()
	r.spans.end(id)
	if err != nil {
		return err
	}
	js2, err := campaign.EncodeJSON(agg2)
	if err != nil {
		return err
	}
	r.op(string(js2) == lastJSON, "aggregate differs between 1 and 2 workers")
	r.set("campaign.scale_eff_2w", ratio(lastWall, 2*wall2))

	layerSim(r)
	layerStats(r)
	return nil
}

// ---- sim-longflows ----

// longLink is the bottleneck of the mix4 and yield scenarios: 100 Mbps,
// 30 ms RTT, one BDP of buffer.
var longLink = exp.LinkSpec{Mbps: 100, RTT: 0.030, BufBytes: 375000}

// Virtual seconds per scenario at scale 1.
const (
	mix4Secs  = 60
	yieldSecs = 20
	lteSecs   = 20
)

// scenarioOut is what one simulated scenario produced.
type scenarioOut struct {
	wall   float64
	acked  []int64
	lostB  int64
	sentB  int64
	link   netem.LinkStats
	clock  callClock
	ctl    map[string]ccTotals
	canon  string // canonical result string for the goldens
	applys int
	depth  int // events pending at the horizon: the steady-state heap depth
}

// simScenario runs protos as long flows over one bottleneck for dur
// virtual seconds. With spans on, controllers and sender clocks are
// decorated; rec attaches a flight recorder of every event kind.
func simScenario(r *run, parent int, traced bool, name string, seed int64, link exp.LinkSpec, protos []string,
	dur float64, model pathmodel.Model, rec *trace.Recorder) (scenarioOut, error) {
	var spans *spanLog
	if traced {
		spans = r.spans
	}
	id := spans.begin(parent, "transport", "scenario "+name)
	var out scenarioOut
	var probe *ccProbe
	if traced {
		probe = newCCProbe()
	}

	s := sim.New(seed)
	s.SetTrace(rec)
	path := link.Build(s)
	if model != nil {
		aid := spans.begin(id, "pathmodel", "pathmodel.ApplySim")
		err := pathmodel.ApplySim(s, path.Link, model, dur)
		spans.end(aid)
		if err != nil {
			return out, err
		}
		out.applys = len(pathmodel.Steps(model, dur))
	}
	senders := make([]*transport.Sender, len(protos))
	for i, proto := range protos {
		snd := transport.NewSender(i+1, path, probe.wrap(exp.NewController(s, proto)))
		if traced {
			snd.Clock = tracedClock{inner: transport.SimClock(s), at: &out.clock}
		}
		senders[i] = snd
		snd.Start()
	}
	t0 := time.Now()
	s.Run(dur)
	out.wall = time.Since(t0).Seconds()
	spans.end(id)

	out.link = path.Link.Stats()
	var b strings.Builder
	for i, snd := range senders {
		out.acked = append(out.acked, snd.AckedBytes())
		out.lostB += snd.LostBytes()
		out.sentB += snd.AckedBytes() + snd.LostBytes() + int64(snd.InflightBytes())
		fmt.Fprintf(&b, "%s=%d ", protos[i], snd.AckedBytes())
	}
	st := out.link
	fmt.Fprintf(&b, "enq=%d drop=%d lost=%d dlv=%d sent=%d", st.Enqueued, st.Dropped, st.LostRandom, st.Delivered, st.SentBytes)
	out.canon = b.String()
	if traced {
		out.ctl = probe.totals()
		out.depth = s.Pending()
		spans.aggregate(id, "sim", "Clock.At (sender timers)", out.clock)
		for _, k := range sortedKeys(out.ctl) {
			if k != "" {
				spans.aggregate(id, "core", "controller "+k, out.ctl[k].all)
			}
		}
	}
	// Conservation at the link: everything offered was queued or
	// dropped, and nothing is delivered that was not queued.
	r.op(st.Delivered+st.LostRandom <= st.Enqueued && st.Delivered > 0,
		"%s: link conservation broken: %+v", name, st)
	return out, nil
}

func runSimLongflows(r *run) error {
	virt := func(base float64) float64 { return math.Max(2, base*r.cfg.Scale) }
	var (
		firsts  [4]string
		mix     scenarioOut // last traced mix4
		mixBase float64     // untraced mix4 wall per packet
		ratios  []float64
		applys  int
		sentB   int64
		lostB   int64
		link    netem.LinkStats
	)
	one := func(traced bool) (rep, error) {
		id := r.spans.begin(r.root, "harness", "repetition")
		defer r.spans.end(id)

		setupID := r.spans.begin(id, "pathmodel", "setup: GenLTE + Steps + warm-up")
		t0 := time.Now()
		lte := pathmodel.GenLTE(r.cfg.Seed, virt(lteSecs))
		if err := pathmodel.Validate(lte, virt(lteSecs)); err != nil {
			return rep{}, err
		}
		// Warm-up at a fixed seed: it is not an input (see campaign-fleet).
		if _, err := simScenario(r, 0, false, "warm-up", 1, longLink,
			[]string{exp.ProtoProteusP, exp.ProtoProteusS, exp.ProtoCubic, exp.ProtoBBR}, 3, nil, nil); err != nil {
			return rep{}, err
		}
		settle()
		setup := time.Since(t0).Seconds()
		r.spans.end(setupID)

		lteLink := exp.LinkSpec{Mbps: 25, RTT: 0.050, BufBytes: 150000}
		type sc struct {
			name   string
			link   exp.LinkSpec
			protos []string
			dur    float64
			model  pathmodel.Model
		}
		scs := []sc{
			{"mix4", longLink, []string{exp.ProtoProteusP, exp.ProtoProteusS, exp.ProtoCubic, exp.ProtoBBR}, virt(mix4Secs), nil},
			{"yield-solo", longLink, []string{exp.ProtoCubic}, virt(yieldSecs), nil},
			{"yield-pair", longLink, []string{exp.ProtoCubic, exp.ProtoProteusS}, virt(yieldSecs), nil},
			{"lte", lteLink, []string{exp.ProtoProteusP, exp.ProtoProteusS}, virt(lteSecs), lte},
		}
		var p rep
		p.setup = setup
		sw := startWatch()
		outs := make([]scenarioOut, len(scs))
		for i, c := range scs {
			o, err := simScenario(r, id, traced, c.name, r.cfg.Seed, c.link, c.protos, c.dur, c.model, nil)
			if err != nil {
				return rep{}, err
			}
			outs[i] = o
			r.checkGolden(c.name, o.canon, &firsts[i])
			p.pkts += float64(o.link.Delivered)
			for _, a := range o.acked {
				p.bytes += float64(a)
			}
		}
		p.wall, p.cpu = sw.stop()
		ratios = append(ratios, ratio(float64(outs[2].acked[0]), float64(outs[1].acked[0])))
		if traced {
			mix = outs[0]
			applys = outs[3].applys
		} else {
			mixBase = ratio(outs[0].wall, float64(outs[0].link.Delivered))
		}
		sentB, lostB, link = 0, 0, netem.LinkStats{}
		for _, o := range outs {
			sentB += o.sentB
			lostB += o.lostB
			link.Enqueued += o.link.Enqueued
			link.Dropped += o.link.Dropped
			link.LostRandom += o.link.LostRandom
			link.Delivered += o.link.Delivered
		}
		return p, nil
	}
	if err := r.repeat(one, 0); err != nil {
		return err
	}
	r.info["primary_ratio"] = ratios[0]
	r.info["netem.pkts"] = float64(link.Delivered)
	if !r.cfg.Traced {
		return nil
	}

	r.set("core.primary_ratio", ratios[0])
	r.set("netem.pkts", float64(link.Delivered))
	r.set("netem.drop_ratio", 100*ratio(float64(link.Dropped+link.LostRandom), float64(link.Enqueued+link.Dropped)))
	r.set("transport.retx_ratio", 100*ratio(float64(lostB), float64(sentB)))
	r.set("pathmodel.apply_count", float64(applys))

	// The mix4 breakdown: controller and sender-timer time are measured
	// by the decorators; the event queue and the link are estimated from
	// their standalone per-operation costs and exact operation counts;
	// what is left of the untraced wall time per packet is the sender's
	// own bookkeeping (and anything the estimates miss).
	layerSim(r)
	layerNetem(r)
	pkts := float64(mix.link.Delivered)
	all := mix.ctl[""]
	ctlNs := ratio(float64(all.all.net().Nanoseconds()), pkts)
	wallNs := mixBase * 1e9
	// Events per packet: the sender's own timers plus the link's two
	// (serialization end, arrival) per queued packet. Every packet in
	// flight is a pending event, so the heap is as deep as the path is
	// long; an event's cost is read off the two standalone depths.
	events := ratio(float64(mix.clock.calls)+2*float64(mix.link.Enqueued), pkts)
	simNs := events * eventNsAt(r, float64(mix.depth))
	// The standalone link replay keeps one packet in flight (depth 2).
	netemNs := math.Max(0, r.layer["netem.send_ns"]-2*eventNsAt(r, 2)) * ratio(float64(mix.link.Enqueued+mix.link.Dropped), pkts)
	r.set("core.ctl_ns_per_pkt", ctlNs)
	r.set("core.ctl_share", 100*ratio(ctlNs, wallNs))
	r.set("core.calls_per_pkt", ratio(float64(all.all.calls), pkts))
	r.set("core.proteus_ns_per_ack", mergeAck(mix.ctl, "proteus").nsPerCall())
	r.set("cc.cubic_ns_per_ack", mergeAck(mix.ctl, "cubic").nsPerCall())
	r.set("cc.bbr_ns_per_ack", mergeAck(mix.ctl, "bbr").nsPerCall())
	r.set("sim.timer_calls_per_pkt", ratio(float64(mix.clock.calls), pkts))
	r.set("sim.sched_share", 100*ratio(ratio(float64(mix.clock.net().Nanoseconds()), pkts), wallNs))
	r.set("sim.ns_per_pkt", simNs)
	r.set("netem.ns_per_pkt", netemNs)
	r.set("transport.residual_ns_per_pkt", wallNs-ctlNs-simNs-netemNs)
	r.info["mix4.wall_ns_per_pkt"] = wallNs
	r.info["mix4.heap_depth"] = float64(mix.depth)

	// Flight recorder on vs off, on mix4, both undecorated.
	id := r.spans.begin(r.root, "trace", "mix4 with trace.Recorder")
	rec := trace.NewRecorder(trace.Options{})
	on, err := simScenario(r, 0, false, "mix4+recorder", r.cfg.Seed, longLink,
		[]string{exp.ProtoProteusP, exp.ProtoProteusS, exp.ProtoCubic, exp.ProtoBBR}, virt(mix4Secs), nil, rec)
	r.spans.end(id)
	if err != nil {
		return err
	}
	r.set("trace.on_overhead_pct", 100*(ratio(ratio(on.wall, float64(on.link.Delivered)), mixBase)-1))

	layerPathmodel(r)
	return nil
}

// eventNsAt interpolates the cost of one schedule -> pop -> run cycle at
// the given heap depth between the standalone measurements at depth 8
// and 4096: a binary heap's cost grows with log2 of its depth.
func eventNsAt(r *run, depth float64) float64 {
	shallow, deep := r.layer["sim.event_ns"], r.layer["sim.event_deep_ns"]
	return shallow + (deep-shallow)*(math.Log2(math.Max(depth, 1))-3)/(12-3)
}

// mergeAck sums OnAck clocks of every controller whose name starts with
// prefix ("proteus" covers proteus-p and proteus-s).
func mergeAck(m map[string]ccTotals, prefix string) callClock {
	var c callClock
	for name, t := range m {
		if name != "" && strings.HasPrefix(name, prefix) {
			c.merge(t.ack)
		}
	}
	return c
}
