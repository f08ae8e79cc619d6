package main

import (
	"math"
	"net/netip"
	"time"

	"pccproteus/internal/engine"
	"pccproteus/internal/wire"
)

// enginePair is a sender engine and a receiver engine on loopback, one
// shard each: two busy datapath threads for the two cores this is sized
// for. (Two shards a side, as engine.MeasurePPS uses, puts four spinning
// loops on two cores and measures the scheduler.)
type enginePair struct {
	snd, recv *engine.Engine
	dst       netip.AddrPort
}

func newEnginePair(batch, maxFlows int) (*enginePair, error) {
	cfg := engine.Config{Shards: 1, BatchSize: batch, MaxFlowsPerShard: maxFlows}
	recv, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	snd, err := engine.New(cfg)
	if err != nil {
		recv.Stop()
		return nil, err
	}
	if err := recv.Start(); err != nil {
		snd.Stop()
		recv.Stop()
		return nil, err
	}
	if err := snd.Start(); err != nil {
		snd.Stop()
		recv.Stop()
		return nil, err
	}
	return &enginePair{snd: snd, recv: recv, dst: recv.Addrs()[0]}, nil
}

// drainTime is how long the receiver keeps running after the sender
// stops, so every datagram already in a socket buffer is counted.
const drainTime = 100 * time.Millisecond

// stop halts the sender, lets the receiver drain, halts it too, and
// checks the counters that must reconcile on a loopback path. It
// returns the final stats of both sides.
func (p *enginePair) stop(r *run) (snd, recv engine.Stats) {
	p.snd.Stop()
	time.Sleep(r.scaled(drainTime))
	p.recv.Stop()
	snd, recv = p.snd.Stats(), p.recv.Stats()
	r.op(recv.RxDups == 0, "receiver saw %d duplicate deliveries", recv.RxDups)
	r.op(recv.Delivered+recv.RxDups == recv.RxPkts, "receiver Delivered %d + dups %d != RxPkts %d", recv.Delivered, recv.RxDups, recv.RxPkts)
	r.op(snd.TxPkts >= recv.RxPkts, "receiver got %d data packets, sender sent only %d", recv.RxPkts, snd.TxPkts)
	r.op(snd.BadPkts+snd.BadAcks+recv.BadPkts+recv.BadAcks == 0, "codec rejected packets: sender %d/%d receiver %d/%d",
		snd.BadPkts, snd.BadAcks, recv.BadPkts, recv.BadAcks)
	return snd, recv
}

// engineLayer reports what both engine workloads read off the Stats
// counters of their last repetition.
func engineLayer(r *run, snd, recv engine.Stats, cpu cpuTimes) {
	r.set("engine.rx_batch_fill", ratio(float64(recv.RxPkts), float64(recv.RxBatches)))
	r.set("engine.tx_batch_fill", ratio(float64(snd.TxPkts), float64(snd.TxBatches)))
	r.set("engine.ack_rx_batch_fill", ratio(float64(snd.RxPkts), float64(snd.RxBatches)))
	r.set("engine.ack_tx_batch_fill", ratio(float64(recv.TxPkts), float64(recv.TxBatches)))
	r.set("engine.sys_cpu_share", 100*ratio(cpu.sys, cpu.total()))
	r.set("engine.loss_ratio", 100*ratio(float64(snd.TxPkts-recv.RxPkts), float64(snd.TxPkts)))
	r.set("engine.dup_ratio", 100*ratio(float64(recv.RxDups), float64(recv.RxPkts)))
	r.set("engine.tx_soft_errs", float64(snd.TxSoftErrs+recv.TxSoftErrs))
	r.set("engine.sender_table_flows", float64(snd.Flows))
	r.set("engine.addflow_refused", float64(snd.RejectedPrimary+snd.RejectedScavenger))
	layerEngine(r)
	layerWire(r)
	// The ROADMAP's question: the in-memory hot path costs hotpath_ns per
	// packet, the loopback run costs cpu_us_per_pkt; the gap is kernel,
	// batching shape and scheduling.
	r.set("engine.kernel_gap_ns", r.endToEnd()["cpu_us_per_pkt"]*1000-r.layer["engine.hotpath_ns"])
}

// ---- engine-bulk ----

const (
	bulkFlows  = 1000
	bulkPacket = 400
	bulkWarmup = 300 * time.Millisecond
)

func runEngineBulk(r *run) error {
	flows := int(math.Max(8, math.Round(bulkFlows*r.cfg.Scale)))
	var (
		lastSnd, lastRecv engine.Stats
		lastCPU           cpuTimes
	)
	one := func(traced bool) (rep, error) {
		id := r.spans.begin(r.root, "harness", "repetition")
		defer r.spans.end(id)

		setupID := r.spans.begin(id, "engine", "setup: engines + AddFlow + warm-up")
		t0 := time.Now()
		settle()
		pair, err := newEnginePair(1024, flows)
		if err != nil {
			return rep{}, err
		}
		var refused int64
		for i := 0; i < flows; i++ {
			// 10k pps offered per flow, far above what the box delivers,
			// so the datapath is the bottleneck; the 8-packet window
			// keeps every flow ack-clocked and the path lossless.
			_, err := pair.snd.AddFlow(engine.FlowConfig{
				Dst:        pair.dst,
				CC:         &engine.FixedRateCC{Rate: 4e6, Win: 8 * bulkPacket},
				PacketSize: bulkPacket,
			})
			if err != nil {
				refused++
			}
		}
		r.ops(int64(flows))
		if refused > 0 {
			r.fail(refused, "%d of %d AddFlow calls refused", refused, flows)
		}
		time.Sleep(r.scaled(bulkWarmup))
		setup := time.Since(t0).Seconds()
		r.spans.end(setupID)

		winID := r.spans.begin(id, "engine", "measured window")
		s0 := pair.recv.Stats()
		sw := startWatch()
		time.Sleep(r.window())
		s1 := pair.recv.Stats()
		wall, cpu := sw.stop()
		r.spans.end(winID)

		lastSnd, lastRecv = pair.stop(r)
		lastCPU = cpu
		pkts := float64(s1.Delivered - s0.Delivered)
		r.op(pkts > 0, "no packets delivered in the window")
		return rep{setup: setup, wall: wall, cpu: cpu, pkts: pkts,
			bytes: float64(s1.DeliveredBytes-s0.DeliveredBytes) - pkts*wire.DataHeaderLenV2}, nil
	}
	if err := r.repeat(one, realTimeReps); err != nil {
		return err
	}
	if r.cfg.Traced {
		engineLayer(r, lastSnd, lastRecv, lastCPU)
	}
	return nil
}

// ---- engine-churn ----

const (
	churnClients  = 32
	churnPacket   = 1200
	churnFlowPkts = 30
	churnRate     = 12e6 // bytes/sec pacing per flow
	churnPoll     = 200 * time.Microsecond
	churnGrace    = 2 * time.Second // for flows still open when the window ends
	churnWarmup   = 300 * time.Millisecond
	// Completed sender flows are not reclaimed from the shard table, so
	// the default cap (16384) starts refusing AddFlow after ~5 s of
	// churn; this cap keeps the baseline at zero refusals.
	churnMaxFlows = 1 << 17
	openRate      = 1000 // arrivals per second in the traced-only open-loop phase
)

// churnFlow is one in-flight finite flow and when its clock started.
type churnFlow struct {
	fl    *engine.Flow
	start time.Time
	span  int // nonzero for the flows sampled into the trace
}

// flowSpanEvery is the sampling stride of per-flow spans: a span for
// each of ~50k flows would only bloat trace.json.
const flowSpanEvery = 256

// churner starts finite flows on a pair and times them by its own
// clock: AddFlow call (or due time, open loop) until Done is closed.
type churner struct {
	r       *run
	pair    *enginePair
	spans   *spanLog
	parent  int       // span the sampled per-flow spans hang under
	addflow []float64 // AddFlow call durations, us
	addTime callClock
	fct     []float64 // ms
	started int64
	refused int64
	late    []float64 // open loop: how late each arrival was started, ms
}

func (c *churner) add(from time.Time) (churnFlow, bool) {
	t0 := time.Now()
	fl, err := c.pair.snd.AddFlow(engine.FlowConfig{
		Dst:        c.pair.dst,
		CC:         &engine.FixedRateCC{Rate: churnRate, Win: 16 * churnPacket},
		Limit:      churnFlowPkts * churnPacket,
		PacketSize: churnPacket,
	})
	d := time.Since(t0)
	c.addTime.record(d)
	c.addflow = append(c.addflow, float64(d.Nanoseconds())/1e3)
	c.started++
	if err != nil {
		c.refused++
		return churnFlow{}, false
	}
	if from.IsZero() {
		from = t0
	}
	f := churnFlow{fl: fl, start: from}
	if c.started%flowSpanEvery == 0 {
		f.span = c.spans.begin(c.parent, "engine", "flow: AddFlow -> Done")
	}
	return f, true
}

// finished records a flow whose Done is closed.
func (c *churner) finished(f churnFlow, record bool) {
	c.spans.end(f.span)
	if record {
		c.fct = append(c.fct, float64(time.Since(f.start).Nanoseconds())/1e6)
	}
	if st := f.fl.Stats(); st.AckedBytes != churnFlowPkts*churnPacket {
		c.r.fail(1, "flow %d done with %d acked bytes, want %d", f.fl.ID(), st.AckedBytes, churnFlowPkts*churnPacket)
	}
}

// closed runs churnClients clients for d: each starts its next flow the
// moment its previous one completes.
func (c *churner) closed(d time.Duration, record bool) {
	slots := make([]churnFlow, churnClients)
	live := make([]bool, churnClients)
	for i := range slots {
		slots[i], live[i] = c.add(time.Time{})
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := range slots {
			if !live[i] {
				slots[i], live[i] = c.add(time.Time{})
				continue
			}
			select {
			case <-slots[i].fl.Done():
				c.finished(slots[i], record)
				slots[i], live[i] = c.add(time.Time{})
			default:
			}
		}
		time.Sleep(churnPoll)
	}
	var open []churnFlow
	for i := range slots {
		if live[i] {
			open = append(open, slots[i])
		}
	}
	c.drain(open, record)
}

// open starts flows on a fixed schedule regardless of completions, and
// times each from when it was due.
func (c *churner) open(d time.Duration) {
	t0 := time.Now()
	n := int(d.Seconds() * openRate)
	var live []churnFlow
	next := 0
	for next < n || len(live) > 0 {
		now := time.Now()
		for next < n {
			due := t0.Add(time.Duration(next) * time.Second / openRate)
			if due.After(now) {
				break
			}
			c.late = append(c.late, float64(now.Sub(due).Nanoseconds())/1e6)
			if f, ok := c.add(due); ok {
				live = append(live, f)
			}
			next++
		}
		keep := live[:0]
		for _, f := range live {
			select {
			case <-f.fl.Done():
				c.finished(f, true)
			default:
				keep = append(keep, f)
			}
		}
		live = keep
		if next >= n && time.Since(t0) > d+churnGrace {
			break
		}
		time.Sleep(churnPoll)
	}
	if len(live) > 0 {
		c.r.fail(int64(len(live)), "%d open-loop flows not done %v after the last arrival", len(live), churnGrace)
	}
}

// drain waits for the flows still open at the end of a window; one that
// does not finish within the grace period has failed.
func (c *churner) drain(open []churnFlow, record bool) {
	deadline := time.Now().Add(churnGrace)
	for len(open) > 0 && time.Now().Before(deadline) {
		keep := open[:0]
		for _, f := range open {
			select {
			case <-f.fl.Done():
				c.finished(f, record)
			default:
				keep = append(keep, f)
			}
		}
		open = keep
		time.Sleep(churnPoll)
	}
	if len(open) > 0 {
		c.r.fail(int64(len(open)), "%d flows not done %v after the window", len(open), churnGrace)
	}
}

// account turns the churner's counts into attempted/failed operations.
func (c *churner) account() {
	c.r.ops(c.started)
	if c.refused > 0 {
		c.r.fail(c.refused, "%d of %d AddFlow calls refused", c.refused, c.started)
	}
}

func runEngineChurn(r *run) error {
	var (
		lastSnd, lastRecv engine.Stats
		lastCPU           cpuTimes
		fct, addflow      []float64
		flowsPerS         []float64
	)
	one := func(traced bool) (rep, error) {
		id := r.spans.begin(r.root, "harness", "repetition")
		defer r.spans.end(id)

		setupID := r.spans.begin(id, "engine", "setup: engines + warm-up churn")
		t0 := time.Now()
		settle()
		pair, err := newEnginePair(256, churnMaxFlows)
		if err != nil {
			return rep{}, err
		}
		warm := &churner{r: r, pair: pair}
		warm.closed(r.scaled(churnWarmup), false)
		warm.account()
		setup := time.Since(t0).Seconds()
		r.spans.end(setupID)

		winID := r.spans.begin(id, "engine", "measured window: 32 closed-loop clients")
		c := &churner{r: r, pair: pair, parent: winID}
		if traced {
			c.spans = r.spans
		}
		s0 := pair.recv.Stats()
		sw := startWatch()
		c.closed(r.window(), true)
		s1 := pair.recv.Stats()
		wall, cpu := sw.stop()
		r.spans.end(winID)
		c.account()
		if traced {
			r.spans.aggregate(winID, "engine", "Engine.AddFlow", c.addTime)
		}

		lastSnd, lastRecv = pair.stop(r)
		lastCPU = cpu
		fct = append(fct, c.fct...)
		addflow = append(addflow, c.addflow...)
		flowsPerS = append(flowsPerS, ratio(float64(len(c.fct)), wall))
		pkts := float64(s1.Delivered - s0.Delivered)
		r.op(pkts > 0, "no packets delivered in the window")
		return rep{setup: setup, wall: wall, cpu: cpu, pkts: pkts,
			bytes: float64(s1.DeliveredBytes-s0.DeliveredBytes) - pkts*wire.DataHeaderLenV2}, nil
	}
	if err := r.repeat(one, realTimeReps); err != nil {
		return err
	}
	// p99 is the highest percentile with well over ten samples beyond it
	// at ~5000 flows per window-second.
	r.info["fct_p50_ms"] = quantile(fct, 0.50)
	r.info["fct_p99_ms"] = quantile(fct, 0.99)
	r.info["fct_samples"] = float64(len(fct))
	r.info["churn_flows_per_s"] = median(flowsPerS)
	if !r.cfg.Traced {
		return nil
	}

	r.set("engine.fct_p50_ms", quantile(fct, 0.50))
	r.set("engine.fct_p99_ms", quantile(fct, 0.99))
	r.set("engine.fct_samples", float64(len(fct)))
	r.set("engine.churn_flows_per_s", median(flowsPerS))
	r.set("engine.addflow_us_p50", quantile(addflow, 0.50))
	r.set("engine.addflow_us_p99", quantile(addflow, 0.99))
	// What a flow costs beyond its own pacing time: delayed-ack and
	// wheel-tick latency at both ends.
	r.set("engine.tail_ms", quantile(fct, 0.50)-1000*churnFlowPkts*churnPacket/churnRate)
	engineLayer(r, lastSnd, lastRecv, lastCPU)

	// Open loop, traced runs only: independent arrivals at a fixed rate,
	// each timed from when it was due.
	id := r.spans.begin(r.root, "engine", "open-loop phase")
	pair, err := newEnginePair(256, churnMaxFlows)
	if err != nil {
		return err
	}
	warm := &churner{r: r, pair: pair}
	warm.closed(r.scaled(churnWarmup), false)
	warm.account()
	c := &churner{r: r, pair: pair, spans: r.spans, parent: id}
	c.open(r.window())
	c.account()
	pair.stop(r)
	r.spans.end(id)
	r.set("engine.open_fct_p99_ms", quantile(c.fct, 0.99))
	r.info["open_fct_p50_ms"] = quantile(c.fct, 0.5)
	r.info["open_fct_samples"] = float64(len(c.fct))
	r.set("engine.gen_late_ms", quantile(c.late, 0.99))
	return nil
}
