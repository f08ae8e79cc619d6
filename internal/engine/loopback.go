package engine

import (
	"errors"
	"net"
	"sort"
	"sync"
	"time"

	"pccproteus/internal/chaos"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// LoopbackConfig drives RunLoopback: a sender engine and a receiver
// engine on the host loopback, with Flows sender flows spread across
// the receiver's shards.
type LoopbackConfig struct {
	Flows        int
	SenderShards int
	RecvShards   int
	BatchSize    int
	PacketSize   int
	LimitBytes   int64 // per-flow transfer size; 0 streams for Duration
	Duration     time.Duration
	// Controller builds one controller per flow (index 0..Flows-1).
	Controller func(i int) transport.Controller
	// MaxFlowsPerShard overrides the receiver-side table cap when >0.
	MaxFlowsPerShard int
}

// LoopbackResult summarizes a loopback run.
type LoopbackResult struct {
	Sender    Stats
	Recv      Stats
	Completed int // flows whose Done closed (finite transfers)
	Elapsed   time.Duration
	Flows     []*Flow
}

// StartPair builds and starts a sender and a receiver engine; on error
// nothing is left running.
func StartPair(sndCfg, recvCfg Config) (snd, recv *Engine, err error) {
	if recv, err = New(recvCfg); err != nil {
		return nil, nil, err
	}
	if snd, err = New(sndCfg); err != nil {
		recv.Stop()
		return nil, nil, err
	}
	for _, e := range []*Engine{recv, snd} {
		if err = e.Start(); err != nil {
			recv.Stop()
			snd.Stop()
			return nil, nil, err
		}
	}
	return snd, recv, nil
}

// RunLoopback stands up the two engines, runs the flows, and tears
// everything down. With LimitBytes set it waits (up to Duration,
// default 30s) for every flow to complete; otherwise it streams for
// Duration.
func RunLoopback(cfg LoopbackConfig) (*LoopbackResult, error) {
	if cfg.Flows <= 0 || cfg.Controller == nil {
		return nil, errors.New("engine: loopback needs Flows and Controller")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}
	snd, recv, err := StartPair(
		Config{Shards: cfg.SenderShards, BatchSize: cfg.BatchSize},
		Config{Shards: cfg.RecvShards, BatchSize: cfg.BatchSize, MaxFlowsPerShard: cfg.MaxFlowsPerShard})
	if err != nil {
		return nil, err
	}
	defer snd.Stop()
	defer recv.Stop()

	addrs := recv.Addrs()
	start := time.Now()
	flows := make([]*Flow, 0, cfg.Flows)
	for i := 0; i < cfg.Flows; i++ {
		fl, err := snd.AddFlow(FlowConfig{
			Dst:        addrs[i%len(addrs)],
			CC:         cfg.Controller(i),
			Limit:      cfg.LimitBytes,
			PacketSize: cfg.PacketSize,
		})
		if err != nil {
			return nil, err
		}
		flows = append(flows, fl)
	}

	res := &LoopbackResult{Flows: flows}
	deadline := time.After(cfg.Duration)
	if cfg.LimitBytes > 0 {
		// Wait for completions, bounded by the deadline.
	wait:
		for _, fl := range flows {
			select {
			case <-fl.Done():
				res.Completed++
			case <-deadline:
				break wait
			}
		}
		// Count any that finished while we were blocked elsewhere.
		if res.Completed < len(flows) {
			res.Completed = 0
			for _, fl := range flows {
				select {
				case <-fl.Done():
					res.Completed++
				default:
				}
			}
		}
	} else {
		<-deadline
	}
	res.Elapsed = time.Since(start)
	res.Sender = snd.Stats()
	res.Recv = recv.Stats()
	return res, nil
}

// ShimLoopbackConfig describes one single-process run through an
// emulated bottleneck: one sender flow → impairment shim → receiver
// engine over 127.0.0.1 sockets, for Duration real seconds. It is the
// wire half of every sim-vs-wire gate (parity, path-model parity, chaos
// soak, adversary replay).
type ShimLoopbackConfig struct {
	CC   transport.Controller
	Shim wire.ShimConfig
	// Duration is real seconds to run (default 10); the measurement
	// window for throughput and RTT statistics is [MeasureFrom,
	// Duration], excluding startup (default 0.4 × Duration).
	Duration    float64
	MeasureFrom float64
	// Schedule, when non-empty, applies timed impairment updates — the
	// wire-side replay of a path model or an adversary schedule.
	Schedule []wire.ShimUpdate
	// Chaos, when non-nil, replays a fault plan against the shim in
	// real time: the same plan a simulated run applies via
	// chaos.ApplySim, so fault schedules cross-validate sim vs wire.
	Chaos *chaos.Plan
}

// ShimLoopbackResult summarizes one shim loopback run.
type ShimLoopbackResult struct {
	Mbps         float64 // acked throughput over the measurement window
	MeanRTT      float64 // seconds, samples within the window
	P95RTT       float64
	LossRate     float64 // sender-declared lost packets / sent packets
	PerSecMbps   []float64
	CapacityMbps float64 // time-averaged emulated capacity, whole run
	Flow         FlowStats
	Recv         Stats
	Shim         wire.ShimStats
}

// sleepUntil sleeps until t0+sec, reporting false if stop closed first.
func sleepUntil(stop <-chan struct{}, t0 time.Time, sec float64) bool {
	d := time.Until(t0.Add(time.Duration(sec * float64(time.Second))))
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// ReplayChaos replays a fault plan in real time — the wire-side twin
// of chaos.ApplySim: every state step lands on all shims; a restart
// flushes their in-flight queues and resets recv's flow state. It
// returns after the last step inside horizon, or when stop closes.
func ReplayChaos(stop <-chan struct{}, plan chaos.Plan, horizon float64, recv *Engine, shims ...*wire.Shim) {
	t0 := time.Now()
	for _, step := range plan.Canonical().Steps(horizon) {
		if !sleepUntil(stop, t0, step.At) {
			return
		}
		for _, sh := range shims {
			if step.Restart {
				sh.Flush()
			} else {
				sh.SetFault(step.State)
			}
		}
		if step.Restart {
			recv.Reset()
		}
	}
}

// RunShimLoopback executes one scenario end to end and blocks for
// cfg.Duration of real time. Both engines run one shard: the shim
// tracks a single return socket.
func RunShimLoopback(cfg ShimLoopbackConfig) (*ShimLoopbackResult, error) {
	if cfg.CC == nil {
		return nil, errors.New("engine: shim loopback needs a controller")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10
	}
	if cfg.MeasureFrom <= 0 || cfg.MeasureFrom >= cfg.Duration {
		cfg.MeasureFrom = cfg.Duration * 0.4
	}
	snd, recv, err := StartPair(Config{}, Config{})
	if err != nil {
		return nil, err
	}
	defer snd.Stop()
	defer recv.Stop()
	shim, err := wire.NewShim(cfg.Shim, net.UDPAddrFromAddrPort(recv.Addrs()[0]))
	if err != nil {
		return nil, err
	}
	defer shim.Stop()
	if err := shim.Start(); err != nil {
		return nil, err
	}
	fl, err := snd.AddFlow(FlowConfig{Dst: shim.Addr().AddrPort(), CC: cfg.CC, RecordRTT: true})
	if err != nil {
		return nil, err
	}

	// Timed impairment updates and the fault plan each replay from their
	// own goroutine, stopped and joined before the result is read.
	t0 := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	if len(cfg.Schedule) > 0 {
		upd := append([]wire.ShimUpdate(nil), cfg.Schedule...)
		sort.Slice(upd, func(i, j int) bool { return upd[i].At < upd[j].At })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range upd {
				if !sleepUntil(stop, t0, u.At) {
					return
				}
				shim.Update(u)
			}
		}()
	}
	if cfg.Chaos != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ReplayChaos(stop, *cfg.Chaos, cfg.Duration, recv, shim)
		}()
	}

	// Per-second goodput, with the measurement window marked on the way.
	var markAcked int64
	markRTT := -1
	mark := func() {
		sleepUntil(nil, t0, cfg.MeasureFrom)
		markAcked, markRTT = fl.Stats().AckedBytes, len(fl.RTTSamples())
	}
	perSec := make([]float64, 0, int(cfg.Duration))
	var last int64
	for sec := 1.0; sec <= cfg.Duration; sec++ {
		if markRTT < 0 && cfg.MeasureFrom <= sec {
			mark()
		}
		sleepUntil(nil, t0, sec)
		acked := fl.Stats().AckedBytes
		perSec = append(perSec, float64(acked-last)*8/1e6)
		last = acked
	}
	if markRTT < 0 {
		mark()
	}
	sleepUntil(nil, t0, cfg.Duration)

	final := fl.Stats()
	rtts := fl.RTTSamples()[markRTT:]
	res := &ShimLoopbackResult{
		Mbps:         float64(final.AckedBytes-markAcked) * 8 / (cfg.Duration - cfg.MeasureFrom) / 1e6,
		MeanRTT:      stats.Mean(rtts),
		P95RTT:       stats.Percentile(rtts, 95),
		PerSecMbps:   perSec,
		CapacityMbps: shim.CapacityBytes() * 8 / 1e6 / cfg.Duration,
		Flow:         final,
		Recv:         recv.Stats(),
		Shim:         shim.Stats(),
	}
	if final.SentPkts > 0 {
		res.LossRate = float64(final.LostPkts) / float64(final.SentPkts)
	}
	return res, nil
}
