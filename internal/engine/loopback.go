package engine

import (
	"errors"
	"net"
	"time"

	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
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
	wait:
		for _, fl := range flows {
			select {
			case <-fl.Done():
			case <-deadline:
				break wait
			}
		}
		for _, fl := range flows {
			select {
			case <-fl.Done():
				res.Completed++
			default:
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

// LoopbackRun is what one sender flow measured over one run through an
// emulated bottleneck, on either network.
type LoopbackRun struct {
	Mbps       float64 // acked throughput over the measurement window
	MeanRTT    float64 // seconds, samples within the window
	P95RTT     float64
	LossRate   float64 // sender-declared lost packets / sent packets
	PerSecMbps []float64
	Flow       FlowStats
	Recv       Stats
}

// measure takes the run's statistics off its flow: wait(sec) returns once
// the run has reached second sec — by sleeping, or by running the
// simulator that far — and the window is [from, duration].
func measure(fl *Flow, recv *Engine, duration, from float64, wait func(sec float64)) LoopbackRun {
	if from <= 0 || from >= duration {
		from = duration * 0.4
	}
	var markAcked int64
	markRTT := -1
	mark := func() {
		wait(from)
		markAcked, markRTT = fl.Stats().AckedBytes, len(fl.RTTSamples())
	}
	run := LoopbackRun{PerSecMbps: make([]float64, 0, int(duration))}
	var last int64
	for sec := 1.0; sec <= duration; sec++ {
		if markRTT < 0 && from <= sec {
			mark()
		}
		wait(sec)
		acked := fl.Stats().AckedBytes
		run.PerSecMbps = append(run.PerSecMbps, float64(acked-last)*8/1e6)
		last = acked
	}
	if markRTT < 0 {
		mark()
	}
	wait(duration)

	run.Flow, run.Recv = fl.Stats(), recv.Stats()
	rtts := fl.RTTSamples()[markRTT:]
	run.Mbps = float64(run.Flow.AckedBytes-markAcked) * 8 / (duration - from) / 1e6
	run.MeanRTT, run.P95RTT = stats.Mean(rtts), stats.Percentile(rtts, 95)
	if run.Flow.SentPkts > 0 {
		run.LossRate = float64(run.Flow.LostPkts) / float64(run.Flow.SentPkts)
	}
	return run
}

// sleepUntil sleeps until t0+sec.
func sleepUntil(t0 time.Time, sec float64) {
	time.Sleep(time.Until(t0.Add(time.Duration(sec * float64(time.Second)))))
}

// ShimLoopbackConfig describes one single-process run on real sockets:
// one sender flow → wire.Shim → receiver engine over 127.0.0.1, for
// Duration real seconds — what `proteusd demo` executes.
type ShimLoopbackConfig struct {
	CC   transport.Controller
	Shim wire.ShimConfig
	// Duration is real seconds to run (default 10); the measurement
	// window for throughput and RTT statistics is [MeasureFrom,
	// Duration], excluding startup (default 0.4 × Duration).
	Duration    float64
	MeasureFrom float64
}

// ShimLoopbackResult summarizes one shim loopback run.
type ShimLoopbackResult struct {
	LoopbackRun
	Shim wire.ShimStats
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
	t0 := time.Now()
	run := measure(fl, recv, cfg.Duration, cfg.MeasureFrom, func(sec float64) { sleepUntil(t0, sec) })
	return &ShimLoopbackResult{LoopbackRun: run, Shim: shim.Stats()}, nil
}

// SimLoopback is the same topology in virtual time: one sender flow →
// path → receiver engine on a SimNet. It is the engine half of every
// sim-vs-wire gate (parity, path-model parity, chaos soak, adversary
// replay): the caller builds the path the way the simulator half does,
// and anything that can be applied to a simulated path applies.
type SimLoopback struct {
	S         *sim.Sim
	Path      *netem.Path
	Snd, Recv *Engine
	Flow      *Flow
}

// NewSimLoopback puts two one-shard engines on path and starts cc's
// flow across it; nothing moves until Run.
func NewSimLoopback(s *sim.Sim, path *netem.Path, cc transport.Controller) (*SimLoopback, error) {
	n := NewSimNet(s)
	lb := &SimLoopback{S: s, Path: path, Snd: n.NewEngine(Config{}), Recv: n.NewEngine(Config{})}
	dst := lb.Recv.Addrs()[0]
	n.Connect(lb.Snd.Addrs()[0], dst, path)
	lb.Snd.Start()
	lb.Recv.Start()
	var err error
	lb.Flow, err = lb.Snd.AddFlow(FlowConfig{Dst: dst, CC: cc, RecordRTT: true})
	return lb, err
}

// Install puts a path model and a fault plan (either may be nil) on the
// path with pathmodel.Install — the simulator half's one call — and adds
// what only an engine has behind the path: a peer restart also discards
// the receiver's flow state.
func (lb *SimLoopback) Install(m pathmodel.Model, faults *chaos.Plan, horizon float64) error {
	if _, err := pathmodel.Install(lb.S, lb.Path, m, faults, horizon); err != nil || faults == nil {
		return err
	}
	for _, step := range faults.Canonical().Steps(horizon) {
		if step.Restart {
			lb.S.At(step.At, lb.Recv.Reset)
		}
	}
	return nil
}

// SimLoopbackResult summarizes one virtual-time loopback run.
type SimLoopbackResult struct {
	LoopbackRun
	Link netem.LinkStats
	Path netem.PathStats
}

// Run runs the simulator to duration seconds and stops the engines; the
// measurement window is as ShimLoopbackConfig's.
func (lb *SimLoopback) Run(duration, measureFrom float64) *SimLoopbackResult {
	run := measure(lb.Flow, lb.Recv, duration, measureFrom, lb.S.Run)
	lb.Snd.Stop()
	lb.Recv.Stop()
	return &SimLoopbackResult{LoopbackRun: run, Link: lb.Path.Link.Stats(), Path: lb.Path.Stats()}
}
