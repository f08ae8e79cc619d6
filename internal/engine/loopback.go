package engine

import (
	"errors"
	"net/netip"
	"time"

	"pccproteus/internal/chaos"
	"pccproteus/internal/netem"
	"pccproteus/internal/pathmodel"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// Loopback is one topology on either network: a server engine, and
// client flows that each cross a path of their own, described by a
// wire.ShimConfig, to it. On real sockets every path is a Shim in front
// of the server's first shard and every flow runs on one client engine;
// on a SimNet every path is a netem.Path on the simulator, to a client
// engine of its own. Either way a path means the same thing — Shim and
// the SimNet build it with newPath and enter it by depart — so the
// sim-vs-wire gates, `proteusd demo` and fetch.RunLoopback run one
// harness. A Loopback belongs to the goroutine that built it.
type Loopback struct {
	Server *Engine

	net     *SimNet // nil on real sockets
	client  Config
	clients []*Engine     // on real sockets, the one shared client engine
	paths   []*netem.Path // one per Path call
	shims   []*Shim       // on real sockets, one per Path call
	t0      time.Time     // on real sockets, when the first Wait started the clock
}

// NewLoopback starts the server engine, on real sockets when s is nil
// and otherwise on a SimNet on s; client configures every client engine.
// On error nothing is left running.
func NewLoopback(s *sim.Sim, client, server Config) (*Loopback, error) {
	lb := &Loopback{client: client}
	if s != nil {
		lb.net = NewSimNet(s)
		lb.Server = lb.net.NewEngine(server)
		lb.Server.Start()
		return lb, nil
	}
	var err error
	if lb.Server, err = New(server); err != nil {
		return nil, err
	}
	cli, err := New(client)
	if err != nil {
		lb.Server.Stop()
		return nil, err
	}
	lb.clients = []*Engine{cli}
	lb.Server.Start()
	cli.Start()
	return lb, nil
}

// Path builds a path to the server and returns the engine to start the
// flow on, the address it dials, and the path. On real sockets the path
// belongs to its relay's goroutine until Stop. On error the Loopback is
// as it was, and Stop tears it down.
func (lb *Loopback) Path(cfg wire.ShimConfig) (*Engine, netip.AddrPort, *netem.Path, error) {
	srv := lb.Server.Addrs()
	if lb.net != nil {
		path, _, err := newPath(lb.net.s, cfg, 0)
		if err != nil {
			return nil, netip.AddrPort{}, nil, err
		}
		cli := lb.net.NewEngine(lb.client)
		lb.net.Connect(cli.Addrs()[0], srv[0], path)
		cli.Start()
		lb.clients, lb.paths = append(lb.clients, cli), append(lb.paths, path)
		return cli, srv[0], path, nil
	}
	sh, err := NewShim(cfg, srv[0])
	if err != nil {
		return nil, netip.AddrPort{}, nil, err
	}
	lb.paths, lb.shims = append(lb.paths, sh.path), append(lb.shims, sh)
	return lb.clients[0], sh.Addr(), sh.path, nil
}

// StartFlow starts cc's flow, recording its RTT samples, across a new
// path shaped by cfg.
func (lb *Loopback) StartFlow(cfg wire.ShimConfig, cc transport.Controller) (*Flow, *netem.Path, error) {
	cli, dst, path, err := lb.Path(cfg)
	if err != nil {
		return nil, nil, err
	}
	fl, err := cli.AddFlow(FlowConfig{Dst: dst, CC: cc, RecordRTT: true})
	return fl, path, err
}

// Install puts a path model and a fault plan (either may be nil) on every
// path built so far with pathmodel.Install — the simulator half's one
// call — and adds what only an engine has behind a path: a peer restart
// also discards the server's flow state. It needs a SimNet.
func (lb *Loopback) Install(m pathmodel.Model, faults *chaos.Plan, horizon float64) error {
	if lb.net == nil {
		return errors.New("engine: a path model or fault plan needs a SimNet")
	}
	for _, path := range lb.paths {
		if _, err := pathmodel.Install(lb.net.s, path, m, faults, horizon); err != nil {
			return err
		}
	}
	if faults != nil {
		for _, step := range faults.Canonical().Steps(horizon) {
			if step.Restart {
				lb.net.s.At(step.At, lb.Server.Reset)
			}
		}
	}
	return nil
}

// Wait returns once the run has reached second sec: by sleeping, on real
// sockets, where the first Wait starts the clock, or by running the
// simulator that far.
func (lb *Loopback) Wait(sec float64) {
	if lb.net != nil {
		lb.net.s.Run(sec)
		return
	}
	if lb.t0.IsZero() {
		lb.t0 = time.Now()
	}
	time.Sleep(time.Until(lb.t0.Add(time.Duration(sec * float64(time.Second)))))
}

// Now returns the seconds the run has reached: the simulator's clock on
// a SimNet, and on real sockets the time since the first Wait.
func (lb *Loopback) Now() float64 {
	if lb.net != nil {
		return lb.net.s.Now()
	}
	return time.Since(lb.t0).Seconds()
}

// Stop stops the client engines, the relays and the server, and returns
// each path's counters, in the order the paths were built: a relay's, or
// on a SimNet its bottleneck's. It may be called again, and returns the
// same counters.
func (lb *Loopback) Stop() []wire.ShimStats {
	for _, e := range lb.clients {
		e.Stop()
	}
	stats := make([]wire.ShimStats, len(lb.paths))
	for i, path := range lb.paths {
		if lb.net == nil {
			lb.shims[i].Stop()
			stats[i] = lb.shims[i].stats
		}
		stats[i] = withLink(stats[i], path.Link)
	}
	lb.Server.Stop()
	return stats
}

// LoopbackRun is what one client flow measured over one run across its
// path, on either network.
type LoopbackRun struct {
	Mbps       float64 // acked throughput over the measurement window
	MeanRTT    float64 // seconds, samples within the window
	P50RTT     float64
	P95RTT     float64
	LossRate   float64 // sender-declared lost packets / sent packets
	PerSecMbps []float64
	Flow       FlowStats
	Recv       Stats // the server's
}

// Measure runs fl's flow to second duration and takes the run's
// statistics off it over the window [from, duration]; a from outside
// (0, duration) is 0.4 × duration. fl needs RecordRTT.
func (lb *Loopback) Measure(fl *Flow, duration, from float64) LoopbackRun {
	if from <= 0 || from >= duration {
		from = duration * 0.4
	}
	var markAcked int64
	markRTT := -1
	mark := func() {
		lb.Wait(from)
		markAcked, markRTT = fl.Stats().AckedBytes, len(fl.RTTSamples())
	}
	run := LoopbackRun{PerSecMbps: make([]float64, 0, int(duration))}
	var last int64
	for sec := 1.0; sec <= duration; sec++ {
		if markRTT < 0 && from <= sec {
			mark()
		}
		lb.Wait(sec)
		acked := fl.Stats().AckedBytes
		run.PerSecMbps = append(run.PerSecMbps, float64(acked-last)*8/1e6)
		last = acked
	}
	if markRTT < 0 {
		mark()
	}
	lb.Wait(duration)

	run.Flow, run.Recv = fl.Stats(), lb.Server.Stats()
	rtts := fl.RTTSamples()[markRTT:]
	run.Mbps = float64(run.Flow.AckedBytes-markAcked) * 8 / (duration - from) / 1e6
	run.MeanRTT, run.P50RTT, run.P95RTT = stats.Mean(rtts), stats.Percentile(rtts, 50), stats.Percentile(rtts, 95)
	if run.Flow.SentPkts > 0 {
		run.LossRate = float64(run.Flow.LostPkts) / float64(run.Flow.SentPkts)
	}
	return run
}
