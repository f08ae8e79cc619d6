package engine

import (
	"errors"
	"net/netip"

	"pccproteus/internal/netem"
	"pccproteus/internal/overload"
	"pccproteus/internal/sim"
)

// OverloadConfig drives RunOverload: a steady primary population on a
// capacity-limited receiver, hit by scheduled overload phases
// (scavenger flow floods, ack-starved scavengers aimed at a mute
// endpoint) from an overload.Plan. The receiver's flow cap is the
// scarce resource — set it low enough that the plan's floods cross the
// brownout thresholds.
type OverloadConfig struct {
	PrimaryFlows int
	// RecvFlowCap is the receiver's MaxFlowsPerShard (default 64); also
	// the cap on ack-starve phase engines, where the starved flows
	// themselves are the table pressure.
	RecvFlowCap int
	Plan        overload.Plan
	Overload    overload.Config
	Seed        int64
}

// The scenario's fixed parts. Every flow sends 400-byte packets at a
// fixed rate; the plan's t=0 follows a primary-only warm-up whose second
// half is the pre-load goodput window; the receiver is given
// overloadCooldown after the load ends to report Normal again, and the
// post-recovery goodput window follows that.
const (
	overloadPrimaryRate = 2e5 // bytes/sec per primary flow
	overloadScavRate    = 1e5 // bytes/sec per phase flow
	overloadPacketSize  = 400
	overloadBatchSize   = 256
	overloadWarmup      = 1.0 // seconds
	overloadCooldown    = 5.0
	overloadPostWindow  = 1.0
)

// OverloadResult summarizes one overload scenario run.
type OverloadResult struct {
	PreGoodput   float64        // primary bytes/sec before the first phase
	LoadGoodput  float64        // primary bytes/sec while phases are active
	PostGoodput  float64        // primary bytes/sec after recovery
	RecoverySecs float64        // load end → receiver Normal again; -1 = never
	WorstState   overload.State // worst receiver state observed under load

	Recv    Stats // receiver engine at teardown
	Primary Stats // primary sender engine at teardown
	Load    Stats // merged phase-engine stats (BUSY rx, sheds, pauses…)

	LoadAddErrs int // AddFlow refusals inside phases (expected under pressure)
}

// mergeStats folds one engine snapshot into an accumulator — counters
// add, gauges add (they are per-engine), states take the worst.
func mergeStats(dst *Stats, s Stats) {
	dst.RxPkts += s.RxPkts
	dst.TxPkts += s.TxPkts
	dst.Evicted += s.Evicted
	dst.Delivered += s.Delivered
	dst.DeliveredBytes += s.DeliveredBytes
	dst.AdmittedPrimary += s.AdmittedPrimary
	dst.AdmittedScavenger += s.AdmittedScavenger
	dst.RejectedPrimary += s.RejectedPrimary
	dst.RejectedScavenger += s.RejectedScavenger
	dst.ShedPrimary += s.ShedPrimary
	dst.ShedScavenger += s.ShedScavenger
	dst.BusyTx += s.BusyTx
	dst.BusyRx += s.BusyRx
	dst.TxSoftErrs += s.TxSoftErrs
	dst.Paused += s.Paused
	if s.Overload.Severity() > dst.Overload.Severity() {
		dst.Overload = s.Overload
	}
	if s.WorstOverload.Severity() > dst.WorstOverload.Severity() {
		dst.WorstOverload = s.WorstOverload
	}
	if s.Pressure > dst.Pressure {
		dst.Pressure = s.Pressure
	}
}

// RunOverload puts the receiver and the primary engine on a SimNet,
// schedules the plan's phases against them, and measures primary goodput
// before / during / after the load plus the receiver's recovery time.
// The whole run is virtual time on the caller's goroutine: the same
// config gives the same result, field for field.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	if cfg.PrimaryFlows <= 0 {
		return nil, errors.New("engine: overload needs PrimaryFlows")
	}
	if cfg.RecvFlowCap <= 0 {
		cfg.RecvFlowCap = 64
	}
	plan := cfg.Plan.Canonical()

	s := sim.New(cfg.Seed)
	n := NewSimNet(s)
	// Every sender engine reaches the receiver over its own fast, short
	// path: the host, not the network, is what this scenario loads.
	connect := func(from, to *Engine) {
		n.Connect(from.Addrs()[0], to.Addrs()[0],
			&netem.Path{Link: netem.NewLink(s, 1000, 1<<20, 0.0005), AckDelay: 0.0005})
	}
	fixedRate := func(rate float64) *FixedRateCC {
		return &FixedRateCC{Rate: rate, Win: 64 * overloadPacketSize}
	}

	recv := n.NewEngine(Config{
		BatchSize: overloadBatchSize, MaxFlowsPerShard: cfg.RecvFlowCap,
		Overload: cfg.Overload, Seed: cfg.Seed,
		// Short idle timeout: scavenger receiver flows admitted before
		// the gate closed go quiet when their senders stop; they must
		// drain quickly or lingering occupancy holds the shard in
		// Brownout long after the load is gone.
		IdleTimeout: 1,
	})
	prim := n.NewEngine(Config{BatchSize: overloadBatchSize, Seed: cfg.Seed + 1})
	connect(prim, recv)
	recv.Start()
	prim.Start()
	defer recv.Stop()
	defer prim.Stop()

	dst := recv.Addrs()[0]
	primFlows := make([]*Flow, 0, cfg.PrimaryFlows)
	for i := 0; i < cfg.PrimaryFlows; i++ {
		fl, err := prim.AddFlow(FlowConfig{Dst: dst, CC: fixedRate(overloadPrimaryRate), PacketSize: overloadPacketSize})
		if err != nil {
			return nil, err
		}
		primFlows = append(primFlows, fl)
	}
	// ackedAt runs the simulator to time t and returns what the primaries
	// have had acked by then; goodput is their bytes per second over
	// [from, until].
	ackedAt := func(t float64) (n int64) {
		s.Run(t)
		for _, fl := range primFlows {
			n += fl.Stats().AckedBytes
		}
		return n
	}
	goodput := func(from, until float64) float64 {
		a := ackedAt(from)
		return float64(ackedAt(until)-a) / (until - from)
	}

	// The mute endpoint of an ack-starve phase is an address nothing
	// routes to: every datagram sent there is lost, none is answered —
	// the slow receiver the scenario wants.
	mute := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, 1}), 9)

	res := &OverloadResult{RecoverySecs: -1}

	// Each phase runs on its own engine, built when the phase starts and
	// stopped when it ends, so "load removal" is a clean teardown, not a
	// lingering population.
	const base = overloadWarmup // the plan's t=0
	loadStart, loadEnd := base, base
	for i, ph := range plan.Phases {
		if i == 0 {
			loadStart = base + ph.At // the plan is in time order
		}
		loadEnd = max(loadEnd, base+ph.At+ph.Dur)
		s.At(base+ph.At, func() {
			ecfg := Config{BatchSize: overloadBatchSize, Seed: cfg.Seed + 100 + int64(i)}
			if ph.Kind == overload.KindAckStarve {
				// The starved flows themselves are the pressure: a tight
				// table, so the phase engine browns out.
				ecfg.MaxFlowsPerShard = cfg.RecvFlowCap
				ecfg.Overload = cfg.Overload
			}
			eng := n.NewEngine(ecfg)
			to := mute
			if ph.Kind == overload.KindFlood {
				connect(eng, recv)
				to = dst
			}
			eng.Start()
			for j := 0; j < ph.Flows; j++ {
				class := overload.ClassScavenger
				if ph.Kind == overload.KindAckStarve && j >= ph.Flows/2 {
					// A slow receiver starves everyone: the back half of
					// the starved population is primary, which both mirrors
					// reality and shows the cap refusing either class.
					class = overload.ClassPrimary
				}
				_, err := eng.AddFlow(FlowConfig{
					Dst: to, CC: fixedRate(overloadScavRate), PacketSize: overloadPacketSize, Class: class,
				})
				if err != nil {
					res.LoadAddErrs++ // expected once the phase engine is at its cap
				}
			}
			s.At(base+ph.At+ph.Dur, func() {
				mergeStats(&res.Load, eng.Stats())
				eng.Stop()
			})
		})
	}

	res.PreGoodput = goodput(base/2, base)
	// Primary goodput over the whole load window; the recovery clock
	// starts when the plan says the load ends.
	if loadEnd > loadStart {
		res.LoadGoodput = goodput(loadStart, loadEnd)
	}
	// A Shed dwell can be a single loop pass: shedding collapses the very
	// pressure that caused it. The shards record the worst state they
	// ever entered and Stats surfaces it sticky.
	res.WorstState = recv.Stats().WorstOverload

	// Recovery clock: load removal → receiver (and primary sender)
	// report Normal with nothing paused, read every millisecond.
	for ms := 0; ms <= overloadCooldown*1000; ms++ {
		t := float64(ms) / 1000
		s.Run(loadEnd + t)
		rs, ps := recv.Stats(), prim.Stats()
		if rs.Overload == overload.StateNormal && ps.Overload == overload.StateNormal &&
			rs.Paused == 0 && ps.Paused == 0 {
			res.RecoverySecs = t
			break
		}
	}

	now := s.Now()
	res.PostGoodput = goodput(now, now+overloadPostWindow)

	res.Recv = recv.Stats()
	res.Primary = prim.Stats()
	return res, nil
}
