package engine

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"time"

	"pccproteus/internal/overload"
)

// OverloadConfig drives RunOverload: a steady primary population on a
// capacity-limited receiver, hit by scheduled overload phases
// (scavenger flow floods, ack-starved scavengers aimed at a mute
// endpoint) from an overload.Plan. The receiver's flow cap is the
// scarce resource — set it low enough that the plan's floods cross the
// brownout thresholds.
type OverloadConfig struct {
	PrimaryFlows int
	PrimaryRate  float64 // bytes/sec per primary flow
	ScavRate     float64 // bytes/sec per flood scavenger flow
	RecvShards   int
	BatchSize    int
	PacketSize   int
	// RecvFlowCap is the receiver's MaxFlowsPerShard; also used as the
	// per-shard cap on ack-starve phase engines, where the starved
	// flows themselves are the table pressure.
	RecvFlowCap int
	Plan        overload.Plan
	// Warmup is the primary-only baseline period before the plan's
	// t=0; its second half is the pre-flood goodput window.
	Warmup time.Duration
	// Cooldown bounds the post-plan recovery wait and hosts the
	// post-recovery goodput window.
	Cooldown time.Duration
	Overload overload.Config
	Seed     int64
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.PrimaryRate <= 0 {
		c.PrimaryRate = 2e5
	}
	if c.ScavRate <= 0 {
		c.ScavRate = 1e5
	}
	if c.RecvShards <= 0 {
		c.RecvShards = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 400
	}
	if c.RecvFlowCap <= 0 {
		c.RecvFlowCap = 64
	}
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

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

// RunOverload stands up the receiver and primary engines, replays the
// plan's phases against them, and measures primary goodput before /
// during / after the load plus the receiver's recovery time.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.PrimaryFlows <= 0 {
		return nil, errors.New("engine: overload needs PrimaryFlows")
	}
	plan := cfg.Plan.Canonical()

	prim, recv, err := StartPair(
		Config{BatchSize: cfg.BatchSize, Seed: cfg.Seed + 1},
		Config{
			Shards: cfg.RecvShards, BatchSize: cfg.BatchSize,
			MaxFlowsPerShard: cfg.RecvFlowCap, Overload: cfg.Overload,
			Seed: cfg.Seed,
			// Short idle timeout: scavenger receiver flows admitted between
			// shed waves go quiet once their senders back off; they must
			// drain quickly or lingering occupancy holds the shard in
			// Brownout long after the load is gone.
			IdleTimeout: 1,
		})
	if err != nil {
		return nil, err
	}
	defer recv.Stop()
	defer prim.Stop()

	addrs := recv.Addrs()
	primFlows := make([]*Flow, 0, cfg.PrimaryFlows)
	for i := 0; i < cfg.PrimaryFlows; i++ {
		fl, err := prim.AddFlow(FlowConfig{
			Dst:        addrs[i%len(addrs)],
			CC:         &FixedRateCC{Rate: cfg.PrimaryRate, Win: float64(64 * cfg.PacketSize)},
			PacketSize: cfg.PacketSize,
		})
		if err != nil {
			return nil, err
		}
		primFlows = append(primFlows, fl)
	}
	ackedPrim := func() int64 {
		var n int64
		for _, fl := range primFlows {
			n += fl.Stats().AckedBytes
		}
		return n
	}

	// A mute endpoint for ack-starve phases: a bound, never-read UDP
	// socket. Its receive buffer fills and the kernel silently drops —
	// exactly the slow receiver the scenario wants.
	var muteAddr netip.AddrPort
	needMute := false
	for _, ph := range plan.Phases {
		if ph.Kind == overload.KindAckStarve {
			needMute = true
		}
	}
	if needMute {
		mc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		defer mc.Close()
		muteAddr = mc.LocalAddr().(*net.UDPAddr).AddrPort()
	}

	res := &OverloadResult{RecoverySecs: -1}

	// Warmup, then the pre-load goodput window over its second half.
	time.Sleep(cfg.Warmup / 2)
	a0, t0 := ackedPrim(), time.Now()
	time.Sleep(cfg.Warmup / 2)
	res.PreGoodput = float64(ackedPrim()-a0) / time.Since(t0).Seconds()

	base := time.Now() // the plan's t=0

	// Launch each phase on its own ephemeral engine so "load removal"
	// is a clean teardown, not a lingering population.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		loadEnd float64
	)
	for _, ph := range plan.Phases {
		if end := ph.At + ph.Dur; end > loadEnd {
			loadEnd = end
		}
		wg.Add(1)
		go func(ph overload.Phase) {
			defer wg.Done()
			sleepUntil(base, ph.At)
			ecfg := Config{BatchSize: cfg.BatchSize, Seed: cfg.Seed + 100 + int64(ph.Flows)}
			dst := addrs
			if ph.Kind == overload.KindAckStarve {
				// The starved flows themselves are the pressure: a tight
				// table and a short idle timeout so the phase engine both
				// browns out and then drains.
				ecfg.MaxFlowsPerShard = cfg.RecvFlowCap
				ecfg.Overload = cfg.Overload
				ecfg.IdleTimeout = 2
				dst = []netip.AddrPort{muteAddr}
			}
			eng, err := New(ecfg)
			if err != nil {
				return
			}
			if err := eng.Start(); err != nil {
				eng.Stop()
				return
			}
			addErrs := 0
			for i := 0; i < ph.Flows; i++ {
				class := overload.ClassScavenger
				if ph.Kind == overload.KindAckStarve && i >= ph.Flows/2 {
					// A slow receiver starves everyone: the back half of
					// the starved population is primary, which both mirrors
					// reality and guarantees the table reaches Shed even
					// after the scavenger admission gate closes.
					class = overload.ClassPrimary
				}
				_, err := eng.AddFlow(FlowConfig{
					Dst:        dst[i%len(dst)],
					CC:         &FixedRateCC{Rate: cfg.ScavRate, Win: float64(64 * cfg.PacketSize)},
					PacketSize: cfg.PacketSize,
					Class:      class,
				})
				if err != nil {
					addErrs++ // expected once the phase engine browns out
				}
			}
			sleepUntil(base, ph.At+ph.Dur)
			st := eng.Stats()
			eng.Stop()
			mu.Lock()
			mergeStats(&res.Load, st)
			res.LoadAddErrs += addErrs
			mu.Unlock()
		}(ph)
	}

	// Primary goodput over the whole load window. The recovery clock
	// starts when the plan says the load ends, before the phase engines
	// are torn down: their Stop is part of what recovery waits out.
	removed := time.Now()
	if len(plan.Phases) > 0 {
		sleepUntil(base, plan.Phases[0].At)
		la, lt := ackedPrim(), time.Now()
		sleepUntil(base, loadEnd)
		removed = time.Now()
		wg.Wait() // phase engines fully stopped: load is removed
		res.LoadGoodput = float64(ackedPrim()-la) / time.Since(lt).Seconds()
	}
	// Shed dwells can be a single loop pass (~1ms): shedding collapses
	// the very pressure that caused it. Polling would miss that, so the
	// shards record the worst state they ever entered and Stats()
	// surfaces it sticky.
	res.WorstState = recv.Stats().WorstOverload

	// Recovery clock: load removal → receiver (and primary sender)
	// report Normal with nothing paused.
	deadline := removed.Add(cfg.Cooldown)
	for time.Now().Before(deadline) {
		rs, ps := recv.Stats(), prim.Stats()
		if rs.Overload == overload.StateNormal && ps.Overload == overload.StateNormal &&
			rs.Paused == 0 && ps.Paused == 0 {
			res.RecoverySecs = time.Since(removed).Seconds()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Post-recovery goodput window.
	postWin := cfg.Cooldown / 4
	if postWin > time.Second {
		postWin = time.Second
	}
	p0, pt := ackedPrim(), time.Now()
	time.Sleep(postWin)
	res.PostGoodput = float64(ackedPrim()-p0) / time.Since(pt).Seconds()

	res.Recv = recv.Stats()
	res.Primary = prim.Stats()
	return res, nil
}
