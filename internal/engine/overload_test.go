package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pccproteus/internal/overload"
	"pccproteus/internal/wire"
)

const scavBit = wire.FlowClassScavenger

// addLocalSender inserts a socketless sender flow into sh's table, the
// way hotpathHarness does, so shed/pause behavior is testable without
// sockets.
func addLocalSender(sh *shard, id uint32, class overload.Class) *flow {
	s := newSenderFlow(FlowConfig{CC: &FixedRateCC{Rate: 1, Win: 400}, Burst: 1, PacketSize: 400, Class: class})
	f := &flow{addr: src(uint16(30000 + id)), id: id, snd: s}
	sh.insert(f)
	return f
}

func TestScavengerAdmissionRefusedUnderBrownout(t *testing.T) {
	sh := newTestShard(t, Config{})
	sh.busyBudget = sh.batchSize
	// Force Brownout directly on the shard-owned detector.
	sh.det.Update(0, overload.Signals{FlowOccupancy: 0.9})

	// A new scavenger flow is refused: no state, a BUSY goes back.
	sh.dispatch(src(1000), dataPkt(t, 1|scavBit, 0, 100), 0)
	if sh.nFlows.Load() != 0 {
		t.Fatalf("scavenger admitted under brownout: %d flows", sh.nFlows.Load())
	}
	if r := sh.ctr.rejectScav.Load(); r != 1 {
		t.Fatalf("rejectScav=%d want 1", r)
	}
	if b := sh.ctr.busyTx.Load(); b != 1 {
		t.Fatalf("busyTx=%d want 1", b)
	}
	if len(sh.txq) != 1 || wire.PacketType(sh.txq[0]) != 'Y' {
		t.Fatalf("expected one staged BUSY frame, txq=%d", len(sh.txq))
	}
	bp, err := wire.DecodeBusy(sh.txq[0])
	if err != nil || bp.Flow != 1|scavBit || bp.Shed {
		t.Fatalf("busy frame %+v err=%v", bp, err)
	}

	// A primary flow is untouched by brownout.
	sh.dispatch(src(1001), dataPkt(t, 2, 0, 100), 0)
	if sh.nFlows.Load() != 1 {
		t.Fatal("primary admission must not be gated on brownout")
	}

	// Back to Normal: the scavenger gets in.
	sh.det.Update(1, overload.Signals{})
	sh.det.Update(3, overload.Signals{}) // recover hold elapses
	sh.dispatch(src(1000), dataPkt(t, 1|scavBit, 0, 100), 3)
	if sh.nFlows.Load() != 2 {
		t.Fatal("scavenger not admitted after recovery")
	}
}

func TestCapEvictionPrefersScavenger(t *testing.T) {
	sh := newTestShard(t, Config{MaxFlowsPerShard: 3})
	sh.busyBudget = sh.batchSize
	// Stalest flow is a primary; a fresher scavenger must still be the
	// eviction victim.
	sh.dispatch(src(1000), dataPkt(t, 1, 0, 100), 0)         // primary, stalest
	sh.dispatch(src(1001), dataPkt(t, 2|scavBit, 0, 100), 5) // scavenger, fresh
	sh.dispatch(src(1002), dataPkt(t, 3, 0, 100), 6)         // primary
	sh.dispatch(src(1003), dataPkt(t, 4, 0, 100), 7)         // over cap
	if sh.nFlows.Load() != 3 {
		t.Fatalf("flows=%d want 3", sh.nFlows.Load())
	}
	if sh.lookup(src(1001), 2|scavBit) != nil {
		t.Fatal("scavenger survived eviction while a primary was dropped")
	}
	if sh.lookup(src(1000), 1) == nil {
		t.Fatal("stalest primary was evicted despite a scavenger victim")
	}
	if s, p := sh.ctr.shedScav.Load(), sh.ctr.shedPrim.Load(); s != 1 || p != 0 {
		t.Fatalf("shedScav=%d shedPrim=%d want 1,0", s, p)
	}
	if b := sh.ctr.busyTx.Load(); b != 1 {
		t.Fatalf("busyTx=%d want 1 (evicted scavenger gets a shed BUSY)", b)
	}

	// With only primaries left, cap pressure evicts stalest-primary and
	// counts it against the primary class.
	sh2 := newTestShard(t, Config{MaxFlowsPerShard: 2})
	sh2.busyBudget = sh2.batchSize
	sh2.dispatch(src(1000), dataPkt(t, 1, 0, 100), 0)
	sh2.dispatch(src(1001), dataPkt(t, 2, 0, 100), 1)
	sh2.dispatch(src(1002), dataPkt(t, 3, 0, 100), 2)
	if sh2.ctr.shedPrim.Load() != 1 {
		t.Fatal("all-primary cap eviction must count as a primary shed")
	}
	if sh2.lookup(src(1000), 1) != nil {
		t.Fatal("stalest primary should have been the victim")
	}
}

func TestShedPausesLocalScavengersOnly(t *testing.T) {
	sh := newTestShard(t, Config{})
	prim := addLocalSender(sh, 1, overload.ClassPrimary)
	scav := addLocalSender(sh, 2|scavBit, overload.ClassScavenger)
	// Also a scavenger receiver flow: Shed must evict it with a BUSY.
	sh.dispatch(src(2000), dataPkt(t, 9|scavBit, 0, 100), 0)

	sh.txErrStreak = 32 // ENOBUFS streak: full-strength pressure
	sh.updateOverload(1)
	if got := sh.det.State(); got != overload.StateShed {
		t.Fatalf("state %v want shed", got)
	}
	if !scav.snd.paused || prim.snd.paused {
		t.Fatalf("paused: scav=%v prim=%v want true,false", scav.snd.paused, prim.snd.paused)
	}
	if sh.ctr.paused.Load() != 1 {
		t.Fatalf("paused gauge %d want 1", sh.ctr.paused.Load())
	}
	if sh.lookup(src(2000), 9|scavBit) != nil {
		t.Fatal("scavenger receiver flow not shed")
	}
	if sh.ctr.shedScav.Load() != 2 || sh.ctr.shedPrim.Load() != 0 {
		t.Fatalf("shedScav=%d shedPrim=%d want 2,0",
			sh.ctr.shedScav.Load(), sh.ctr.shedPrim.Load())
	}
	// A paused sender still wakes (RTO aging) but emits nothing.
	if next := scav.snd.pump(sh, scav, 1); next <= 1 {
		t.Fatalf("paused pump returned %v, want a future wake", next)
	}
	if scav.snd.sentPkts.Load() != 0 {
		t.Fatal("paused scavenger emitted")
	}

	// Streak clears: Recover resumes the paused sender.
	sh.txErrStreak = 0
	sh.updateOverload(2)
	if got := sh.det.State(); got != overload.StateRecover {
		t.Fatalf("state %v want recover", got)
	}
	if scav.snd.paused || sh.ctr.paused.Load() != 0 {
		t.Fatal("recover did not resume the paused scavenger")
	}
}

// What a shard puts on the wire must not follow map order: of equally
// stale flows the cap evicts the first in (flow ID, peer) order, Shed
// spends its BUSY budget on the first so many, and resumed senders'
// first trains leave in that order — whatever order the flows arrived in.
func TestOverloadActionsFollowFlowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		sh := newTestShard(t, Config{MaxFlowsPerShard: 12})
		// Eight scavenger receivers and four paused local scavenger
		// senders, admitted in a random order, all last seen at once.
		for _, k := range rng.Perm(12) {
			if id := uint32(100+k) | scavBit; k < 8 {
				sh.dispatch(peer(byte(k%3), 7000), dataPkt(t, id, 0, 100), 1)
			} else {
				addLocalSender(sh, id, overload.ClassScavenger).snd.paused = true
				sh.ctr.paused.Add(1)
			}
		}
		sh.flushTx()

		// One more receiver at the cap: the victim is flow 100.
		sh.busyBudget = 1
		sh.dispatch(peer(9, 7000), dataPkt(t, 99, 0, 100), 1)
		if sh.lookup(peer(0, 7000), 100|scavBit) != nil || sh.nFlows.Load() != 12 {
			t.Fatalf("round %d: the cap did not evict flow 100, the first of the equally stale", round)
		}
		// Its final ack, its BUSY, then the newcomer's first ack.
		if bp, err := wire.DecodeBusy(sh.txq[1]); len(sh.txq) != 3 || err != nil || bp.Flow != 100|scavBit {
			t.Fatalf("round %d: eviction BUSY %+v err=%v", round, bp, err)
		}
		sh.flushTx()

		// Shed with a budget of three: BUSY to flows 101, 102, 103.
		sh.busyBudget = 3
		sh.shedScavengers()
		if len(sh.txq) != 3 {
			t.Fatalf("round %d: %d BUSY frames for a budget of 3", round, len(sh.txq))
		}
		for i, p := range sh.txq {
			if bp, err := wire.DecodeBusy(p); err != nil || bp.Flow != uint32(101+i)|scavBit {
				t.Fatalf("round %d: BUSY %d went to flow %d", round, i, bp.Flow&^scavBit)
			}
		}
		sh.flushTx()

		// Resume: each sender's first packet, in flow order 108..111.
		sh.resumeScavengers(2)
		if len(sh.txq) != 4 {
			t.Fatalf("round %d: %d packets from 4 resumed senders", round, len(sh.txq))
		}
		for i, p := range sh.txq {
			if h, err := wire.DecodeData(p); err != nil || h.Flow != uint32(108+i)|scavBit {
				t.Fatalf("round %d: resumed train %d is flow %d's", round, i, h.Flow&^scavBit)
			}
		}
	}
}

func TestBusyBackoffJitteredExponential(t *testing.T) {
	sh := newTestShard(t, Config{})
	f := addLocalSender(sh, 1|scavBit, overload.ClassScavenger)
	s := f.snd
	bp := wire.BusyPacket{Flow: f.id, RetryAfterMillis: 200}
	prev := 0.0
	for i := 1; i <= 4; i++ {
		s.busyUntil = 0 // isolate each step's backoff
		s.onBusy(sh, bp, 0)
		got := s.busyUntil
		base := 0.2
		for j := 1; j < i; j++ {
			base *= 2
		}
		if got < base*0.75-1e-9 || got > base*1.25+1e-9 {
			t.Fatalf("streak %d: backoff %.3fs outside [%.3f, %.3f]",
				i, got, base*0.75, base*1.25)
		}
		if got <= prev/2 {
			t.Fatalf("backoff not growing: %v after %v", got, prev)
		}
		prev = got
	}
	// The cap: a long streak cannot push the horizon past maxBusyBackoff.
	for i := 0; i < 20; i++ {
		s.onBusy(sh, bp, 0)
	}
	if s.busyUntil > maxBusyBackoff*1.25 {
		t.Fatalf("backoff %v exceeds cap", s.busyUntil)
	}
	// While busy, pump emits nothing and wakes no later than busyUntil.
	s.busyUntil = 5
	if next := s.pump(sh, f, 1); next > 5 {
		t.Fatalf("busy pump wake %v after busyUntil", next)
	}
	if s.sentPkts.Load() != 0 {
		t.Fatal("busy flow emitted")
	}
	// An ack resets the streak (the peer is serving us again).
	var a wire.AckPacket
	s.onAck(sh, f, &a, 6)
	if s.busyStreak != 0 {
		t.Fatalf("busyStreak=%d after ack, want 0", s.busyStreak)
	}
}

// TestShedCycleZeroAlloc is the "zero memory growth during Shed" gate
// at its sharpest: a full Shed→Recover→Normal cycle over a populated
// shard allocates nothing once warm, so no amount of overload dwell
// can grow the heap.
func TestShedCycleZeroAlloc(t *testing.T) {
	sh := newTestShard(t, Config{})
	for i := uint32(0); i < 8; i++ {
		addLocalSender(sh, 100+i|scavBit, overload.ClassScavenger)
		addLocalSender(sh, 200+i, overload.ClassPrimary)
	}
	now := 0.0
	cycle := func() {
		now += 1
		sh.txErrStreak = 32
		sh.updateOverload(now) // → Shed: pause scavengers
		sh.fireNow = now
		sh.wh.advance(now, sh.fireFn)
		sh.txErrStreak = 0
		now += 1
		sh.updateOverload(now) // → Recover: resume
		now += 1.1
		sh.updateOverload(now) // hold elapsed → Normal
		sh.fireNow = now
		sh.wh.advance(now, sh.fireFn)
		sh.flushTx()
	}
	// Warm thoroughly: each cycle advances time by 3.1s, so armed
	// deadlines walk the wheel's 512 slots with a 64-cycle period —
	// every slot the measurement can touch must have grown its slice
	// capacity first.
	for i := 0; i < 200; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("shed/recover cycle allocates %.2f/op, want 0", allocs)
	}
}

// TestFloodBurstReachesShed walks the flood's admission path on a
// socketless shard, where the test decides what one rx batch holds:
// part of a scavenger burst tips the table into Brownout, which closes
// the scavenger gate; table pressure that keeps rising — only primaries
// can still get in — reaches Shed, which evicts every scavenger and no
// primary. In RunOverload's flood the scavengers' first packets cross a
// link one at a time and the detector is updated after each, so the
// fifteenth admission closes the gate and the table stops at Brownout;
// this, not TestOverloadFloodGate, is where the transition to Shed is
// asserted.
func TestFloodBurstReachesShed(t *testing.T) {
	sh := newTestShard(t, Config{MaxFlowsPerShard: 24})
	burst := func(first, n int, class uint32, now float64) {
		for i := first; i < first+n; i++ {
			sh.dispatch(src(uint16(2000+i)), dataPkt(t, uint32(i)|class, 0, 100), now)
		}
	}
	burst(1, 6, 0, 0) // the primaries
	sh.updateOverload(0)
	if st := sh.det.State(); st != overload.StateNormal {
		t.Fatalf("6/24 flows: state %v want normal", st)
	}
	burst(100, 15, scavBit, 0.1) // one rx batch: 21/24 = 0.875
	sh.updateOverload(0.1)
	if st := sh.det.State(); st != overload.StateBrownout {
		t.Fatalf("21/24 flows: state %v want brownout", st)
	}
	burst(200, 10, scavBit, 0.2) // the rest of the flood is refused
	if r, b := sh.ctr.rejectScav.Load(), sh.ctr.busyTx.Load(); r != 10 || b != 10 || sh.nFlows.Load() != 21 {
		t.Fatalf("brownout admission: rejectScav=%d busyTx=%d flows=%d want 10,10,21", r, b, sh.nFlows.Load())
	}
	burst(7, 2, 0, 0.3) // two more primaries: 23/24 = 0.958
	sh.updateOverload(0.3)
	if st := sh.det.State(); st != overload.StateShed {
		t.Fatalf("23/24 flows: state %v want shed", st)
	}
	if s, p := sh.ctr.shedScav.Load(), sh.ctr.shedPrim.Load(); s != 15 || p != 0 {
		t.Fatalf("shedScav=%d shedPrim=%d want 15,0", s, p)
	}
	if b := sh.ctr.busyTx.Load(); b != 25 {
		t.Fatalf("busyTx=%d want 25 (10 refusals + 15 shed notices)", b)
	}
	if sh.nFlows.Load() != 8 {
		t.Fatalf("flows=%d want the 8 primaries", sh.nFlows.Load())
	}
	sh.eachFlow(func(f *flow) {
		if wire.ScavengerID(f.id) {
			t.Errorf("scavenger %#x from %v survived the shed", f.id, f.addr)
		}
	})
	if w := severityState(sh.ovWorst.Load()); w != overload.StateShed {
		t.Fatalf("sticky worst state %v want shed", w)
	}
	// With the scavengers gone the table is at 8/24: the machine leaves
	// Shed, still refusing scavengers until the hold has elapsed.
	sh.updateOverload(0.4)
	if st := sh.det.State(); st != overload.StateRecover {
		t.Fatalf("8/24 flows: state %v want recover", st)
	}
	burst(300, 1, scavBit, 0.5)
	sh.updateOverload(2)
	burst(301, 1, scavBit, 2)
	if st, r := sh.det.State(), sh.ctr.rejectScav.Load(); st != overload.StateNormal || r != 11 || sh.nFlows.Load() != 9 {
		t.Fatalf("after the hold: state %v rejectScav=%d flows=%d want normal,11,9", st, r, sh.nFlows.Load())
	}
}

// overloadGateConfig is the scaled acceptance scenario: 6 primaries on
// a 24-slot receiver hit by a 4× scavenger flood.
func overloadGateConfig() OverloadConfig {
	return OverloadConfig{
		PrimaryFlows: 6,
		RecvFlowCap:  24,
		Overload:     overload.Config{RecoverHold: 0.4},
		Plan: overload.Plan{Phases: []overload.Phase{
			{Kind: overload.KindFlood, At: 0, Dur: 2, Flows: 24},
		}},
	}
}

// floodGateFailures is the flood gate: what a run through a 4× scavenger
// flood must show. The receiver degrades (at least Brownout;
// TestFloodBurstReachesShed covers the transition to Shed), only S-class
// flows are refused or shed, primary goodput holds within 10 %, and the
// receiver is Normal again no sooner than the detector's hold and within
// 3 s of load removal. It returns one line per violated property.
func floodGateFailures(res *OverloadResult, cfg OverloadConfig) (fails []string) {
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	if res.WorstState.Severity() < overload.StateBrownout.Severity() {
		failf("worst state %v, want at least brownout under a 4× flood", res.WorstState)
	}
	if res.Recv.ShedPrimary != 0 {
		failf("shed %d primary flows — class ordering violated", res.Recv.ShedPrimary)
	}
	if res.Recv.RejectedPrimary != 0 {
		failf("rejected %d primary admissions", res.Recv.RejectedPrimary)
	}
	if res.Recv.RejectedScavenger == 0 {
		failf("no remote scavenger refusals — admission gate never closed")
	}
	if res.Load.BusyRx == 0 {
		failf("flood senders never saw a BUSY push-back")
	}
	if res.LoadGoodput < 0.9*res.PreGoodput {
		failf("primary goodput under flood %.0f < 90%% of pre-flood %.0f", res.LoadGoodput, res.PreGoodput)
	}
	if res.RecoverySecs < cfg.Overload.RecoverHold || res.RecoverySecs > 3 {
		failf("recovery %.3fs outside [%.1f, 3]", res.RecoverySecs, cfg.Overload.RecoverHold)
	}
	if res.PostGoodput < 0.9*res.PreGoodput {
		failf("post-recovery goodput %.0f < 90%% of pre-flood %.0f", res.PostGoodput, res.PreGoodput)
	}
	return fails
}

func runOverload(t *testing.T, cfg OverloadConfig) *OverloadResult {
	t.Helper()
	res, err := RunOverload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOverloadFloodGate is the acceptance gate for class-aware
// degradation, in virtual time: every bound is exact.
func TestOverloadFloodGate(t *testing.T) {
	cfg := overloadGateConfig()
	res := runOverload(t, cfg)
	t.Logf("pre=%.0f load=%.0f post=%.0f B/s recovery=%.3fs worst=%v recv=%+v",
		res.PreGoodput, res.LoadGoodput, res.PostGoodput,
		res.RecoverySecs, res.WorstState, res.Recv)
	for _, f := range floodGateFailures(res, cfg) {
		t.Error(f)
	}
}

// TestOverloadFloodGateCanFail is the gate's negative control: the same
// flood against a detector that cannot leave Normal (pressure never
// exceeds 1) refuses no admission — the scavengers churn through the
// table cap's evictions for the whole flood — and has nothing to recover
// from, and the gate has to say so.
func TestOverloadFloodGateCanFail(t *testing.T) {
	cfg := overloadGateConfig()
	cfg.Overload.Brownout = 2
	res := runOverload(t, cfg)
	fails := floodGateFailures(res, cfg)
	t.Logf("worst=%v recv=%+v\n%s", res.WorstState, res.Recv, strings.Join(fails, "\n"))
	for _, w := range []string{"worst state", "admission gate never closed", "recovery 0.000s outside"} {
		if !slices.ContainsFunc(fails, func(f string) bool { return strings.Contains(f, w) }) {
			t.Errorf("gate did not report %q with the detector disabled", w)
		}
	}
}

// TestOverloadRunsRepeat: the scenario is one goroutine's work in virtual
// time, so one config gives one result — every counter, goodput and the
// recovery time — however many CPUs the runtime has.
func TestOverloadRunsRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := overloadGateConfig()
	cfg.Plan.Phases = append(cfg.Plan.Phases, overload.Phase{Kind: overload.KindAckStarve, At: 0.5, Dur: 1, Flows: 40})
	r1 := runOverload(t, cfg)
	runtime.GOMAXPROCS(2)
	r2 := runOverload(t, cfg)
	if *r1 != *r2 {
		t.Fatalf("two runs differ:\n%+v\n%+v", *r1, *r2)
	}
	if r1.Recv.RejectedScavenger == 0 || r1.Load.Paused == 0 {
		t.Fatalf("both phases should have left a mark: %+v", *r1)
	}
}

// TestOverloadAckStarve drives the slow-receiver scenario: a starved
// population aimed at a mute endpoint sheds (pauses) its scavengers
// first and never touches a primary.
func TestOverloadAckStarve(t *testing.T) {
	cfg := overloadGateConfig()
	cfg.RecvFlowCap = 16
	cfg.Plan = overload.Plan{Phases: []overload.Phase{
		{Kind: overload.KindAckStarve, At: 0, Dur: 1.2, Flows: 40},
	}}
	res := runOverload(t, cfg)
	t.Logf("load=%+v addErrs=%d", res.Load, res.LoadAddErrs)
	if res.Load.Overload != overload.StateShed {
		t.Errorf("starved engine state %v, want shed", res.Load.Overload)
	}
	if res.Load.ShedScavenger == 0 || res.Load.Paused == 0 {
		t.Errorf("no scavengers paused under ack starvation: %+v", res.Load)
	}
	if res.Load.ShedPrimary != 0 {
		t.Errorf("ack starvation shed %d primaries", res.Load.ShedPrimary)
	}
	if res.LoadAddErrs == 0 {
		t.Error("starved engine never refused an admission at cap")
	}
	// The starved population is off on its own engine: the main
	// receiver must be completely unaffected.
	if res.Recv.ShedScavenger != 0 || res.Recv.Overload != overload.StateNormal || res.RecoverySecs != 0 {
		t.Errorf("receiver disturbed by ack-starve phase: recovery %.3fs, %+v", res.RecoverySecs, res.Recv)
	}
}

// TestAddFlowScavengerGate covers the local admission path: a shard in
// Brownout refuses new scavenger AddFlow but admits primaries.
func TestAddFlowScavengerGate(t *testing.T) {
	eng, err := New(Config{MaxFlowsPerShard: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	// AddFlow only consults the shard's state mirror, so the shard loop
	// — which would overwrite a forced mirror on its next pass — is
	// never launched: mark the engine started and set the mirror.
	eng.started = true
	eng.shards[0].ovState.Store(uint32(overload.StateBrownout))
	dst := eng.Addrs()[0]
	if _, err := eng.AddFlow(FlowConfig{
		Dst: dst, CC: &FixedRateCC{Rate: 1}, Class: overload.ClassScavenger,
	}); err == nil {
		t.Fatal("scavenger AddFlow admitted under brownout")
	}
	if eng.Stats().RejectedScavenger != 1 {
		t.Fatalf("RejectedScavenger=%d want 1", eng.Stats().RejectedScavenger)
	}
	fl, err := eng.AddFlow(FlowConfig{Dst: dst, CC: &FixedRateCC{Rate: 1}})
	if err != nil {
		t.Fatalf("primary AddFlow refused under brownout: %v", err)
	}
	if wire.ScavengerID(fl.ID()) {
		t.Fatal("primary flow carries the scavenger class bit")
	}
	// Back to normal: scavenger admitted, class bit set on the wire ID.
	eng.shards[0].ovState.Store(uint32(overload.StateNormal))
	sfl, err := eng.AddFlow(FlowConfig{
		Dst: dst, CC: &FixedRateCC{Rate: 1}, Class: overload.ClassScavenger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wire.ScavengerID(sfl.ID()) {
		t.Fatal("scavenger flow ID missing the class bit")
	}
	st := eng.Stats()
	if st.AdmittedPrimary != 1 || st.AdmittedScavenger != 1 {
		t.Fatalf("admitted P=%d S=%d want 1,1", st.AdmittedPrimary, st.AdmittedScavenger)
	}
}
