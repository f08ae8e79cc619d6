package engine

import (
	"net/netip"
	"testing"

	"pccproteus/internal/wire"
)

// newTestShard builds a socketless shard: dispatch, the flow table,
// and the wheel all work; flushTx just recycles.
func newTestShard(t *testing.T, cfg Config) *shard {
	t.Helper()
	eng := &Engine{cfg: cfg.withDefaults(), clock: wire.NewClock(), done: make(chan struct{}), started: true}
	sh := newShard(eng, 0, nil)
	eng.shards = []*shard{sh} // AddFlow / AddFetch land here; sh.admit() takes them in
	return sh
}

func dataPkt(t *testing.T, flowID uint32, seq int64, size int) []byte {
	t.Helper()
	buf := make([]byte, 2048)
	return wire.EncodeDataV2(buf, wire.DataHeader{Seq: seq, SentAt: 1, Flow: flowID}, size)
}

func src(port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), port)
}

func TestFlowTableCreatesPerKey(t *testing.T) {
	sh := newTestShard(t, Config{})
	sh.dispatch(src(1000), dataPkt(t, 7, 0, 100), 0)
	sh.dispatch(src(1000), dataPkt(t, 8, 0, 100), 0)
	sh.dispatch(src(1001), dataPkt(t, 7, 0, 100), 0)
	if len(sh.flows) != 3 {
		t.Fatalf("flows=%d want 3 (keying must be (addr, flowID))", len(sh.flows))
	}
	// Same key again: no new flow, the packet is a duplicate.
	sh.dispatch(src(1000), dataPkt(t, 7, 0, 100), 0)
	if len(sh.flows) != 3 {
		t.Fatalf("flows=%d want 3", len(sh.flows))
	}
	if d := sh.ctr.rxDups.Load(); d != 1 {
		t.Fatalf("dups=%d want 1", d)
	}
}

func TestFlowTableIdleEviction(t *testing.T) {
	sh := newTestShard(t, Config{IdleTimeout: 5})
	sh.dispatch(src(1000), dataPkt(t, 1, 0, 100), 0)
	sh.dispatch(src(1001), dataPkt(t, 2, 0, 100), 3)
	sh.sweep(7) // flow 1 idle 7s > 5, flow 2 idle 4s
	if len(sh.flows) != 1 {
		t.Fatalf("flows=%d want 1 after idle sweep", len(sh.flows))
	}
	if _, ok := sh.flows[flowKey{addr: src(1001), id: 2}]; !ok {
		t.Fatal("wrong flow evicted")
	}
	if e := sh.ctr.evicted.Load(); e != 1 {
		t.Fatalf("evicted=%d want 1", e)
	}
}

func TestFlowTableRebindIsNewFlow(t *testing.T) {
	// A sender that restarts and rebinds arrives from a fresh port:
	// same flow ID, different addr, so it gets fresh state.
	sh := newTestShard(t, Config{})
	for seq := int64(0); seq < 10; seq++ {
		sh.dispatch(src(1000), dataPkt(t, 9, seq, 100), 0)
	}
	old := sh.flows[flowKey{addr: src(1000), id: 9}]
	if old == nil || old.rcv.Cum != 10 {
		t.Fatalf("old flow cum=%v", old)
	}
	sh.dispatch(src(2000), dataPkt(t, 9, 0, 100), 0)
	nf := sh.flows[flowKey{addr: src(2000), id: 9}]
	if nf == nil || nf == old {
		t.Fatal("rebind did not create a new flow")
	}
	if nf.rcv.Cum != 1 || old.rcv.Cum != 10 {
		t.Fatalf("state bled between rebinds: new cum=%d old cum=%d", nf.rcv.Cum, old.rcv.Cum)
	}
}

func TestFlowTableReusedKeyCollisionResets(t *testing.T) {
	// The same (addr, flowID) reused by a restarted sender: seq 0
	// arriving with the cumulative ack far ahead is impossible within
	// one flow's life (sequences are never reused), so the tracker
	// resets instead of treating the entire new flow as duplicates.
	sh := newTestShard(t, Config{})
	key := flowKey{addr: src(1000), id: 5}
	for seq := int64(0); seq < 20; seq++ {
		sh.dispatch(src(1000), dataPkt(t, 5, seq, 100), 0)
	}
	f := sh.flows[key]
	if f.rcv.Cum != 20 {
		t.Fatalf("cum=%d want 20", f.rcv.Cum)
	}
	sh.dispatch(src(1000), dataPkt(t, 5, 0, 100), 0) // restarted sender
	if got := sh.ctr.rebinds.Load(); got != 1 {
		t.Fatalf("rebinds=%d want 1", got)
	}
	if f.rcv.Cum != 1 {
		t.Fatalf("tracker not reset: cum=%d want 1", f.rcv.Cum)
	}
	// The dup counter must not have exploded: the restart's packets
	// are new data, not duplicates.
	if d := sh.ctr.rxDups.Load(); d != 0 {
		t.Fatalf("restart counted as dups: %d", d)
	}
	// But a genuinely duplicated early packet of a young flow (cum
	// below the floor) must NOT reset state.
	sh2 := newTestShard(t, Config{})
	sh2.dispatch(src(1000), dataPkt(t, 6, 0, 100), 0)
	sh2.dispatch(src(1000), dataPkt(t, 6, 1, 100), 0)
	sh2.dispatch(src(1000), dataPkt(t, 6, 0, 100), 0) // network dup
	f2 := sh2.flows[flowKey{addr: src(1000), id: 6}]
	if f2.rcv.Cum != 2 || sh2.ctr.rebinds.Load() != 0 {
		t.Fatalf("young-flow dup treated as restart: cum=%d rebinds=%d",
			f2.rcv.Cum, sh2.ctr.rebinds.Load())
	}
}

func TestFlowTableCapEvictsStalestReceiver(t *testing.T) {
	sh := newTestShard(t, Config{MaxFlowsPerShard: 4})
	for i := 0; i < 8; i++ {
		sh.dispatch(src(uint16(1000+i)), dataPkt(t, uint32(i+1), 0, 100), float64(i))
	}
	if len(sh.flows) != 4 {
		t.Fatalf("flows=%d want 4 (cap not enforced)", len(sh.flows))
	}
	if e := sh.ctr.evicted.Load(); e != 4 {
		t.Fatalf("evicted=%d want 4", e)
	}
	// Survivors are the most recently active keys.
	for i := 4; i < 8; i++ {
		if _, ok := sh.flows[flowKey{addr: src(uint16(1000 + i)), id: uint32(i + 1)}]; !ok {
			t.Fatalf("flow %d missing", i)
		}
	}
}

func TestFlowTableRebindAtCapDoesNotEvict(t *testing.T) {
	// A restarted sender reusing its (addr, flowID) while the shard's
	// table is full must rebind in place: the collision resolves on the
	// existing entry, so it must not race the cap's admission/eviction
	// path — no eviction, no new flow, and the rebound flow is fresh
	// enough to survive the next genuine admission.
	sh := newTestShard(t, Config{MaxFlowsPerShard: 4})
	for i := 0; i < 4; i++ {
		for seq := int64(0); seq < 20; seq++ {
			sh.dispatch(src(uint16(1000+i)), dataPkt(t, uint32(i+1), seq, 100), float64(i))
		}
	}
	if len(sh.flows) != 4 || sh.ctr.evicted.Load() != 0 {
		t.Fatalf("setup: flows=%d evicted=%d", len(sh.flows), sh.ctr.evicted.Load())
	}

	// Restart collision on the stalest key, at the cap, at a late time.
	sh.dispatch(src(1000), dataPkt(t, 1, 0, 100), 10)
	if got := sh.ctr.rebinds.Load(); got != 1 {
		t.Fatalf("rebinds=%d want 1", got)
	}
	if e := sh.ctr.evicted.Load(); e != 0 {
		t.Fatalf("rebind at cap evicted %d flows, want 0", e)
	}
	if len(sh.flows) != 4 {
		t.Fatalf("flows=%d want 4 (rebind must reuse the entry)", len(sh.flows))
	}
	f := sh.flows[flowKey{addr: src(1000), id: 1}]
	if f == nil || f.rcv.Cum != 1 {
		t.Fatalf("rebound flow not reset: %+v", f)
	}

	// A genuinely new 5th key now evicts the stalest flow — which is no
	// longer the rebound one (its lastSeen moved to the rebind time).
	sh.dispatch(src(2000), dataPkt(t, 50, 0, 100), 11)
	if e := sh.ctr.evicted.Load(); e != 1 {
		t.Fatalf("evicted=%d want 1", e)
	}
	if _, ok := sh.flows[flowKey{addr: src(1000), id: 1}]; !ok {
		t.Fatal("freshly-rebound flow was evicted instead of the stalest")
	}
	if _, ok := sh.flows[flowKey{addr: src(1001), id: 2}]; ok {
		t.Fatal("stalest flow (port 1001) survived; wrong eviction victim")
	}
}

func TestFlowTableAckWithNoFlowIsCounted(t *testing.T) {
	sh := newTestShard(t, Config{})
	var ack wire.AckPacket
	ack.Flow = 42
	var buf [wire.MaxAckLen]byte
	sh.dispatch(src(1000), ack.EncodeV2(buf[:]), 0)
	if got := sh.ctr.badAcks.Load(); got != 1 {
		t.Fatalf("badAcks=%d want 1", got)
	}
	if len(sh.flows) != 0 {
		t.Fatal("stray ack must not create a flow")
	}
}

func TestHotpathZeroAllocs(t *testing.T) {
	h := newHotpathHarness(400)
	// Warm: freelists, SACK capacity, tx staging, and every wheel
	// slot's entry slice — each 1ms step advances the 500µs wheel two
	// slots, so a full 512-slot revolution needs 256+ steps.
	for i := 0; i < 600; i++ {
		h.step()
	}
	if h.f.snd.ackedPkts.Load() == 0 {
		t.Fatal("harness not cycling packets")
	}
	allocs := testing.AllocsPerRun(500, func() { h.step() })
	if allocs != 0 {
		t.Fatalf("per-packet hot path allocates %.2f/op, want 0", allocs)
	}
}

func BenchmarkHotpath(b *testing.B) {
	RunHotpathBench(b)
}
