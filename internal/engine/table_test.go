package engine

import (
	"math/rand"
	"net/netip"
	"testing"

	"pccproteus/internal/overload"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// newTestShard builds a shard on an in-memory port the test steps by
// hand: dispatch, the flow table, and the wheel all work; what the shard
// stages sits in txq until a flush writes it to nowhere.
func newTestShard(t *testing.T, cfg Config) *shard {
	t.Helper()
	eng := &Engine{cfg: cfg.withDefaults(), done: make(chan struct{}), started: true}
	sh := newShard(eng, 0)
	sh.attach(newMemPort(sh, wire.NewClock()), netip.AddrPort{})
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

// peer is port on the host 10.0.0.<host>: peers that differ only in host
// share a table key.
func peer(host byte, port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, host}), port)
}

// v1Pkt is a version-1 data packet: no flow ID on the wire, ID 0 in the table.
func v1Pkt(seq int64) []byte {
	return wire.EncodeData(make([]byte, 2048), wire.DataHeader{Seq: seq, SentAt: 1}, 100)
}

func TestFlowTableCreatesPerKey(t *testing.T) {
	sh := newTestShard(t, Config{})
	sh.dispatch(src(1000), dataPkt(t, 7, 0, 100), 0)
	sh.dispatch(src(1000), dataPkt(t, 8, 0, 100), 0)
	sh.dispatch(src(1001), dataPkt(t, 7, 0, 100), 0)
	if sh.nFlows.Load() != 3 {
		t.Fatalf("flows=%d want 3 (keying must be (addr, flowID))", sh.nFlows.Load())
	}
	// Same key again: no new flow, the packet is a duplicate.
	sh.dispatch(src(1000), dataPkt(t, 7, 0, 100), 0)
	if sh.nFlows.Load() != 3 {
		t.Fatalf("flows=%d want 3", sh.nFlows.Load())
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
	if sh.nFlows.Load() != 1 {
		t.Fatalf("flows=%d want 1 after idle sweep", sh.nFlows.Load())
	}
	if sh.lookup(src(1001), 2) == nil {
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
	old := sh.lookup(src(1000), 9)
	if old == nil || old.rcv.Cum != 10 {
		t.Fatalf("old flow cum=%v", old)
	}
	sh.dispatch(src(2000), dataPkt(t, 9, 0, 100), 0)
	nf := sh.lookup(src(2000), 9)
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
	for seq := int64(0); seq < 20; seq++ {
		sh.dispatch(src(1000), dataPkt(t, 5, seq, 100), 0)
	}
	f := sh.lookup(src(1000), 5)
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
	f2 := sh2.lookup(src(1000), 6)
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
	if sh.nFlows.Load() != 4 {
		t.Fatalf("flows=%d want 4 (cap not enforced)", sh.nFlows.Load())
	}
	if e := sh.ctr.evicted.Load(); e != 4 {
		t.Fatalf("evicted=%d want 4", e)
	}
	// Survivors are the most recently active keys.
	for i := 4; i < 8; i++ {
		if sh.lookup(src(uint16(1000+i)), uint32(i+1)) == nil {
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
	if sh.nFlows.Load() != 4 || sh.ctr.evicted.Load() != 0 {
		t.Fatalf("setup: flows=%d evicted=%d", sh.nFlows.Load(), sh.ctr.evicted.Load())
	}

	// Restart collision on the stalest key, at the cap, at a late time.
	sh.dispatch(src(1000), dataPkt(t, 1, 0, 100), 10)
	if got := sh.ctr.rebinds.Load(); got != 1 {
		t.Fatalf("rebinds=%d want 1", got)
	}
	if e := sh.ctr.evicted.Load(); e != 0 {
		t.Fatalf("rebind at cap evicted %d flows, want 0", e)
	}
	if sh.nFlows.Load() != 4 {
		t.Fatalf("flows=%d want 4 (rebind must reuse the entry)", sh.nFlows.Load())
	}
	f := sh.lookup(src(1000), 1)
	if f == nil || f.rcv.Cum != 1 {
		t.Fatalf("rebound flow not reset: %+v", f)
	}

	// A genuinely new 5th key now evicts the stalest flow — which is no
	// longer the rebound one (its lastSeen moved to the rebind time).
	sh.dispatch(src(2000), dataPkt(t, 50, 0, 100), 11)
	if e := sh.ctr.evicted.Load(); e != 1 {
		t.Fatalf("evicted=%d want 1", e)
	}
	if sh.lookup(src(1000), 1) == nil {
		t.Fatal("freshly-rebound flow was evicted instead of the stalest")
	}
	if sh.lookup(src(1001), 2) != nil {
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
	if sh.nFlows.Load() != 0 {
		t.Fatal("stray ack must not create a flow")
	}
}

// What hashing the whole (address, ID) pair used to give for free: peers
// that share a flow ID and a port are still distinct flows, and taking
// any one out of their chain leaves the others where they were.
func TestFlowTableSameKeyOtherHost(t *testing.T) {
	for victim := byte(1); victim <= 3; victim++ {
		sh := newTestShard(t, Config{})
		for host := byte(1); host <= 3; host++ {
			if tableKey(peer(host, 1000), 7) != tableKey(peer(1, 1000), 7) {
				t.Fatal("hosts were meant to share a key")
			}
			for seq := int64(0); seq < int64(host); seq++ {
				sh.dispatch(peer(host, 1000), dataPkt(t, 7, seq, 100), 0)
			}
		}
		if sh.nFlows.Load() != 3 || sh.eng.Stats().Flows != 3 {
			t.Fatalf("flows=%d gauge=%d want 3", sh.nFlows.Load(), sh.eng.Stats().Flows)
		}
		sh.dropFlow(sh.lookup(peer(victim, 1000), 7))
		for host := byte(1); host <= 3; host++ {
			f := sh.lookup(peer(host, 1000), 7)
			if host == victim {
				if f != nil {
					t.Fatalf("dropped host %d still reachable", host)
				}
				continue
			}
			if f == nil || f.addr != peer(host, 1000) || f.rcv.Cum != int64(host) {
				t.Fatalf("dropping host %d: host %d resolves to %+v", victim, host, f)
			}
		}
		if sh.nFlows.Load() != 2 || sh.eng.Stats().Flows != 2 {
			t.Fatalf("flows=%d gauge=%d want 2", sh.nFlows.Load(), sh.eng.Stats().Flows)
		}
		// The dropped peer comes back as a new flow, not as a neighbour.
		sh.dispatch(peer(victim, 1000), dataPkt(t, 7, 0, 100), 1)
		if f := sh.lookup(peer(victim, 1000), 7); f == nil || f.rcv.Cum != 1 || sh.nFlows.Load() != 3 || sh.ctr.rxDups.Load() != 0 {
			t.Fatalf("re-admission: %+v flows=%d dups=%d", f, sh.nFlows.Load(), sh.ctr.rxDups.Load())
		}
	}
}

// Version-1 data carries no flow ID: the source address alone tells
// flows apart, across ports and across hosts, and each is acked in kind.
func TestFlowTableVersion1KeyedBySource(t *testing.T) {
	sh := newTestShard(t, Config{})
	srcs := []netip.AddrPort{peer(1, 1000), peer(1, 1001), peer(2, 1000)}
	for i, a := range srcs {
		for seq := int64(0); seq <= int64(i); seq++ {
			sh.dispatch(a, v1Pkt(seq), 0)
		}
	}
	if sh.nFlows.Load() != 3 {
		t.Fatalf("flows=%d want one per source address", sh.nFlows.Load())
	}
	for i, a := range srcs {
		if f := sh.lookup(a, 0); f == nil || f.rcv.Cum != int64(i+1) {
			t.Fatalf("source %v: %+v", a, f)
		}
	}
	var ack wire.AckPacket
	for i, p := range sh.txq {
		if err := wire.DecodeAck(p, &ack); err != nil || ack.Flow != 0 || len(p) > wire.MaxAckLen-4 {
			t.Fatalf("ack %d to %v: flow=%d len=%d err=%v, want a version-1 ack", i, sh.txAddrs[i], ack.Flow, len(p), err)
		}
	}
}

// However a receiver flow leaves the table — evicted at the cap, swept
// idle, wiped by Reset — the next packet that names it must not find it,
// although it was the last flow looked up: the peer is re-admitted with
// fresh state. (TestCompletedSenderReclaimed is the sender's half.)
func TestFlowTableDroppedFlowIsNeverServed(t *testing.T) {
	a, b := src(1000), src(1001)
	leave := map[string]func(sh *shard){
		"evicted at the cap": func(sh *shard) { sh.dispatch(b, dataPkt(t, 2, 0, 100), 1) },
		"swept idle":         func(sh *shard) { sh.sweep(100) },
		"engine reset":       func(sh *shard) { sh.resetReq = true; sh.admit() },
	}
	for name, drop := range leave {
		sh := newTestShard(t, Config{MaxFlowsPerShard: 1, IdleTimeout: 5})
		for seq := int64(0); seq < 10; seq++ {
			sh.dispatch(a, dataPkt(t, 1, seq, 100), 0) // the last flow looked up
		}
		old := sh.lookup(a, 1)
		drop(sh)
		if f := sh.lookup(a, 1); f != nil {
			t.Fatalf("%s: flow still reachable", name)
		}
		sh.dispatch(a, dataPkt(t, 1, 10, 100), 101)
		f := sh.lookup(a, 1)
		if f == nil || f == old || f.rcv.Cum != 0 || f.rcv.pkts != 1 || old.rcv.pkts != 10 || sh.nFlows.Load() != 1 {
			t.Fatalf("%s: packet after the drop served by %+v (old %+v), flows=%d", name, f, old, sh.nFlows.Load())
		}
	}

}

// A SEGMENT for a fetch that AddFetch has queued and the loop has not
// taken in is a stray — also while a flow that shares its table key (same
// ID and port, another host) is in the table.
func TestFlowTableQueuedFetchSegmentIsStray(t *testing.T) {
	sh := newTestShard(t, Config{})
	core := newScriptCore(4, rigResp, 1e6)
	if _, err := sh.eng.AddFetch(peer(1, 9000), rigObj, core, rigResp, overload.ClassPrimary); err != nil {
		t.Fatal(err)
	}
	queued := sh.admitQ[0]
	sh.dispatch(peer(2, 9000), dataPkt(t, queued.id, 0, 100), 0) // same key, in the table
	if tableKey(queued.addr, queued.id) != tableKey(peer(2, 9000), queued.id) || sh.nFlows.Load() != 1 {
		t.Fatalf("setup: flows=%d", sh.nFlows.Load())
	}
	seg := wire.EncodeSegment(make([]byte, 256), wire.SegmentHeader{ObjID: rigObj, TotalSegs: 4, ObjSize: 400}, make([]byte, 100))
	sh.dispatch(peer(1, 9000), seg, 0)
	if sh.ctr.straySegs.Load() != 1 || len(core.order) != 0 {
		t.Fatalf("segment for a queued fetch: straySegs=%d delivered=%v", sh.ctr.straySegs.Load(), core.order)
	}
	sh.admit()
	sh.dispatch(peer(1, 9000), seg, 0)
	if sh.ctr.straySegs.Load() != 1 || len(core.order) != 1 || sh.nFlows.Load() != 2 {
		t.Fatalf("segment after admission: straySegs=%d delivered=%v flows=%d", sh.ctr.straySegs.Load(), core.order, sh.nFlows.Load())
	}
}

// The count the gauge and the overload detector read is the number of
// flows a lookup can reach, whatever order flows come and go in and
// however they chain.
func TestFlowTableCountMatchesReachable(t *testing.T) {
	const maxFlows = 1024
	sh := newTestShard(t, Config{MaxFlowsPerShard: maxFlows})
	type ident struct {
		addr netip.AddrPort
		id   uint32
	}
	var idents []ident
	for host := byte(1); host <= 4; host++ {
		for port := uint16(1000); port < 1008; port++ {
			for id := uint32(0); id < 6; id++ {
				idents = append(idents, ident{peer(host, port), id})
			}
		}
	}
	in := map[ident]*flow{}
	rng := rand.New(rand.NewSource(22))
	for op := 0; op < 10000; op++ {
		k := idents[rng.Intn(len(idents))]
		if f := in[k]; f != nil {
			sh.dropFlow(f)
			delete(in, k)
		} else if k.id == 0 {
			sh.dispatch(k.addr, v1Pkt(0), 0)
			in[k] = sh.lookup(k.addr, 0)
		} else if rng.Intn(4) == 0 { // a local sender towards that peer
			in[k] = &flow{addr: k.addr, id: k.id, snd: newSenderFlow(FlowConfig{CC: &FixedRateCC{Rate: 1}, Burst: 1, PacketSize: 400})}
			sh.eng.senders.Add(1)
			sh.insert(in[k])
		} else {
			sh.dispatch(k.addr, dataPkt(t, k.id, 0, 100), 0)
			in[k] = sh.lookup(k.addr, k.id)
		}
		if op%100 != 99 {
			continue
		}
		reachable, visited := 0, 0
		for _, k := range idents {
			f := sh.lookup(k.addr, k.id)
			if f != in[k] {
				t.Fatalf("op %d: %v/%d resolves to %p, want %p", op, k.addr, k.id, f, in[k])
			}
			if f != nil {
				reachable++
			}
		}
		sh.eachFlow(func(*flow) { visited++ })
		sh.updateOverload(float64(op))
		if int(sh.nFlows.Load()) != reachable || visited != reachable || sh.eng.Stats().Flows != reachable ||
			sh.pressureMirror() != float64(reachable)/maxFlows {
			t.Fatalf("op %d: %d reachable, count %d, visited %d, Stats().Flows %d, occupancy %v",
				op, reachable, sh.nFlows.Load(), visited, sh.eng.Stats().Flows, sh.pressureMirror()*maxFlows)
		}
	}
}

func TestHotpathZeroAllocs(t *testing.T) {
	h := newHotpathHarness(400)
	// Warm: the record ring, SACK capacity, tx staging, and every wheel
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

// One flow never shows what arming costs a shard with many: every one of
// the wheel's 512 slot slices grows by append until it has held the
// busiest pass it will see. A thousand flows in step reach that within
// three rotations (≈ 11 MiB in the first, 1.4 MiB in each of the next
// two, over both shards), and from there arming — like the rest of the
// path — allocates nothing.
func TestHotpathZeroAllocsManyFlows(t *testing.T) {
	h := newHotpathHarness(400)
	for id := uint32(2); id <= 1000; id++ {
		f := &flow{addr: h.rcvAddr, id: id, snd: newSenderFlow(FlowConfig{
			CC: &FixedRateCC{Rate: 1e12, Win: ackEvery * 400}, Burst: transport.DefaultBurst, PacketSize: 400,
		})}
		h.sndShard.insert(f)
		h.sndShard.service(f, 0)
	}
	for i := 0; i < 4*wheelSlots/2; i++ { // four rotations at two slots a step
		h.step()
	}
	if h.f.snd.ackedPkts.Load() == 0 {
		t.Fatal("harness not cycling packets")
	}
	if allocs := testing.AllocsPerRun(100, func() { h.step() }); allocs != 0 {
		t.Fatalf("per-packet hot path allocates %.2f per 1000-flow step, want 0", allocs)
	}
}

func BenchmarkHotpath(b *testing.B) {
	RunHotpathBench(b)
}
