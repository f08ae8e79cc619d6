package engine

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"pccproteus/internal/wire"
)

// newTestShard builds a shard on an in-memory port the test steps by
// hand: dispatch, the flow table, and the wheel all work; what the shard
// stages sits in txq until a flush writes it to nowhere. Its clock is
// newHandShard's virtual one, standing at 0: the tests pass the time to
// each call, and nothing reads the host's clock.
func newTestShard(t *testing.T, cfg Config) *shard {
	t.Helper()
	eng, _ := newHandShard(cfg, new(float64), nil) // AddFlow / AddFetch land here; sh.admit() takes them in
	return eng.shards[0]
}

func dataPkt(t *testing.T, flowID uint32, seq int64, size int) []byte {
	t.Helper()
	buf := make([]byte, 2048)
	return wire.EncodeData(buf, wire.DataHeader{Seq: seq, SentAt: 1, Flow: flowID}, size)
}

func src(port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), port)
}

// peer is port on the host 10.0.0.<host>: peers that differ only in host
// share a table key.
func peer(host byte, port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, host}), port)
}

func TestFlowTableCreatesPerKey(t *testing.T) {
	sh := newTestShard(t, Config{})
	sh.dispatch(src(1000), dataPkt(t, 7, 0, 100), 0)
	sh.dispatch(src(1000), dataPkt(t, 8, 0, 100), 0)
	sh.dispatch(src(1001), dataPkt(t, 7, 0, 100), 0)
	if sh.st.Flows != 3 {
		t.Fatalf("flows=%d want 3 (keying must be (addr, flowID))", sh.st.Flows)
	}
	// Same key again: no new flow, the packet is a duplicate.
	sh.dispatch(src(1000), dataPkt(t, 7, 0, 100), 0)
	if sh.st.Flows != 3 {
		t.Fatalf("flows=%d want 3", sh.st.Flows)
	}
	if d := sh.st.RxDups; d != 1 {
		t.Fatalf("dups=%d want 1", d)
	}
}

func TestFlowTableIdleEviction(t *testing.T) {
	sh := newTestShard(t, Config{IdleTimeout: 5})
	sh.dispatch(src(1000), dataPkt(t, 1, 0, 100), 0)
	sh.dispatch(src(1001), dataPkt(t, 2, 0, 100), 3)
	sh.sweep(7) // flow 1 idle 7s > 5, flow 2 idle 4s
	if sh.st.Flows != 1 {
		t.Fatalf("flows=%d want 1 after idle sweep", sh.st.Flows)
	}
	if sh.lookup(src(1001), 2) == nil {
		t.Fatal("wrong flow evicted")
	}
	if e := sh.st.Evicted; e != 1 {
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
	if got := sh.st.Rebinds; got != 1 {
		t.Fatalf("rebinds=%d want 1", got)
	}
	if f.rcv.Cum != 1 {
		t.Fatalf("tracker not reset: cum=%d want 1", f.rcv.Cum)
	}
	// The dup counter must not have exploded: the restart's packets
	// are new data, not duplicates.
	if d := sh.st.RxDups; d != 0 {
		t.Fatalf("restart counted as dups: %d", d)
	}
	// But a genuinely duplicated early packet of a young flow (cum
	// below the floor) must NOT reset state.
	sh2 := newTestShard(t, Config{})
	sh2.dispatch(src(1000), dataPkt(t, 6, 0, 100), 0)
	sh2.dispatch(src(1000), dataPkt(t, 6, 1, 100), 0)
	sh2.dispatch(src(1000), dataPkt(t, 6, 0, 100), 0) // network dup
	f2 := sh2.lookup(src(1000), 6)
	if f2.rcv.Cum != 2 || sh2.st.Rebinds != 0 {
		t.Fatalf("young-flow dup treated as restart: cum=%d rebinds=%d",
			f2.rcv.Cum, sh2.st.Rebinds)
	}
}

func TestFlowTableCapEvictsStalestReceiver(t *testing.T) {
	sh := newTestShard(t, Config{MaxFlowsPerShard: 4})
	for i := 0; i < 8; i++ {
		sh.dispatch(src(uint16(1000+i)), dataPkt(t, uint32(i+1), 0, 100), float64(i))
	}
	if sh.st.Flows != 4 {
		t.Fatalf("flows=%d want 4 (cap not enforced)", sh.st.Flows)
	}
	if e := sh.st.Evicted; e != 4 {
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
	if sh.st.Flows != 4 || sh.st.Evicted != 0 {
		t.Fatalf("setup: flows=%d evicted=%d", sh.st.Flows, sh.st.Evicted)
	}

	// Restart collision on the stalest key, at the cap, at a late time.
	sh.dispatch(src(1000), dataPkt(t, 1, 0, 100), 10)
	if got := sh.st.Rebinds; got != 1 {
		t.Fatalf("rebinds=%d want 1", got)
	}
	if e := sh.st.Evicted; e != 0 {
		t.Fatalf("rebind at cap evicted %d flows, want 0", e)
	}
	if sh.st.Flows != 4 {
		t.Fatalf("flows=%d want 4 (rebind must reuse the entry)", sh.st.Flows)
	}
	f := sh.lookup(src(1000), 1)
	if f == nil || f.rcv.Cum != 1 {
		t.Fatalf("rebound flow not reset: %+v", f)
	}

	// A genuinely new 5th key now evicts the stalest flow — which is no
	// longer the rebound one (its lastSeen moved to the rebind time).
	sh.dispatch(src(2000), dataPkt(t, 50, 0, 100), 11)
	if e := sh.st.Evicted; e != 1 {
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
	sh.dispatch(src(1000), ack.Encode(buf[:]), 0)
	if got := sh.st.BadAcks; got != 1 {
		t.Fatalf("badAcks=%d want 1", got)
	}
	if sh.st.Flows != 0 {
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
		sh.publish() // as pass does
		if sh.st.Flows != 3 || sh.eng.Stats().Flows != 3 {
			t.Fatalf("flows=%d gauge=%d want 3", sh.st.Flows, sh.eng.Stats().Flows)
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
		sh.publish()
		if sh.st.Flows != 2 || sh.eng.Stats().Flows != 2 {
			t.Fatalf("flows=%d gauge=%d want 2", sh.st.Flows, sh.eng.Stats().Flows)
		}
		// The dropped peer comes back as a new flow, not as a neighbour.
		sh.dispatch(peer(victim, 1000), dataPkt(t, 7, 0, 100), 1)
		if f := sh.lookup(peer(victim, 1000), 7); f == nil || f.rcv.Cum != 1 || sh.st.Flows != 3 || sh.st.RxDups != 0 {
			t.Fatalf("re-admission: %+v flows=%d dups=%d", f, sh.st.Flows, sh.st.RxDups)
		}
	}
}

// A version-1 data frame (no flow ID) and a type-0x41 ack are not frames
// of this protocol: each is a bad packet, and neither creates a flow.
func TestFlowTableVersion1FramesAreBad(t *testing.T) {
	sh := newTestShard(t, Config{})
	v1Data := append([]byte{0x50, 0x01}, make([]byte, 98)...)
	v1Ack := append([]byte{0x41, 0x00}, make([]byte, 32)...)
	for i, p := range [][]byte{v1Data, v1Ack} {
		sh.dispatch(src(1000), p, 0)
		if got := sh.st.BadPkts; got != int64(i+1) {
			t.Fatalf("frame %d: BadPkts=%d want %d", i, got, i+1)
		}
	}
	if sh.st.Flows != 0 || len(sh.txq) != 0 {
		t.Fatalf("flows=%d staged=%d, want no flow and no reply", sh.st.Flows, len(sh.txq))
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
		if f == nil || f == old || f.rcv.Cum != 0 || len(f.rcv.Ranges) != 1 || f.rcv.Ranges[0] != (wire.SackBlock{Start: 10, End: 11}) ||
			old.rcv.Cum != 10 || sh.st.Flows != 1 {
			t.Fatalf("%s: packet after the drop served by %+v (old %+v), flows=%d", name, f, old, sh.st.Flows)
		}
	}

}

// A SEGMENT for a fetch that AddFetch has queued and the loop has not
// taken in is a stray — also while a flow that shares its table key (same
// ID and port, another host) is in the table.
func TestFlowTableQueuedFetchSegmentIsStray(t *testing.T) {
	sh := newTestShard(t, Config{})
	ff, err := sh.eng.AddFetch(peer(1, 9000), FetchConfig{ObjID: rigObj, CC: &countingCC{rate: 1e6, cwnd: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	queued := sh.admitQ[0]
	sh.dispatch(peer(2, 9000), dataPkt(t, queued.id, 0, 100), 0) // same key, in the table
	if tableKey(queued.addr, queued.id) != tableKey(peer(2, 9000), queued.id) || sh.st.Flows != 1 {
		t.Fatalf("setup: flows=%d", sh.st.Flows)
	}
	seg := wire.EncodeSegment(make([]byte, 256), wire.SegmentHeader{ObjID: rigObj, TotalSegs: 4, ObjSize: 400}, make([]byte, 100))
	sh.dispatch(peer(1, 9000), seg, 0)
	if sh.st.StraySegs != 1 || ff.segsRx != 0 {
		t.Fatalf("segment for a queued fetch: straySegs=%d delivered=%d", sh.st.StraySegs, ff.segsRx)
	}
	sh.admit()
	sh.dispatch(peer(1, 9000), seg, 0)
	if sh.st.StraySegs != 1 || ff.segsRx != 1 || sh.st.Flows != 2 {
		t.Fatalf("segment after admission: straySegs=%d delivered=%d flows=%d", sh.st.StraySegs, ff.segsRx, sh.st.Flows)
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
		} else if rng.Intn(4) == 0 { // a local sender towards that peer
			s := newSenderFlow(FlowConfig{CC: &FixedRateCC{Rate: 1}, PacketSize: 400})
			s.origin = newOrigin(1, 400, s.cc, s.onLost) // one-packet trains
			in[k] = &flow{addr: k.addr, id: k.id, snd: s}
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
		sh.publish()
		if sh.st.Flows != reachable || visited != reachable || sh.eng.Stats().Flows != reachable ||
			sh.st.Pressure != float64(reachable)/maxFlows {
			t.Fatalf("op %d: %d reachable, count %d, visited %d, Stats().Flows %d, occupancy %v",
				op, reachable, sh.st.Flows, visited, sh.eng.Stats().Flows, sh.st.Pressure*maxFlows)
		}
	}
}

// The bucket array against a map: random inserts, lookups and drops over
// identities that collide on purpose — one ID from several hosts and
// ports, one port and ID from another IP — while the table doubles many
// times over, and drops from inside eachFlow.
func TestFlowTableMatchesReference(t *testing.T) {
	type ident struct {
		addr netip.AddrPort
		id   uint32
	}
	sh := newTestShard(t, Config{})
	ref := map[ident]*flow{}
	rng := rand.New(rand.NewSource(32))
	pick := func() ident {
		return ident{peer(byte(1+rng.Intn(3)), uint16(1000+rng.Intn(2))), uint32(rng.Intn(800))}
	}
	check := func(step string) {
		t.Helper()
		for k, f := range ref {
			if got := sh.lookup(k.addr, k.id); got != f {
				t.Fatalf("%s: %v/%d resolves to %p, want %p", step, k.addr, k.id, got, f)
			}
		}
		for i := 0; i < 200; i++ {
			if k := pick(); sh.lookup(k.addr, k.id) != ref[k] {
				t.Fatalf("%s: %v/%d resolves to %p, want %p", step, k.addr, k.id, sh.lookup(k.addr, k.id), ref[k])
			}
		}
		seen := map[*flow]bool{}
		sh.eachFlow(func(f *flow) {
			if seen[f] || ref[ident{f.addr, f.id}] != f {
				t.Fatalf("%s: eachFlow visits %v/%d (again: %v)", step, f.addr, f.id, seen[f])
			}
			seen[f] = true
		})
		if len(seen) != len(ref) || sh.st.Flows != len(ref) {
			t.Fatalf("%s: eachFlow visits %d, count %d, want %d", step, len(seen), sh.st.Flows, len(ref))
		}
	}
	// Grow (inserts twice as likely as drops) to ≈ 2 000 flows: eight
	// doublings from the initial 8 buckets; then churn and shrink.
	buckets := len(sh.table)
	for phase, pInsert := range []float64{0.67, 0.5, 0.3} {
		for op := 0; op < 6000; op++ {
			k := pick()
			switch f := ref[k]; {
			case f == nil && rng.Float64() < pInsert:
				f = &flow{addr: k.addr, id: k.id, rcv: &recvFlow{highest: -1}}
				sh.insert(f)
				ref[k] = f
			case f != nil && rng.Float64() >= pInsert:
				sh.dropFlow(f)
				delete(ref, k)
			}
			if op%500 == 499 {
				check(fmt.Sprintf("phase %d op %d", phase, op))
			}
		}
		if phase == 0 && len(sh.table) < buckets<<3 {
			t.Fatalf("%d flows in %d buckets: fewer than three doublings from %d", len(ref), len(sh.table), buckets)
		}
		// Drop about half the table from inside the walk.
		sh.eachFlow(func(f *flow) {
			if rng.Intn(2) == 0 {
				sh.dropFlow(f)
				delete(ref, ident{f.addr, f.id})
			}
		})
		check(fmt.Sprintf("phase %d walk", phase))
	}
}

// A peer that knows fixed multipliers can pick flow IDs that all land in
// one bucket — one chain of every flow, walked per packet. The shard's
// multipliers are its own, so the same IDs spread.
func TestFlowTableSpreadsAdversarialIDs(t *testing.T) {
	// n is the default cap; the table doubles to 32 768 buckets at it.
	// fixed is two well-known constants.
	const n = 1 << 14
	fixed := [2]uint64{0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9}
	// IDs whose hash under fixed has its top 15 bits zero: bucket 0 of
	// any table up to 32 768 buckets. One ID in 32 768 qualifies.
	var ids []uint32
	from := src(9000)
	for id := uint32(0); len(ids) < n; id++ {
		if tableHash(tableKey(from, id), fixed)>>49 == 0 {
			ids = append(ids, id)
		}
	}
	longest := func(mul *[2]uint64) (int, int) {
		sh := newTestShard(t, Config{})
		if mul != nil {
			sh.tabMul = *mul
		}
		for _, id := range ids {
			sh.insert(&flow{addr: from, id: id, rcv: &recvFlow{highest: -1}})
		}
		most := 0
		for _, f := range sh.table {
			l := 0
			for ; f != nil; f = f.next {
				l++
			}
			most = max(most, l)
		}
		return most, len(sh.table)
	}
	if l, _ := longest(&fixed); l != n {
		t.Fatalf("under the fixed multipliers the longest chain is %d, want all %d flows", l, n)
	}
	if l, buckets := longest(nil); l > 8 {
		t.Fatalf("under the shard's multipliers the longest chain is %d of %d flows in %d buckets, want ≤ 8", l, n, buckets)
	}
}

func TestHotpathZeroAllocs(t *testing.T) {
	h := newHotpathHarness(400)
	// Warm: the record ring, SACK capacity and tx staging.
	for i := 0; i < 600; i++ {
		h.step()
	}
	if h.f.snd.st.AckedPkts == 0 {
		t.Fatal("harness not cycling packets")
	}
	allocs := testing.AllocsPerRun(500, func() { h.step() })
	if allocs != 0 {
		t.Fatalf("per-packet hot path allocates %.2f/op, want 0", allocs)
	}
}

// One flow never shows what arming costs a shard with many: a thousand
// flows re-armed into slots none of them has been in before. Sixteen
// steps warm the record rings and the SACK scratch; the wheel needs no
// warm-up, and the measured steps reach fresh slots.
func TestHotpathZeroAllocsManyFlows(t *testing.T) {
	h := newHotpathHarness(400)
	for id := uint32(2); id <= 1000; id++ {
		f := &flow{addr: h.rcvAddr, id: id, snd: newSenderFlow(FlowConfig{
			CC: &FixedRateCC{Rate: 1e12, Win: ackEvery * 400}, PacketSize: 400,
		})}
		h.sndShard.insert(f)
		h.sndShard.service(f, 0)
	}
	for i := 0; i < 16; i++ {
		h.step()
	}
	if h.f.snd.st.AckedPkts == 0 {
		t.Fatal("harness not cycling packets")
	}
	if allocs := testing.AllocsPerRun(100, func() { h.step() }); allocs != 0 {
		t.Fatalf("per-packet hot path allocates %.2f per 1000-flow step, want 0", allocs)
	}
}

// BenchmarkFlowTableLookup is one warm lookup among 1 000 flows of one
// peer, in random order.
func BenchmarkFlowTableLookup(b *testing.B) {
	sh := newShard(&Engine{cfg: Config{}.withDefaults()}, 0)
	from := src(9000)
	for id := uint32(1); id <= 1000; id++ {
		sh.insert(&flow{addr: from, id: id, rcv: &recvFlow{highest: -1}})
	}
	rng := rand.New(rand.NewSource(1))
	ids := make([]uint32, 4096)
	for i := range ids {
		ids[i] = uint32(1 + rng.Intn(1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sh.lookup(from, ids[i%len(ids)]) == nil {
			b.Fatal("flow missing")
		}
	}
}

func BenchmarkHotpath(b *testing.B) {
	RunHotpathBench(b)
}
