package engine

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"net/netip"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pccproteus/internal/overload"
	"pccproteus/internal/wire"
)

// maxLoopSleep bounds how long a shard blocks in the socket read when
// the wheel is idle, so admissions, shutdown, and the idle sweep are
// observed promptly.
const maxLoopSleep = time.Millisecond

// pacerDepth is how much pacing time a flow's token bucket holds. It
// must cover how late the loop can be for a train, or what accrued
// meanwhile spills and the flow runs below the rate its controller
// chose. The loop's wake quantum is not what it asks for: on an idle
// process the runtime turns any read deadline up to maxLoopSleep away
// into a wake ≈ 1.1 ms later (1.5–1.7 ms at the 90th percentile) —
// parkExcess is what that adds to maxLoopSleep — and the wheel fires an
// entry up to two slots past its deadline.
const (
	parkExcess = 0.5e-3
	pacerDepth = float64(maxLoopSleep)/float64(time.Second) + parkExcess + 2*wheelGran
)

// shardCounters is the shard's atomic stats surface; everything else
// in shard is owned by the loop goroutine.
type shardCounters struct {
	rxPkts         atomic.Int64 // valid datagrams dispatched
	rxBatches      atomic.Int64 // socket read syscalls that returned data
	rxDups         atomic.Int64
	txPkts         atomic.Int64
	txBatches      atomic.Int64 // socket write flushes
	bad            atomic.Int64 // datagrams the codecs rejected
	badAcks        atomic.Int64 // acks with no matching sender flow
	straySegs      atomic.Int64 // segment responses with no matching fetch flow
	evicted        atomic.Int64
	rebinds        atomic.Int64 // reused (addr,flowID) collisions reset
	delivered      atomic.Int64 // distinct data packets received
	deliveredBytes atomic.Int64
	fetchReqs      atomic.Int64 // fetch requests handed to Config.OnFetch
	segsTx         atomic.Int64 // segment responses queued

	// Overload surface (see engine.Stats for field meanings).
	rejectScav atomic.Int64 // remote scavenger admissions refused (BUSY)
	shedPrim   atomic.Int64 // primary recv flows evicted at the cap
	shedScav   atomic.Int64 // scavenger flows paused/evicted/shed
	busyTx     atomic.Int64
	busyRx     atomic.Int64
	txSoftErrs atomic.Int64 // ENOBUFS/ENOMEM-class tx flush errors
	paused     atomic.Int64 // local scavenger senders currently paused
}

// port is a shard's one seam to the world outside it: the clock it
// reads and the datagrams it moves. udpPort (udp.go, batch_*.go) is a
// UDP socket under a goroutine that loops on pass(); memPort (memport.go)
// is an in-memory endpoint whose owner — a SimNet's simulator, a harness
// stepping by hand — calls pass() itself. The seam is crossed once per
// pass, never per packet.
type port interface {
	clock() wire.Clock
	// run starts whatever calls the shard's pass(); close ends it and
	// makes readBatch report the port closed.
	run()
	close()
	// readBatch stages up to len(rxBufs) datagrams in the shard's rx
	// staging, blocking until one is there, wait has passed, or wake is
	// called. It returns the count, 0 with nothing to read, -1 once closed.
	readBatch(wait time.Duration) int
	// writeBatch sends every packet; the bytes are the shard's tx arena
	// and are the port's only until it returns.
	writeBatch(pkts [][]byte, addrs []netip.AddrPort)
	// wake, the one method other goroutines call, ends a blocked readBatch.
	wake()
}

// shard is one event loop: one port, one flow table, one pacing wheel,
// one caller of pass(). Flows never move between shards, so no flow
// state is ever locked — only the admission queue and the atomic
// counters cross goroutines.
type shard struct {
	eng   *Engine
	idx   int
	port  port
	clock wire.Clock // port.clock()
	local netip.AddrPort

	// The flow table (see tableKey): flows that share a key chain through
	// flow.next, and nFlows counts flows, not keys (loop-written; Stats
	// reads it).
	flows  map[uint64]*flow
	nFlows atomic.Int64
	wh     wheel

	maxPacket int
	batchSize int
	maxFlows  int
	idleTO    float64

	// rx staging, filled by the port's readBatch. rxSegs[i], when nonzero,
	// is the GRO segment size of a kernel-coalesced buffer that dispatch
	// slices back into datagrams; only the batched socket path sets it.
	rxBufs [][]byte
	rxLens []int
	rxSrcs []netip.AddrPort
	rxSegs []int

	// tx staging: flows encode their packets back to back into txArena
	// (batchSize × maxPacket bytes, txOff the write offset) and queue them
	// for one batched write. A flush rewinds the arena, so nothing is
	// recycled or allocated, and consecutive packets to one destination
	// are one contiguous run of memory — one iovec of a GSO send.
	txq     [][]byte
	txAddrs []netip.AddrPort
	txArena []byte
	txOff   int

	ackScratch wire.AckPacket // encode scratch for receiver flows
	ackDecode  wire.AckPacket // decode scratch for sender dispatch

	admitMu  sync.Mutex
	admitQ   []*flow
	resetReq bool // Engine.Reset: drop every receiver flow on the next pass
	// admitWake mirrors "admitQ is non-empty" (written under admitMu) for
	// udpPort.parkRead, which must not park over a flow enqueue has just
	// queued.
	admitWake atomic.Bool
	// fetches (fetchKey → *flow) holds every fetch flow queued or in the
	// table: SEGMENTs select through it, AddFetch refuses duplicates by it.
	fetches sync.Map

	// fireFn is the wheel-fire callback, bound once so advance() runs
	// without a per-wake closure allocation; fireNow carries the wake
	// timestamp into it.
	fireNow float64
	fireFn  func(*flow)

	lastSweep float64
	ordered   []*flow // eachOrdered's scratch

	// Overload machinery: the brownout detector (loop-goroutine-owned)
	// plus atomic mirrors of its state/pressure for AddFlow and Stats.
	det        *overload.Detector
	ovState    atomic.Uint32
	ovWorst    atomic.Uint32 // worst severity ever entered (Shed dwells are brief)
	ovPressure atomic.Uint64 // math.Float64bits
	rng        *rand.Rand    // loop-owned jitter source
	// Pressure-signal inputs maintained by the I/O paths: consecutive
	// soft-error tx flushes, the unsent fraction of the last flush, and
	// an EWMA of reads that filled every rx slot.
	txErrStreak int
	txBacklog   float64
	rxFullEWMA  float64
	busyBudget  int // per-pass BUSY frame allowance (anti-amplification)

	ctr shardCounters
	// Loop-owned running totals of ctr's three per-packet counters
	// (rxPkts, delivered, deliveredBytes), stored once per pass by publish.
	nRxPkts, nDelivered, nDeliveredBytes int64
}

// newShard builds shard idx of eng, not yet on a port (attach).
func newShard(eng *Engine, idx int) *shard {
	cfg := eng.cfg
	sh := &shard{
		eng: eng, idx: idx,
		flows:     make(map[uint64]*flow),
		maxPacket: cfg.MaxPacket,
		batchSize: cfg.BatchSize,
		maxFlows:  cfg.MaxFlowsPerShard,
		idleTO:    cfg.IdleTimeout,
		rxBufs:    make([][]byte, cfg.BatchSize),
		rxLens:    make([]int, cfg.BatchSize),
		rxSrcs:    make([]netip.AddrPort, cfg.BatchSize),
		rxSegs:    make([]int, cfg.BatchSize),
		txq:       make([][]byte, 0, cfg.BatchSize),
		txAddrs:   make([]netip.AddrPort, 0, cfg.BatchSize),
		txArena:   make([]byte, cfg.BatchSize*cfg.MaxPacket),
		det:       overload.NewDetector(cfg.Overload),
		rng:       rand.New(rand.NewSource(wire.MixSeed(cfg.Seed, int64(idx)+0x0B5E))),
	}
	for i := range sh.rxBufs {
		sh.rxBufs[i] = make([]byte, cfg.MaxPacket)
	}
	sh.fireFn = func(f *flow) { sh.service(f, sh.fireNow) }
	return sh
}

// attach puts the shard on its port, reachable there as local.
func (sh *shard) attach(p port, local netip.AddrPort) {
	sh.port, sh.clock, sh.local = p, p.clock(), local
}

// loop is the event loop of a shard on a socket: pass until the engine
// stops.
func (sh *shard) loop() {
	defer sh.eng.wg.Done()
	// Any CPU profile splits by shard: go tool pprof -tagfocus shard:0
	// (shard=0 would be read as a numeric-label filter and match nothing).
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("engine", sh.local.String(), "shard", strconv.Itoa(sh.idx))))
	sh.wh.init(sh.clock.Now())
	for sh.pass() {
	}
}

// pass is one turn of the event loop: admit → fire due timers → flush
// tx → one batched read, blocking until the next deadline → dispatch →
// flush. It reports false once the engine is stopped or the port is
// closed.
func (sh *shard) pass() bool {
	select {
	case <-sh.eng.done:
		return false
	default:
	}
	sh.admit()
	now := sh.clock.Now()
	sh.fireNow = now
	sh.wh.advance(now, sh.fireFn)
	sh.sweep(now)
	sh.updateOverload(now)
	sh.flushTx()

	// A timer that is already due makes wait ≤ 0: readBatch then polls
	// the socket without blocking, so a shard that always finds a due
	// timer still drains its acks every pass.
	wait := maxLoopSleep
	if next := sh.wh.next(); !math.IsInf(next, 1) {
		wait = min(wait, time.Duration((next-sh.clock.Now())*float64(time.Second)))
	}
	n := sh.port.readBatch(wait)
	if n < 0 {
		return false // port closed
	}
	// Rx saturation EWMA: a read that fills every slot means the
	// shard is not keeping up with arrival; an idle or partial read
	// decays the signal, so pressure falls once load is removed.
	full := 0.0
	if n >= len(sh.rxBufs) {
		full = 1.0
	}
	sh.rxFullEWMA += (full - sh.rxFullEWMA) / 32
	if n == 0 {
		return true
	}
	sh.ctr.rxBatches.Add(1)
	now = sh.clock.Now()
	for i := 0; i < n; i++ {
		b := sh.rxBufs[i][:sh.rxLens[i]]
		if g := sh.rxSegs[i]; g > 0 && g < len(b) {
			// GRO-coalesced buffer: slice it back into the
			// original datagrams (the last may be shorter).
			for off := 0; off < len(b); off += g {
				sh.dispatch(sh.rxSrcs[i], b[off:min(off+g, len(b))], now)
			}
		} else {
			sh.dispatch(sh.rxSrcs[i], b, now)
		}
	}
	sh.publish()
	sh.flushTx()
	return true
}

// publish stores the loop-owned per-packet totals where Stats reads them.
func (sh *shard) publish() {
	sh.ctr.rxPkts.Store(sh.nRxPkts)
	sh.ctr.delivered.Store(sh.nDelivered)
	sh.ctr.deliveredBytes.Store(sh.nDeliveredBytes)
}

// tableKey is the wire flow ID over the peer's port: eight bytes every
// packet carries and the map hashes on its fast path. Peers that differ
// only in IP address collide; lookup tells them apart along the chain.
func tableKey(addr netip.AddrPort, id uint32) uint64 {
	return uint64(id)<<16 | uint64(addr.Port())
}

// lookup returns the flow (src, id) names, or nil.
func (sh *shard) lookup(src netip.AddrPort, id uint32) *flow {
	f := sh.flows[tableKey(src, id)]
	for f != nil && f.addr != src {
		f = f.next
	}
	return f
}

// insert puts a flow that is not in the table into it.
func (sh *shard) insert(f *flow) {
	k := tableKey(f.addr, f.id)
	f.next = sh.flows[k]
	sh.flows[k] = f
	sh.nFlows.Add(1)
}

// eachFlow visits every flow in the table; fn may drop the flow it is
// handed, and no other.
func (sh *shard) eachFlow(fn func(f *flow)) {
	for _, f := range sh.flows {
		for f != nil {
			next := f.next
			fn(f)
			f = next
		}
	}
}

// eachOrdered visits the flows keep selects in (flow ID, peer address)
// order, for the visits whose order reaches the wire — map order would
// make two runs of one schedule differ. fn may drop any flow.
func (sh *shard) eachOrdered(keep func(f *flow) bool, fn func(f *flow)) {
	sh.ordered = sh.ordered[:0]
	sh.eachFlow(func(f *flow) {
		if keep(f) {
			sh.ordered = append(sh.ordered, f)
		}
	})
	slices.SortFunc(sh.ordered, flowOrder)
	for i, f := range sh.ordered {
		sh.ordered[i] = nil
		fn(f)
	}
}

func flowOrder(a, b *flow) int {
	if c := cmp.Compare(a.id, b.id); c != 0 {
		return c
	}
	return a.addr.Compare(b.addr)
}

// dispatch routes one datagram through the flow table.
func (sh *shard) dispatch(src netip.AddrPort, b []byte, now float64) {
	switch wire.PacketType(b) {
	case 'P':
		h, err := wire.DecodeData(b)
		if err != nil {
			sh.ctr.bad.Add(1)
			return
		}
		f := sh.lookup(src, h.Flow)
		if f == nil {
			f = sh.newRecvFlow(src, h.Flow)
			if f == nil {
				return // scavenger admission refused (BUSY already sent)
			}
		}
		if f.rcv == nil {
			sh.ctr.bad.Add(1) // data aimed at one of our sender keys
			return
		}
		sh.nRxPkts++
		f.lastSeen = now
		f.rcv.onData(sh, f, h, len(b), now)
	case 'A':
		a := &sh.ackDecode
		if err := wire.DecodeAck(b, a); err != nil {
			sh.ctr.bad.Add(1)
			return
		}
		f := sh.lookup(src, a.Flow)
		if f == nil || f.snd == nil {
			sh.ctr.badAcks.Add(1)
			return
		}
		sh.nRxPkts++
		f.lastSeen = now
		f.snd.onAck(sh, f, a, now)
		// The ack may have freed window or completed a loss episode:
		// service immediately instead of waiting out the armed deadline.
		sh.service(f, now)
	case 'Y':
		bp, err := wire.DecodeBusy(b)
		if err != nil {
			sh.ctr.bad.Add(1)
			return
		}
		f := sh.lookup(src, bp.Flow)
		if f == nil || f.snd == nil {
			sh.ctr.badAcks.Add(1)
			return
		}
		sh.ctr.busyRx.Add(1)
		f.lastSeen = now
		f.snd.onBusy(sh, bp, now)
		sh.service(f, now) // re-arm against the new busy deadline
	case 'F':
		onFetch := sh.eng.cfg.OnFetch
		if onFetch == nil {
			sh.ctr.bad.Add(1)
			return
		}
		fh, err := wire.DecodeFetch(b)
		if err != nil {
			sh.ctr.bad.Add(1)
			return
		}
		sh.nRxPkts++
		sh.ctr.fetchReqs.Add(1)
		// Fetch serving is stateless: no flow-table entry, the response
		// is encoded straight into a tx buffer and rides the next batch.
		if pkt := onFetch(fh, sh.txBuf()); pkt != nil {
			sh.queueTx(pkt, src)
			sh.ctr.segsTx.Add(1)
		}
	case 'S':
		// A payload that fails its CRC still carries a well-formed header:
		// the damage is charged to the flow it names; silence is loss.
		h, payload, err := wire.DecodeSegment(b)
		if err != nil && err != wire.ErrChecksum {
			sh.ctr.bad.Add(1)
			return
		}
		v, _ := sh.fetches.Load(fetchKey{src, h.ObjID})
		f, _ := v.(*flow)
		if f == nil || sh.lookup(f.addr, f.id) != f { // none, or still queued
			sh.ctr.straySegs.Add(1) // typically a late duplicate of a completed fetch
			return
		}
		if err != nil {
			f.fch.crcErrs.Add(1)
			return
		}
		sh.nRxPkts++
		f.lastSeen = now
		if f.fch.onSegment(sh, h, payload, now) {
			sh.dropFlow(f) // complete: leave the table at once
		} else {
			sh.service(f, now) // the response may have freed window
		}
	default:
		sh.ctr.bad.Add(1)
	}
}

// service pumps a sender or fetch flow and re-arms its next deadline; a
// flow with nothing left to schedule — a finite sender fully acked with
// an empty book, a stopped fetch — leaves the table at once, its handle
// keeping the counters. The pushed last packet makes the completing ack
// the last one a healthy path sends, so nothing arrives for the dropped
// key. For a receiver flow service is the delayed-ack timer: flush
// whatever ack state coalescing has deferred.
func (sh *shard) service(f *flow, now float64) {
	var next float64
	switch {
	case f.snd != nil:
		next = f.snd.pump(sh, f, now)
	case f.fch != nil:
		next = f.fch.pump(sh, f, now)
	default:
		if f.rcv.unacked > 0 {
			f.rcv.emitAck(sh, f)
		}
		return
	}
	if next > 0 {
		sh.wh.arm(f, next)
	} else {
		sh.dropFlow(f)
	}
}

// newRecvFlow admits an unknown (addr, flowID) as a receiver flow,
// evicting the stalest receiver flow at the cap — sender flows are
// never evicted for table pressure. Admission and eviction are both
// class-aware: from Brownout on, new scavenger flows are refused with
// a BUSY frame (and nil is returned — no state is kept for them), and
// at the cap the stalest *scavenger* receiver is evicted before any
// primary is considered.
func (sh *shard) newRecvFlow(src netip.AddrPort, id uint32) *flow {
	if wire.ScavengerID(id) && !sh.det.State().AdmitScavenger() {
		sh.ctr.rejectScav.Add(1)
		sh.sendBusy(src, id, false)
		return nil
	}
	if int(sh.nFlows.Load()) >= sh.maxFlows {
		var old *flow
		oldScav := false
		sh.eachFlow(func(f *flow) {
			if f.rcv == nil {
				return
			}
			fs := wire.ScavengerID(f.id)
			// A scavenger victim always beats a primary one; within a
			// class, stalest wins, and of equally stale ones — the common
			// case once time is discrete — the first in flowOrder.
			if old != nil && (oldScav && !fs || oldScav == fs &&
				(f.lastSeen > old.lastSeen || f.lastSeen == old.lastSeen && flowOrder(f, old) > 0)) {
				return
			}
			old, oldScav = f, fs
		})
		if old != nil {
			old.rcv.emitFinalAck(sh, old)
			sh.dropFlow(old)
			sh.ctr.evicted.Add(1)
			if oldScav {
				sh.ctr.shedScav.Add(1)
				sh.sendBusy(old.addr, old.id, true)
			} else {
				sh.ctr.shedPrim.Add(1)
			}
		}
	}
	f := &flow{addr: src, id: id, rcv: &recvFlow{highest: -1}}
	sh.insert(f)
	return f
}

// sweep evicts idle flows, at most once per second. A finite sender
// leaves when it completes (service), so the senders reclaimed here are
// idle unlimited ones; receiver flows go on the idle deadline alone,
// with a final ack; fetch flows never.
func (sh *shard) sweep(now float64) {
	if now-sh.lastSweep < 1 {
		return
	}
	sh.lastSweep = now
	sh.eachOrdered(func(f *flow) bool {
		// A stalled fetch or finite sender keeps retrying by RTO.
		return now-f.lastSeen > sh.idleTO &&
			f.fch == nil && (f.snd == nil || f.snd.completed || f.snd.limit <= 0)
	}, func(f *flow) {
		if f.rcv != nil {
			f.rcv.emitFinalAck(sh, f)
		}
		sh.dropFlow(f)
		sh.ctr.evicted.Add(1)
	})
}

// busyRetryMillis is the retry-after hint on refusal/shed BUSY frames:
// the base of the sender's jittered exponential backoff. Comfortably
// above RecoverHold granularity so one backoff step usually clears a
// transient brownout, short enough that recovery lands well inside the
// 3 s budget.
const busyRetryMillis = 250

// updateOverload samples this shard's pressure signals, advances the
// brownout machine, and applies transitions: entering Shed pauses
// local scavenger senders and fetches and evicts scavenger receiver
// flows (BUSY shed=true); leaving Shed resumes what it paused. Runs
// once per loop pass — four float compares in the steady state.
func (sh *shard) updateOverload(now float64) {
	sh.busyBudget = sh.batchSize
	prev := sh.det.State()
	st := sh.det.Update(now, overload.Signals{
		FlowOccupancy: float64(sh.nFlows.Load()) / float64(sh.maxFlows),
		TxBacklog:     sh.txBacklog,
		RxSaturation:  sh.rxFullEWMA,
		SendErrStreak: sh.txErrStreak,
	})
	sh.ovState.Store(uint32(st))
	sh.ovPressure.Store(math.Float64bits(sh.det.Pressure()))
	if st == prev {
		return
	}
	if w := uint32(st.Severity()); w > sh.ovWorst.Load() {
		sh.ovWorst.Store(w)
	}
	if st == overload.StateShed {
		sh.shedScavengers()
	} else if prev == overload.StateShed {
		sh.resumeScavengers(now)
	}
}

// shedScavengers applies the Shed action: every local scavenger sender
// or fetch is paused (state kept, emission stopped) and every scavenger
// receiver flow is evicted with a shed BUSY. Primary flows are not
// touched — that is the entire point of the class ordering.
func (sh *shard) shedScavengers() {
	sh.eachFlow(func(f *flow) {
		if o := f.origin(); o != nil && o.class == overload.ClassScavenger && !o.paused {
			o.paused = true
			sh.ctr.paused.Add(1)
			sh.ctr.shedScav.Add(1)
		}
	})
	// In order: busyBudget covers the first so many of them.
	sh.eachOrdered(func(f *flow) bool { return f.rcv != nil && wire.ScavengerID(f.id) }, func(f *flow) {
		sh.dropFlow(f)
		sh.ctr.shedScav.Add(1)
		sh.sendBusy(f.addr, f.id, true)
	})
}

// resumeScavengers unpauses local scavenger flows on leaving Shed and
// services them so their pacing deadlines re-arm. Evicted receiver
// flows need nothing: their senders retry after backoff and re-admit
// once the shard returns to Normal.
func (sh *shard) resumeScavengers(now float64) {
	sh.eachOrdered(func(f *flow) bool { o := f.origin(); return o != nil && o.paused }, func(f *flow) {
		f.origin().paused = false
		sh.ctr.paused.Add(-1)
		sh.service(f, now) // in order: their first trains leave in it
	})
}

// sendBusy queues one BUSY push-back frame for flow id's peer, bounded by
// the per-pass budget so a flood of refused admissions cannot amplify
// into a flood of BUSY traffic (the refusal is still counted; the
// sender's own RTO covers a lost frame).
func (sh *shard) sendBusy(dst netip.AddrPort, id uint32, shed bool) {
	if sh.busyBudget <= 0 {
		return
	}
	sh.busyBudget--
	buf := sh.txBuf()
	pkt := wire.EncodeBusy(buf, wire.BusyPacket{
		Flow: id, RetryAfterMillis: busyRetryMillis, Shed: shed,
	})
	sh.queueTx(pkt, dst)
	sh.ctr.busyTx.Add(1)
}

// overloadState is the cross-goroutine mirror of the detector state
// (AddFlow admission gate, Stats).
func (sh *shard) overloadState() overload.State {
	return overload.State(sh.ovState.Load())
}

// pressureMirror is the cross-goroutine mirror of the last pressure.
func (sh *shard) pressureMirror() float64 {
	return math.Float64frombits(sh.ovPressure.Load())
}

// dropFlow takes a flow out of the table and off the wheel.
func (sh *shard) dropFlow(f *flow) {
	if f.armed {
		f.armed = false
		sh.wh.armed--
	}
	f.gen++ // lazily cancels any queued wheel entry
	k := tableKey(f.addr, f.id)
	if p := sh.flows[k]; p != f {
		for p.next != f { // a flow that is not in the table faults here
			p = p.next
		}
		p.next = f.next
	} else if f.next != nil {
		sh.flows[k] = f.next
	} else {
		delete(sh.flows, k)
	}
	f.next = nil
	sh.nFlows.Add(-1)
	if o := f.origin(); o != nil {
		if o.paused {
			o.paused = false
			sh.ctr.paused.Add(-1)
		}
		sh.eng.senders.Add(-1) // release the admission slot
	}
	if f.snd != nil {
		f.snd.publish() // its handle keeps the final counters
	}
	if f.fch != nil {
		sh.fetches.Delete(f.fch.key)
		close(f.fch.done) // after the last touch of the core
	}
}

// admit drains the cross-goroutine admission queue, giving each new
// flow its first service, and applies a pending Engine.Reset.
func (sh *shard) admit() {
	sh.admitMu.Lock()
	q, reset := sh.admitQ, sh.resetReq
	sh.admitQ, sh.resetReq = nil, false
	sh.admitWake.Store(false)
	sh.admitMu.Unlock()
	if reset {
		sh.eachFlow(func(f *flow) {
			if f.rcv != nil {
				sh.dropFlow(f)
			}
		})
	}
	if len(q) == 0 {
		return
	}
	now := sh.clock.Now()
	for _, f := range q {
		sh.insert(f)
		f.lastSeen = now
		// Ack silence is measured from admission.
		if f.snd != nil {
			f.snd.book.Touch(now)
		} else {
			f.fch.core.Touch(now)
		}
		// A scavenger admitted while the shard is shedding raced the
		// admission gate; it starts paused and resumes with the rest.
		if o := f.origin(); o.class == overload.ClassScavenger &&
			!o.paused && sh.det.State().Shedding() {
			o.paused = true
			sh.ctr.paused.Add(1)
			sh.ctr.shedScav.Add(1)
		}
		sh.service(f, now)
	}
}

// enqueue hands a flow to the shard and wakes it if it is parked in its
// read, so the loop admits the flow now, not up to maxLoopSleep later.
func (sh *shard) enqueue(f *flow) {
	sh.admitMu.Lock()
	sh.admitQ = append(sh.admitQ, f)
	sh.admitWake.Store(true)
	sh.admitMu.Unlock()
	sh.port.wake()
}

// txBuf returns the maxPacket bytes at the arena's write offset, for
// one outgoing packet to be encoded into and handed to queueTx; a buffer
// that is not queued is simply handed out again.
func (sh *shard) txBuf() []byte {
	return sh.txArena[sh.txOff : sh.txOff+sh.maxPacket : sh.txOff+sh.maxPacket]
}

// queueTx stages one encoded packet — a prefix of the buffer txBuf last
// returned, anything else is a bug — for the next batched write, flushing
// when a full batch is staged. The next packet starts where this one ends.
func (sh *shard) queueTx(pkt []byte, dst netip.AddrPort) {
	if &pkt[0] != &sh.txArena[sh.txOff] {
		panic("engine: queueTx of a packet that was not encoded into txBuf()")
	}
	sh.txOff += len(pkt)
	sh.txq = append(sh.txq, pkt)
	sh.txAddrs = append(sh.txAddrs, dst)
	if len(sh.txq) >= sh.batchSize {
		sh.flushTx()
	}
}

// flushTx hands every staged packet to the port (one sendmmsg on Linux)
// and rewinds the arena.
func (sh *shard) flushTx() {
	if len(sh.txq) == 0 {
		return
	}
	sh.port.writeBatch(sh.txq, sh.txAddrs)
	sh.ctr.txPkts.Add(int64(len(sh.txq)))
	sh.ctr.txBatches.Add(1)
	sh.txq = sh.txq[:0]
	sh.txAddrs = sh.txAddrs[:0]
	sh.txOff = 0
}
