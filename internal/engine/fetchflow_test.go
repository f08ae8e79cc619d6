package engine

import (
	"math"
	"testing"

	"pccproteus/internal/overload"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// scriptCore is a FetchCore small enough to read in a test: segs equal
// segments requested in order, lost ones re-requested first, delivery in
// order. Outstanding requests live in a real transport.Recovery, so the
// RTO, the watchdog and the probe cadence the tests wait for are the
// book's, not the script's. fetch.Core's own rules are tested in
// internal/fetch; what is checked here is the shard's driving of a core.
type scriptCore struct {
	cc   *countingCC
	book transport.Recovery
	segs int64
	size int // expected response size of every segment

	next      int64
	retx      []int64
	got       []bool
	order     []int64 // segments in delivery order
	refetched int
	touched   []float64
	ticks     []float64
}

func newScriptCore(segs int64, size int, rate float64) *scriptCore {
	c := &scriptCore{cc: &countingCC{rate: rate, cwnd: 1e9}, segs: segs, size: size, got: make([]bool, segs)}
	c.book.Init(c.cc, func(r *transport.Record, now float64) {
		if !c.got[r.Tag] {
			c.retx = append(c.retx, r.Tag)
		}
	})
	return c
}

func (c *scriptCore) Touch(now float64) {
	c.book.Touch(now)
	c.touched = append(c.touched, now)
}

func (c *scriptCore) Tick(now float64) (wire.FetchHeader, bool) {
	c.ticks = append(c.ticks, now)
	c.book.Watchdog(now)
	if c.book.Expire(now) {
		c.book.BackOff(now)
	}
	if !c.book.ProbeDue(now) {
		return wire.FetchHeader{}, false
	}
	return wire.FetchHeader{ObjID: rigObj, Nonce: c.book.AddProbe(now, 0).Seq, Seg: int64(len(c.order))}, true
}

func (c *scriptCore) PeekSize() (int, bool) {
	if c.book.InOutage() || len(c.retx) == 0 && c.next >= c.segs {
		return 0, false
	}
	return c.size, float64(c.book.Inflight()+c.size) <= c.cc.cwnd
}

func (c *scriptCore) Issue(now, virt float64) (wire.FetchHeader, bool) {
	if _, ok := c.PeekSize(); !ok {
		return wire.FetchHeader{}, false
	}
	var seg int64
	if len(c.retx) > 0 {
		seg, c.retx = c.retx[0], c.retx[1:]
	} else {
		seg = c.next
		c.next++
	}
	if c.got[seg] {
		c.refetched++
	}
	r := c.book.Add(now, c.size, virt, max(now, virt))
	r.Tag = seg
	return wire.FetchHeader{ObjID: rigObj, Nonce: r.Seq, Seg: seg}, true
}

func (c *scriptCore) OnResponse(r FetchResponse, recvAt, now float64) bool {
	healed := c.book.Alive(now)
	if rec := c.book.Find(r.Nonce); rec != nil {
		c.book.Ack(rec)
		if !rec.Probe {
			c.book.RTT.Update(max(recvAt-rec.SentAt, 0))
		}
	}
	if !c.got[r.Seg] {
		c.got[r.Seg] = true
		for n := int64(len(c.order)); n < c.segs && c.got[n]; n++ {
			c.order = append(c.order, n)
		}
	}
	c.book.Detect(now)
	return healed
}

func (c *scriptCore) PacingRate() float64 { return c.cc.rate }
func (c *scriptCore) Done() bool          { return int64(len(c.order)) == c.segs }

// fetchRig is one fetch flow on a socketless shard with the test as
// its server: the test owns the clock, reads requests out of sh.txq and
// hands SEGMENTs to dispatch.
type fetchRig struct {
	t    *testing.T
	sh   *shard
	f    *flow
	core *scriptCore
}

const (
	rigObj  = 0xfeed
	rigResp = 1000 // response bytes per segment: 1 ms at the rig's 1 MB/s
)

func newFetchRig(t *testing.T, cfg Config, segs int64) *fetchRig {
	sh := newTestShard(t, cfg)
	core := newScriptCore(segs, rigResp, 1e6)
	if _, err := sh.eng.AddFetch(src(9000), rigObj, core, rigResp, overload.ClassPrimary); err != nil {
		t.Fatal(err)
	}
	// Taken in by hand, without admit()'s first service: that would read
	// the wall clock, and the tests own the time.
	f := sh.admitQ[0]
	sh.admitQ = nil
	sh.insert(f)
	return &fetchRig{t: t, sh: sh, f: f, core: core}
}

// requests drains sh.txq, which must hold only FETCHes for the rig's
// peer and object.
func (r *fetchRig) requests() []wire.FetchHeader {
	r.t.Helper()
	var out []wire.FetchHeader
	for i, p := range r.sh.txq {
		h, err := wire.DecodeFetch(p)
		if err != nil || h.ObjID != rigObj || r.sh.txAddrs[i] != r.f.addr {
			r.t.Fatalf("txq[%d]: %+v err=%v to %s", i, h, err, r.sh.txAddrs[i])
		}
		out = append(out, h)
	}
	r.sh.flushTx()
	return out
}

// segment builds the SEGMENT answering h.
func (r *fetchRig) segment(h wire.FetchHeader) []byte {
	return wire.EncodeSegment(make([]byte, 2048), wire.SegmentHeader{
		Nonce: h.Nonce, SentAtEcho: h.SentAt, ObjID: h.ObjID,
		TotalSegs: r.core.segs, ObjSize: r.core.segs * 100, Seg: h.Seg,
	}, make([]byte, 100))
}

func (r *fetchRig) answer(h wire.FetchHeader, now float64) {
	r.sh.dispatch(r.f.addr, r.segment(h), now)
	r.sh.publish() // as pass does after its dispatch loop
}

// runUntil services the flow every millisecond from `from` until stop
// reports true, answering nothing, and returns that time.
func (r *fetchRig) runUntil(from, limit float64, stop func() bool) float64 {
	r.t.Helper()
	for now := from; now < limit; now += 0.001 {
		r.sh.service(r.f, now)
		r.sh.sweep(now)
		if stop() {
			return now
		}
	}
	r.t.Fatalf("condition not reached by t=%.3f", limit)
	return 0
}

// Trains are all-or-nothing: a new flow's bucket holds its first train,
// which leaves at the first service; after that nothing is queued until
// the bucket covers Burst responses again, then the whole train goes at
// once, each request stamped one response-serialization time after the
// last.
func TestFetchTrainWaitsForFullBucket(t *testing.T) {
	r := newFetchRig(t, Config{}, 64)
	r.sh.service(r.f, 0)
	if first := r.requests(); len(first) != 4 {
		t.Fatalf("first service queued %d requests, want the primed train of Burst=4", len(first))
	}
	at := r.runUntil(0.001, 1, func() bool { return len(r.sh.txq) > 0 })
	// 4 × 1000 B at 1 MB/s: the bucket, drained at the first service,
	// covers the next train 4 ms later.
	if at < 0.004-1e-9 || at > 0.005+1e-9 {
		t.Fatalf("second train at t=%.4f, want 4 ms after the first", at)
	}
	reqs := r.requests()
	if len(reqs) != 4 {
		t.Fatalf("train of %d requests, want Burst=4", len(reqs))
	}
	for i, h := range reqs {
		want := at + float64(i)*0.001
		if got := r.sh.clock.SecondsSince(h.SentAt); math.Abs(got-want) > 1e-6 {
			t.Fatalf("request %d stamped %.6f, want %.6f on the TakeStamped timeline", i, got, want)
		}
		if h.Nonce != int64(4+i) || h.Seg != int64(4+i) {
			t.Fatalf("request %d: %+v", i, h)
		}
	}
	// The wake after a train is the time to the next full train, capped
	// at the ack-poll cadence.
	if !r.f.armed || r.f.deadline <= at || r.f.deadline > at+ackPoll+1e-9 {
		t.Fatalf("next wake at %.4f after a train at %.4f", r.f.deadline, at)
	}
}

// A SEGMENT selects its flow by (source, ObjID), retires its nonce in
// the core and delivers in order whatever order it arrived in.
func TestFetchSegmentRetiresNonceInOrder(t *testing.T) {
	r := newFetchRig(t, Config{}, 64)
	at := r.runUntil(0, 1, func() bool { return len(r.sh.txq) > 0 })
	reqs := r.requests()
	r.answer(reqs[1], at+0.005)
	if r.core.book.Find(reqs[1].Nonce) != nil || len(r.core.order) != 0 {
		t.Fatalf("after seg 1: order=%v", r.core.order)
	}
	r.answer(reqs[0], at+0.006)
	if r.core.book.Find(reqs[0].Nonce) != nil || len(r.core.order) != 2 || r.core.order[0] != 0 || r.core.order[1] != 1 {
		t.Fatalf("after seg 0: order=%v", r.core.order)
	}
	if got := r.sh.ctr.rxPkts.Load(); got != 2 {
		t.Fatalf("rxPkts=%d", got)
	}
	if r.f.lastSeen != at+0.006 {
		t.Fatalf("lastSeen=%.4f", r.f.lastSeen)
	}
	// The scheduled-send stamp came back as the echo: the RTT is measured
	// from it to the shard's clock at the read.
	if srtt := r.core.book.RTT.SRTT(); srtt < 0.004 || srtt > 0.007 {
		t.Fatalf("srtt=%.4f from a 5 ms turn-around", srtt)
	}
}

// A request nobody answers is re-requested under a fresh nonce once the
// book's RTO expires, and nothing already delivered is asked for again.
func TestFetchSilentNonceReRequested(t *testing.T) {
	r := newFetchRig(t, Config{}, 4)
	at := r.runUntil(0, 1, func() bool { return len(r.sh.txq) > 0 })
	reqs := r.requests()
	for _, h := range reqs[:3] {
		r.answer(h, at+0.005)
	}
	// The silent request is the newest, so no later response can declare
	// it lost early: only the RTO sweep on the 10 ms tick can.
	again := r.runUntil(at+0.006, 2, func() bool { return len(r.sh.txq) > 0 })
	re := r.requests()
	if len(re) != 1 || re[0].Seg != 3 || re[0].Nonce == reqs[3].Nonce {
		t.Fatalf("re-request %+v for silent %+v", re, reqs[3])
	}
	// One 5 ms sample leaves the RTO at its 0.2 s floor.
	if waited := again - at; waited < 0.2 || waited > 0.2+2*rtoCheckEvery {
		t.Fatalf("re-requested after %.3f s, want the 0.2 s RTO plus at most a tick", waited)
	}
	if r.core.cc.losses != 1 {
		t.Fatalf("losses=%d", r.core.cc.losses)
	}
	r.answer(re[0], again+0.005)
	if !r.core.Done() || r.core.refetched != 0 {
		t.Fatalf("done=%v refetched=%d", r.core.Done(), r.core.refetched)
	}
}

// A completed fetch leaves the table at once, and what arrives for it
// afterwards — or for any (source, object) the shard is not fetching —
// is a stray, not a codec reject; a payload damaged in flight is charged
// to the fetch its intact header names.
func TestFetchCompletionStraysAndDamage(t *testing.T) {
	r := newFetchRig(t, Config{}, 2)
	at := r.runUntil(0, 1, func() bool { return len(r.sh.txq) > 0 })
	reqs := r.requests()

	bad := r.segment(reqs[0])
	bad[len(bad)-1] ^= 1
	r.sh.dispatch(r.f.addr, bad, at+0.001)
	if r.f.fch.crcErrs.Load() != 1 || len(r.core.order) != 0 || r.sh.ctr.bad.Load() != 0 {
		t.Fatalf("damaged payload: crcErrs=%d order=%v bad=%d", r.f.fch.crcErrs.Load(), r.core.order, r.sh.ctr.bad.Load())
	}
	r.sh.dispatch(src(9001), r.segment(reqs[0]), at+0.001) // right object, wrong peer
	other := reqs[0]
	other.ObjID++
	r.sh.dispatch(r.f.addr, r.segment(other), at+0.001) // right peer, wrong object
	if got := r.sh.ctr.straySegs.Load(); got != 2 || len(r.core.order) != 0 {
		t.Fatalf("straySegs=%d order=%v", got, r.core.order)
	}

	r.answer(reqs[0], at+0.002)
	select {
	case <-r.f.fch.done:
		t.Fatal("done closed with a segment missing")
	default:
	}
	r.answer(reqs[1], at+0.002)
	select {
	case <-r.f.fch.done:
	default:
		t.Fatal("done not closed on completion")
	}
	if r.sh.nFlows.Load() != 0 || r.f.armed || r.sh.eng.senders.Load() != 0 {
		t.Fatalf("completed fetch still held: flows=%d armed=%v senders=%d", r.sh.nFlows.Load(), r.f.armed, r.sh.eng.senders.Load())
	}
	r.answer(reqs[1], at+0.003) // a late duplicate
	if stray, bad := r.sh.ctr.straySegs.Load(), r.sh.ctr.bad.Load(); stray != 3 || bad != 0 {
		t.Fatalf("late duplicate: straySegs=%d bad=%d", stray, bad)
	}
}

// The idle sweep must not evict an unfinished fetch however long its
// peer is silent: through a blackout the core freezes and probes, and
// the first response resumes it — re-anchored, with no catch-up burst —
// without re-requesting anything it already has.
func TestSweepSparesStalledFetch(t *testing.T) {
	r := newFetchRig(t, Config{IdleTimeout: 1}, 32)
	at := r.runUntil(0, 1, func() bool { return len(r.sh.txq) > 0 })
	reqs := r.requests()
	r.answer(reqs[0], at+0.002)
	r.requests() // whatever the response released goes unanswered too

	// 3 s of silence: three sweeps past IdleTimeout. What goes out in
	// the last of them can only be keep-alive probes.
	var probes []wire.FetchHeader
	end := at + 3
	for now := at + 0.003; now < end; now += 0.001 {
		r.sh.service(r.f, now)
		r.sh.sweep(now)
		if reqs := r.requests(); now > end-1 {
			probes = append(probes, reqs...)
		}
	}
	if r.sh.lookup(r.f.addr, r.f.id) != r.f || r.sh.ctr.evicted.Load() != 0 {
		t.Fatalf("stalled fetch swept: flows=%d evicted=%d", r.sh.nFlows.Load(), r.sh.ctr.evicted.Load())
	}
	if !r.core.book.InOutage() {
		t.Fatal("3 s of silence with requests outstanding did not trip the watchdog")
	}
	if len(probes) < 3 || len(probes) > 5 {
		t.Fatalf("%d requests in the blackout's last second, want one probe per 0.25 s", len(probes))
	}

	r.answer(probes[len(probes)-1], end)
	if r.core.book.InOutage() {
		t.Fatal("response did not end the outage")
	}
	if len(r.sh.txq) != 0 {
		t.Fatalf("recovery released a catch-up burst of %d requests", len(r.sh.txq))
	}
	// Back to work: serve every request until the object completes.
	for now := end + 0.001; !r.core.Done(); now += 0.001 {
		if now > end+2 {
			t.Fatalf("did not finish after the blackout: order=%d/%d", len(r.core.order), r.core.segs)
		}
		if r.sh.lookup(r.f.addr, r.f.id) == r.f {
			r.sh.service(r.f, now)
		}
		for _, h := range r.requests() {
			r.answer(h, now)
		}
	}
	if r.core.refetched != 0 {
		t.Fatalf("resume re-requested %d delivered segments", r.core.refetched)
	}
}

// Shed and drain gate a fetch exactly as they gate a sender: no
// requests, the RTO tick keeps running, and the explained silence does
// not read as an outage.
func TestFetchPausedAndDrainingGate(t *testing.T) {
	for _, mode := range []string{"paused", "draining"} {
		r := newFetchRig(t, Config{}, 64)
		at := r.runUntil(0, 1, func() bool { return len(r.sh.txq) > 0 })
		r.requests()
		if mode == "paused" {
			r.f.fch.class = overload.ClassScavenger
			r.sh.shedScavengers()
			if !r.f.fch.paused || r.sh.ctr.paused.Load() != 1 {
				t.Fatal("Shed did not pause a scavenger fetch")
			}
		} else {
			r.sh.eng.Drain()
		}
		ticks := len(r.core.ticks)
		for now := at + 0.001; now < at+2; now += 0.001 {
			r.sh.service(r.f, now)
		}
		if n := len(r.sh.txq); n != 0 {
			t.Fatalf("%s: %d requests queued", mode, n)
		}
		if len(r.core.ticks)-ticks < 150 || len(r.core.touched) == 0 {
			t.Fatalf("%s: %d ticks, %d touches over 2 s", mode, len(r.core.ticks)-ticks, len(r.core.touched))
		}
		if r.core.book.InOutage() || r.core.book.Trips() != 0 {
			t.Fatalf("%s: explained silence tripped the watchdog", mode)
		}
		if mode == "paused" {
			r.sh.resumeScavengers(at + 2)
			if r.f.fch.paused || r.sh.ctr.paused.Load() != 0 || !r.f.armed {
				t.Fatal("leaving Shed did not resume the fetch")
			}
		}
	}
}

// Admission: one fetch per (peer, object) per shard, refused from the
// caller's goroutine; the key frees when the flow leaves, by Stop here.
func TestAddFetchDuplicateRefused(t *testing.T) {
	sh := newTestShard(t, Config{})
	eng := sh.eng
	add := func(obj uint64) (*FetchFlow, error) {
		return eng.AddFetch(src(9000), obj, newScriptCore(4, rigResp, 1e6), rigResp, overload.ClassPrimary)
	}
	fl, err := add(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := add(1); err == nil {
		t.Fatal("second fetch of one object from one peer admitted")
	}
	if _, err := add(2); err != nil {
		t.Fatalf("another object from the same peer refused: %v", err)
	}
	// A SEGMENT naming a fetch the loop has not taken in yet is a stray.
	sh.dispatch(src(9000), wire.EncodeSegment(make([]byte, 256), wire.SegmentHeader{ObjID: 1, TotalSegs: 4, ObjSize: 400}, make([]byte, 100)), 0)
	if sh.ctr.straySegs.Load() != 1 {
		t.Fatal("segment for a queued fetch reached its core")
	}
	sh.admit()
	if sh.nFlows.Load() != 2 || eng.senders.Load() != 2 || eng.Stats().AdmittedPrimary != 2 {
		t.Fatalf("flows=%d senders=%d admitted=%d", sh.nFlows.Load(), eng.senders.Load(), eng.Stats().AdmittedPrimary)
	}
	if _, err := add(1); err == nil {
		t.Fatal("duplicate of an admitted fetch accepted")
	}

	fl.stop.Store(true) // FetchFlow.Stop, minus the wait for a loop this test turns by hand
	v, _ := sh.fetches.Load(fetchKey{src(9000), 1})
	sh.service(v.(*flow), sh.clock.Now())
	select {
	case <-fl.Done():
	default:
		t.Fatal("stopped fetch still on its shard")
	}
	if sh.nFlows.Load() != 1 || eng.senders.Load() != 1 {
		t.Fatalf("after stop: flows=%d senders=%d", sh.nFlows.Load(), eng.senders.Load())
	}
	if _, err := add(1); err != nil {
		t.Fatalf("key not released by the stopped fetch: %v", err)
	}
}
