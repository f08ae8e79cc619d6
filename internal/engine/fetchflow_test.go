package engine

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"testing"

	"pccproteus/internal/overload"
	"pccproteus/internal/sim"
	"pccproteus/internal/wire"
)

// fetchRig is one fetch flow on a socketless shard with the test as
// its server: the test owns the clock, reads requests out of sh.txq and
// hands SEGMENTs to dispatch. The flow is taken in by admit() at the
// clock's 0 and its metadata request answered, with the object's digest,
// rigRTT later; the tests start from there, at t0, with the geometry
// known and the first data train in sh.txq.
type fetchRig struct {
	t      *testing.T
	sh     *shard
	f      *flow
	ff     *FetchFlow
	cc     *countingCC
	obj    []byte
	digest [wire.DigestLen]byte
	meta   wire.FetchHeader // the request admission sent
	order  []int64          // segments in delivery order (OnData)
	t0     float64
	buf    []byte // what segment encodes into
}

const (
	rigObj  = 0xfeed
	rigRate = 1000 * respSize // bytes/s: one full-segment response a ms
	rigRTT  = 0.005           // the metadata's turn-around
)

func newFetchRig(t *testing.T, cfg Config, segs int64) *fetchRig {
	t.Helper()
	r := &fetchRig{t: t, sh: newTestShard(t, cfg), cc: &countingCC{rate: rigRate, cwnd: 1e9},
		obj: make([]byte, segs*wire.SegSize), order: make([]int64, 0, segs), buf: make([]byte, respSize)}
	rand.New(rand.NewSource(segs)).Read(r.obj)
	r.digest = sha256.Sum256(r.obj)
	ff, err := r.sh.eng.AddFetch(src(9000), FetchConfig{ObjID: rigObj, CC: r.cc,
		OnData: func(seg int64, _ []byte) { r.order = append(r.order, seg) }})
	if err != nil {
		t.Fatal(err)
	}
	r.sh.admit()
	v, _ := r.sh.fetches.Load(ff.key)
	r.f, r.ff = v.(*flow), ff
	reqs := r.requests()
	if len(reqs) != 1 || !reqs[0].Meta {
		t.Fatalf("admission queued %+v, want the metadata request alone", reqs)
	}
	r.meta = reqs[0]
	// Until the digest and the geometry are in, nothing else may go out.
	for ms := 1; ms < int(rigRTT*1000); ms++ {
		now := float64(ms) / 1000
		r.sh.service(r.f, now)
		if len(r.sh.txq) != 0 {
			t.Fatalf("t=%.3f: %d requests before the geometry is known", now, len(r.sh.txq))
		}
	}
	r.t0 = rigRTT
	r.answer(r.meta, r.t0)
	return r
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

// segment builds the SEGMENT answering h — the digest for the metadata,
// else the object's bytes of segment h.Seg — in the rig's one buffer,
// which the next call reuses.
func (r *fetchRig) segment(h wire.FetchHeader) []byte {
	payload := r.digest[:]
	if !h.Meta {
		payload = r.obj[h.Seg*wire.SegSize : (h.Seg+1)*wire.SegSize]
	}
	return wire.EncodeSegment(r.buf, wire.SegmentHeader{
		Nonce: h.Nonce, SentAtEcho: h.SentAt, ObjID: h.ObjID, Meta: h.Meta, Seg: h.Seg,
		TotalSegs: int64(len(r.obj) / wire.SegSize), ObjSize: int64(len(r.obj)),
	}, payload)
}

func (r *fetchRig) answer(h wire.FetchHeader, now float64) {
	r.sh.dispatch(r.f.addr, r.segment(h), now)
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
// of which the metadata request leaves at admission; what the bucket
// holds when the answer brings the geometry leaves at once. After that
// nothing is queued until the bucket covers Burst responses again, then
// the whole train goes at once, each request stamped one
// response-serialization time after the last, the last train's
// included.
func TestFetchTrainWaitsForFullBucket(t *testing.T) {
	r := newFetchRig(t, Config{}, 64)
	if r.meta.Nonce != 0 || r.sh.clock.SecondsSince(r.meta.SentAt) != 0 {
		t.Fatalf("admission sent %+v stamped %.6f, want nonce 0 at t=0", r.meta, r.sh.clock.SecondsSince(r.meta.SentAt))
	}
	first := r.requests()
	// The bucket filled to its two-train cap while the metadata was out.
	if len(first) != 8 {
		t.Fatalf("the metadata's answer released %d requests, want the bucket's 2×Burst", len(first))
	}
	at := r.runUntil(r.t0+0.001, 1, func() bool { return len(r.sh.txq) > 0 })
	// 4 × 1000 B at 1 MB/s: the bucket, drained at t0, covers the next
	// train 4 ms later.
	if at < r.t0+0.004-1e-9 || at > r.t0+0.005+1e-9 {
		t.Fatalf("second train at t=%.4f, want 4 ms after t0=%.4f", at, r.t0)
	}
	reqs := r.requests()
	if len(reqs) != 4 {
		t.Fatalf("train of %d requests, want Burst=4", len(reqs))
	}
	// One grid from t0 on: the second train's stamps follow the first's,
	// however the wakes fell.
	for i, h := range append(first, reqs...) {
		want := r.t0 + float64(i)*0.001
		if got := r.sh.clock.SecondsSince(h.SentAt); math.Abs(got-want) > 1e-6 {
			t.Fatalf("request %d stamped %.6f, want %.6f on the TakeStamped timeline", i, got, want)
		}
		if h.Nonce != int64(1+i) || h.Seg != int64(i) || h.Meta {
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
// the book and delivers in order whatever order it arrived in.
func TestFetchSegmentRetiresNonceInOrder(t *testing.T) {
	r := newFetchRig(t, Config{}, 64)
	at, rx := r.t0, r.sh.st.RxPkts
	reqs := r.requests()
	r.answer(reqs[1], at+0.005)
	if r.ff.book.Find(reqs[1].Nonce) != nil || len(r.order) != 0 {
		t.Fatalf("after seg 1: order=%v", r.order)
	}
	r.answer(reqs[0], at+0.006)
	if r.ff.book.Find(reqs[0].Nonce) != nil || len(r.order) != 2 || r.order[0] != 0 || r.order[1] != 1 {
		t.Fatalf("after seg 0: order=%v", r.order)
	}
	if got := r.sh.st.RxPkts - rx; got != 2 {
		t.Fatalf("rxPkts=%d", got)
	}
	if r.f.lastSeen != at+0.006 {
		t.Fatalf("lastSeen=%.4f", r.f.lastSeen)
	}
	// The scheduled-send stamp came back as the echo: the RTT is measured
	// from it to the shard's clock at the read.
	if srtt := r.ff.book.RTT.SRTT(); srtt < 0.004 || srtt > 0.007 {
		t.Fatalf("srtt=%.4f from 5 ms turn-arounds", srtt)
	}
}

// A request nobody answers is re-requested under a fresh nonce once the
// book's RTO expires, and nothing already delivered is asked for again.
func TestFetchSilentNonceReRequested(t *testing.T) {
	r := newFetchRig(t, Config{}, 4)
	at := r.t0
	reqs := r.requests()
	if len(reqs) != 4 {
		t.Fatalf("%d requests for a 4-segment object", len(reqs))
	}
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
	// 5 ms samples leave the RTO at its 0.2 s floor.
	if waited := again - at; waited < 0.2 || waited > 0.2+2*rtoCheckEvery {
		t.Fatalf("re-requested after %.3f s, want the 0.2 s RTO plus at most a tick", waited)
	}
	if r.cc.losses != 1 {
		t.Fatalf("losses=%d", r.cc.losses)
	}
	r.answer(re[0], again+0.005)
	if !r.ff.complete() || !r.ff.verified || r.ff.refetched != 0 {
		t.Fatalf("done=%v verified=%v refetched=%d", r.ff.complete(), r.ff.verified, r.ff.refetched)
	}
}

// A completed fetch leaves the table at once, and what arrives for it
// afterwards — or for any (source, object) the shard is not fetching —
// is a stray, not a codec reject; a payload damaged in flight is charged
// to the fetch its intact header names.
func TestFetchCompletionStraysAndDamage(t *testing.T) {
	r := newFetchRig(t, Config{}, 2)
	at := r.t0
	reqs := r.requests()

	bad := r.segment(reqs[0])
	bad[len(bad)-1] ^= 1
	r.sh.dispatch(r.f.addr, bad, at+0.001)
	if r.f.fch.crcErrs != 1 || len(r.order) != 0 || r.sh.st.BadPkts != 0 {
		t.Fatalf("damaged payload: crcErrs=%d order=%v bad=%d", r.f.fch.crcErrs, r.order, r.sh.st.BadPkts)
	}
	r.sh.dispatch(src(9001), r.segment(reqs[0]), at+0.001) // right object, wrong peer
	other := reqs[0]
	other.ObjID++
	r.sh.dispatch(r.f.addr, r.segment(other), at+0.001) // right peer, wrong object
	if got := r.sh.st.StraySegs; got != 2 || len(r.order) != 0 {
		t.Fatalf("straySegs=%d order=%v", got, r.order)
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
	if st := r.f.fch.Stats(); !st.Done || !st.Verified || st.CrcErrs != 1 {
		t.Fatalf("published at completion: %+v", st)
	}
	if r.sh.st.Flows != 0 || r.f.armed || r.sh.eng.senders.Load() != 0 {
		t.Fatalf("completed fetch still held: flows=%d armed=%v senders=%d", r.sh.st.Flows, r.f.armed, r.sh.eng.senders.Load())
	}
	r.answer(reqs[1], at+0.003) // a late duplicate
	if stray, bad := r.sh.st.StraySegs, r.sh.st.BadPkts; stray != 3 || bad != 0 {
		t.Fatalf("late duplicate: straySegs=%d bad=%d", stray, bad)
	}
}

// The fetch role on a shard allocates nothing in steady state: FETCH
// encode, the SEGMENT's dispatch, onSegment, in-order delivery with the
// running SHA-256, the pump and the wheel, millisecond after
// millisecond, each request answered one step after it went out.
func TestFetchRoleZeroAllocSteadyState(t *testing.T) {
	r := newFetchRig(t, Config{}, 1024)
	pend := make([]wire.FetchHeader, 0, 64)
	take := func() {
		for _, p := range r.sh.txq {
			h, err := wire.DecodeFetch(p)
			if err != nil {
				t.Fatal(err)
			}
			pend = append(pend, h)
		}
		r.sh.flushTx()
	}
	take()
	now := r.t0
	step := func() {
		now += 0.001
		for _, h := range pend {
			r.answer(h, now)
		}
		pend = pend[:0]
		r.sh.service(r.f, now)
		take()
	}
	for range 200 {
		step()
	}
	before := r.ff.segsRx
	allocs := testing.AllocsPerRun(200, step)
	if got := r.ff.segsRx - before; got < 150 || r.ff.complete() || r.ff.lostReqs != 0 || int64(len(r.order)) != r.ff.segsRx {
		t.Fatalf("%d segments in 201 ms, lost %d, done=%v, %d delivered in order: want a steady, lossless, in-order fetch",
			got, r.ff.lostReqs, r.ff.complete(), len(r.order))
	}
	if allocs != 0 {
		t.Fatalf("the fetch role allocates %.2f per ms of steady state, want 0", allocs)
	}
}

// The idle sweep must not evict an unfinished fetch however long its
// peer is silent: through a blackout the fetch freezes and probes, and
// the first response resumes it — re-anchored, with no catch-up burst —
// without re-requesting anything it already has.
func TestSweepSparesStalledFetch(t *testing.T) {
	r := newFetchRig(t, Config{IdleTimeout: 1}, 32)
	at := r.t0
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
	if r.sh.lookup(r.f.addr, r.f.id) != r.f || r.sh.st.Evicted != 0 {
		t.Fatalf("stalled fetch swept: flows=%d evicted=%d", r.sh.st.Flows, r.sh.st.Evicted)
	}
	if !r.ff.book.InOutage() {
		t.Fatal("3 s of silence with requests outstanding did not trip the watchdog")
	}
	if len(probes) < 3 || len(probes) > 5 {
		t.Fatalf("%d requests in the blackout's last second, want one probe per 0.25 s", len(probes))
	}

	r.answer(probes[len(probes)-1], end)
	if r.ff.book.InOutage() {
		t.Fatal("response did not end the outage")
	}
	if len(r.sh.txq) != 0 {
		t.Fatalf("recovery released a catch-up burst of %d requests", len(r.sh.txq))
	}
	// Back to work: serve every request until the object completes.
	for now := end + 0.001; !r.ff.complete(); now += 0.001 {
		if now > end+2 {
			t.Fatalf("did not finish after the blackout: order=%d/%d", len(r.order), r.ff.totalSegs)
		}
		if r.sh.lookup(r.f.addr, r.f.id) == r.f {
			r.sh.service(r.f, now)
		}
		for _, h := range r.requests() {
			r.answer(h, now)
		}
	}
	if !r.ff.verified || r.ff.refetched != 0 {
		t.Fatalf("verified=%v, resume re-requested %d delivered segments", r.ff.verified, r.ff.refetched)
	}
}

// A fetch in an outage waits on the book as a sender does: each wake
// is the next rtoCheckEvery tick, not the ack-poll cadence, and a
// keep-alive leaves on the first tick the book has one due. The test
// steps the shard from wake to wake, as its wheel would.
func TestFetchOutageWakesOnTickCadence(t *testing.T) {
	r := newFetchRig(t, Config{}, 32)
	now := r.t0
	r.requests() // never answered
	for wakes := 0; !r.ff.book.InOutage(); wakes++ {
		if wakes > 10000 {
			t.Fatal("the watchdog never tripped")
		}
		now = r.f.deadline
		r.sh.service(r.f, now)
		r.requests()
	}
	var probes []float64
	for end := now + 2; now < end; {
		if next := r.f.deadline; !r.f.armed || math.Abs(next-(now+rtoCheckEvery)) > 1e-9 {
			t.Fatalf("in an outage at t=%.4f the next wake is %.4f, want %v later", now, next, rtoCheckEvery)
		}
		now = r.f.deadline
		r.sh.service(r.f, now)
		for range r.requests() {
			probes = append(probes, now)
		}
	}
	if len(probes) < 7 || len(probes) > 9 {
		t.Fatalf("%d probes in 2 s of outage, want one per 0.25 s", len(probes))
	}
	for i := 1; i < len(probes); i++ {
		if gap := probes[i] - probes[i-1]; gap < 0.25-1e-9 || gap > 0.25+rtoCheckEvery+1e-9 {
			t.Fatalf("probes %d and %d %.4f s apart, want 0.25 s and at most a tick more", i-1, i, gap)
		}
	}
}

// Shed and drain gate a fetch exactly as they gate a sender: no
// requests, the RTO tick keeps running, and the explained silence keeps
// the liveness clock at zero, so it does not read as an outage.
func TestFetchPausedAndDrainingGate(t *testing.T) {
	for _, mode := range []string{"paused", "draining"} {
		r := newFetchRig(t, Config{}, 64)
		at := r.t0
		r.requests()
		if mode == "paused" {
			r.f.fch.class = overload.ClassScavenger
			r.sh.shedScavengers()
			if !r.f.fch.paused || r.sh.st.Paused != 1 {
				t.Fatal("Shed did not pause a scavenger fetch")
			}
		} else {
			r.sh.eng.Drain()
		}
		ticks, last := 0, r.f.fch.lastTick
		for now := at + 0.001; now < at+2; now += 0.001 {
			r.sh.service(r.f, now)
			if r.f.fch.lastTick != last {
				ticks, last = ticks+1, r.f.fch.lastTick
			}
			if silence := r.ff.book.Silence(now); silence != 0 {
				t.Fatalf("%s: liveness clock running %.3f s at t=%.3f", mode, silence, now)
			}
		}
		if n := len(r.sh.txq); n != 0 {
			t.Fatalf("%s: %d requests queued", mode, n)
		}
		if ticks < 150 {
			t.Fatalf("%s: %d ticks over 2 s", mode, ticks)
		}
		if r.ff.book.InOutage() || r.ff.book.Trips() != 0 {
			t.Fatalf("%s: explained silence tripped the watchdog", mode)
		}
		if mode == "paused" {
			r.sh.resumeScavengers(at + 2)
			if r.f.fch.paused || r.sh.st.Paused != 0 || !r.f.armed {
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
		return eng.AddFetch(src(9000), FetchConfig{ObjID: obj, CC: &countingCC{rate: 1e6, cwnd: 1e9}})
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
	if sh.st.StraySegs != 1 {
		t.Fatal("segment for a queued fetch not counted stray")
	}
	sh.admit()
	if sh.st.Flows != 2 || eng.senders.Load() != 2 || eng.Stats().AdmittedPrimary != 2 {
		t.Fatalf("flows=%d senders=%d admitted=%d", sh.st.Flows, eng.senders.Load(), eng.Stats().AdmittedPrimary)
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
	if sh.st.Flows != 1 || eng.senders.Load() != 1 {
		t.Fatalf("after stop: flows=%d senders=%d", sh.st.Flows, eng.senders.Load())
	}
	if _, err := add(1); err != nil {
		t.Fatalf("key not released by the stopped fetch: %v", err)
	}
}

// A serving shard counts the wire bytes of every SEGMENT it sends back:
// over a whole SimNet fetch of an object with a short last segment,
// Stats.SegBytesTx is the summed length of the responses OnFetch
// returned, which is what a server's served rate is read from.
func TestFetchServedBytesCounted(t *testing.T) {
	const size = 40*wire.SegSize + 100
	obj := make([]byte, size)
	rand.New(rand.NewSource(5)).Read(obj)
	digest := sha256.Sum256(obj)
	var served, resps int64
	serve := func(h wire.FetchHeader, buf []byte) []byte {
		payload := digest[:]
		if !h.Meta {
			payload = obj[h.Seg*wire.SegSize : min((h.Seg+1)*wire.SegSize, size)]
		}
		pkt := wire.EncodeSegment(buf, wire.SegmentHeader{
			Nonce: h.Nonce, SentAtEcho: h.SentAt, ObjID: h.ObjID, Meta: h.Meta, Seg: h.Seg,
			TotalSegs: 41, ObjSize: size,
		}, payload)
		served += int64(len(pkt))
		resps++
		return pkt
	}
	lb, err := NewLoopback(sim.New(1), Config{}, Config{OnFetch: serve})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Stop()
	cli, dst, _, err := lb.Path(wire.ShimConfig{RateMbps: 20, QueueBytes: 1 << 20, Delay: 0.005, AckDelay: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := cli.AddFetch(dst, FetchConfig{ObjID: 1, CC: &FixedRateCC{Rate: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	lb.Wait(2)
	lb.Stop()
	srv := lb.Server.Stats()
	if st := ff.Stats(); !st.Done || !st.Verified {
		t.Fatalf("fetch did not complete: %+v", st)
	}
	if srv.SegsTx != resps || srv.SegBytesTx != served || served <= resps*wire.SegmentHeaderLen {
		t.Fatalf("server counted %d responses of %d bytes, served %d of %d", srv.SegsTx, srv.SegBytesTx, resps, served)
	}
}
