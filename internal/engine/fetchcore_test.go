package engine

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pccproteus/internal/wire"
)

// handServer drives a fetch's scheduler — a FetchFlow on no shard —
// against a synthetic in-memory server with a fixed RTT and a
// per-response drop hook, stepping virtual time by hand.
type handServer struct {
	data   []byte
	total  int64
	digest [32]byte
	rtt    float64
	drop   func(n int64) bool // drop the response to request number n

	reqs  int64
	queue []timedResp
}

type timedResp struct {
	at      float64
	h       wire.SegmentHeader
	payload []byte
}

func newHandServer(size int, rtt float64) *handServer {
	data := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(data)
	return &handServer{
		data: data, rtt: rtt,
		total:  int64((size + wire.SegSize - 1) / wire.SegSize),
		digest: sha256.Sum256(data),
	}
}

func (sv *handServer) respond(req wire.FetchHeader, now float64) {
	n := sv.reqs
	sv.reqs++
	if sv.drop != nil && sv.drop(n) {
		return
	}
	r := timedResp{at: now + sv.rtt, h: wire.SegmentHeader{Nonce: req.Nonce, Seg: req.Seg, Meta: req.Meta,
		TotalSegs: sv.total, ObjSize: int64(len(sv.data))}}
	if req.Meta {
		r.payload = sv.digest[:]
	} else {
		lo := req.Seg * wire.SegSize
		hi := lo + wire.SegSize
		if hi > int64(len(sv.data)) {
			hi = int64(len(sv.data))
		}
		r.payload = sv.data[lo:hi]
	}
	sv.queue = append(sv.queue, r)
}

// tick drives the fetch's book as an engine shard's pump does on its
// tick: stall watchdog, RTO sweep, and a keep-alive probe when one is
// due.
func tick(c *FetchFlow, now float64) (wire.FetchHeader, bool) {
	b := &c.book
	b.Watchdog(now)
	if b.Expire(now) {
		b.BackOff(now)
	}
	if !b.ProbeDue(now) {
		return wire.FetchHeader{}, false
	}
	return c.bookProbe(now), true
}

// run steps the fetch against the server until completion or the time
// horizon, returning the completion time.
func (sv *handServer) run(t *testing.T, c *FetchFlow, horizon float64) float64 {
	t.Helper()
	const dt = 0.001
	for now := 0.0; now < horizon; now += dt {
		if req, ok := tick(c, now); ok {
			sv.respond(req, now)
		}
		for {
			if _, ok := c.peek(); !ok {
				break
			}
			req, ok := c.issue(now, now)
			if !ok {
				t.Fatalf("peek ok but issue refused at t=%.3f", now)
			}
			sv.respond(req, now)
		}
		rest := sv.queue[:0]
		for _, tr := range sv.queue {
			if tr.at <= now {
				c.onResponse(tr.h, tr.payload, tr.at, now)
			} else {
				rest = append(rest, tr)
			}
		}
		sv.queue = rest
		if c.complete() {
			return now
		}
	}
	return horizon
}

// The tick publish copies the counters by value under a mutex: it
// allocates nothing, and FetchFlow.Stats reads what the flow counted.
func TestCorePublishZeroAllocs(t *testing.T) {
	c, err := newFetchFlow(FetchConfig{CC: &countingCC{rate: 2e6, cwnd: math.Inf(1)}})
	if err != nil {
		t.Fatal(err)
	}
	newHandServer(cleanSize, 0.050).run(t, c, 30)
	c.crcErrs = 1
	if allocs := testing.AllocsPerRun(100, c.publish); allocs != 0 {
		t.Fatalf("tick publish allocates %.1f/op, want 0", allocs)
	}
	if st := c.Stats(); st != c.stats() || !st.Verified || st.CrcErrs != 1 ||
		st.SentBytes != (st.ReqsSent+st.Probes)*wire.FetchLen || math.Abs(st.P50RTT-0.050) > 0.004 {
		t.Fatalf("published %+v, counted %+v", st, c.stats())
	}
}

// cleanSize is ten and a half segments: eleven data requests.
const cleanSize = 10*wire.SegSize + wire.SegSize/2

func TestCoreCleanTransfer(t *testing.T) {
	cc := &countingCC{rate: 2e6, cwnd: math.Inf(1)}
	c, err := newFetchFlow(FetchConfig{CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	sv := newHandServer(cleanSize, 0.050)
	end := sv.run(t, c, 30)
	if !c.complete() || !c.stats().Verified {
		t.Fatalf("done=%v verified=%v", c.complete(), c.stats().Verified)
	}
	if end >= 30 {
		t.Fatalf("did not complete before horizon")
	}
	st := c.stats()
	if st.Delivered != cleanSize {
		t.Fatalf("delivered=%d want %d", st.Delivered, cleanSize)
	}
	// 11 data segments + 1 metadata request, no losses, no dups.
	if st.ReqsSent != 12 || st.LostReqs != 0 || st.Dups != 0 || st.Refetched != 0 {
		t.Fatalf("reqs=%d lost=%d dups=%d refetched=%d", st.ReqsSent, st.LostReqs, st.Dups, st.Refetched)
	}
	if cc.acks != 12 || cc.sends != 12 {
		t.Fatalf("controller callbacks: sends=%d acks=%d", cc.sends, cc.acks)
	}
}

func TestCoreRecoversFromLoss(t *testing.T) {
	cc := &countingCC{rate: 4e6, cwnd: math.Inf(1)}
	c, err := newFetchFlow(FetchConfig{CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	sv := newHandServer(200*wire.SegSize, 0.040)
	sv.drop = func(n int64) bool { return n%7 == 3 } // lose every 7th response
	sv.run(t, c, 60)
	if !c.complete() || !c.stats().Verified {
		t.Fatalf("done=%v stats=%+v", c.complete(), c.stats())
	}
	st := c.stats()
	if st.LostReqs == 0 {
		t.Fatalf("expected declared losses, got none")
	}
	if cc.losses == 0 {
		t.Fatalf("controller never heard OnLoss")
	}
	if st.Refetched != 0 {
		t.Fatalf("refetched=%d want 0", st.Refetched)
	}
	if st.Delivered != 200*wire.SegSize {
		t.Fatalf("delivered=%d", st.Delivered)
	}
}

// A response that arrives after its request was declared lost must
// still deliver its segment — data is data — and the pending
// retransmit for that segment must be skipped, not re-sent.
func TestCoreLateResponseDelivers(t *testing.T) {
	cc := &countingCC{rate: 1e6, cwnd: math.Inf(1)}
	c, err := newFetchFlow(FetchConfig{CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	// Geometry via a synthetic meta response so the fetch can issue.
	c.onResponse(wire.SegmentHeader{Nonce: 999, Meta: true, TotalSegs: 3, ObjSize: 3 * wire.SegSize}, make([]byte, 32), 0, 0)

	req0, ok := c.issue(0, 0)
	if !ok || req0.Meta {
		t.Fatalf("expected fresh segment request, got %+v ok=%v", req0, ok)
	}
	// Force the request lost via the RTO backstop (no responses for >RTO).
	tick(c, 5.0)
	if got := c.stats().LostReqs; got != 1 {
		t.Fatalf("lostReqs=%d want 1", got)
	}
	// The late response arrives anyway.
	c.onResponse(wire.SegmentHeader{Nonce: req0.Nonce, Seg: req0.Seg, TotalSegs: 3, ObjSize: 3 * wire.SegSize}, nil, 5.1, 5.1)
	if c.stats().SegsRx != 1 {
		t.Fatalf("late response did not deliver: %+v", c.stats())
	}
	// The retransmit queue entry for that segment must now be skipped:
	// the next issued request is for segment 1, not 0 again.
	req1, ok := c.issue(5.2, 5.2)
	if !ok || req1.Seg != 1 {
		t.Fatalf("next request seg=%d ok=%v want seg=1 (done seg skipped)", req1.Seg, ok)
	}
	if c.stats().Refetched != 0 {
		t.Fatalf("refetched=%d want 0", c.stats().Refetched)
	}
}

// The reassembly window bounds how far ahead of the in-order point the
// fetcher requests: with segment 0's responses withheld, issuance stops
// at exactly window outstanding segments.
func TestCoreReassemblyWindowBound(t *testing.T) {
	cc := &countingCC{rate: 1e9, cwnd: math.Inf(1)}
	c, err := newFetchFlow(FetchConfig{CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	c.window = 8
	c.onResponse(wire.SegmentHeader{Nonce: 999, Meta: true, TotalSegs: 100, ObjSize: 100 * wire.SegSize}, make([]byte, 32), 0, 0)
	issued := 0
	for {
		req, ok := c.issue(0.001, 0.001)
		if !ok {
			break
		}
		if req.Meta {
			continue
		}
		issued++
		if req.Seg != 0 {
			// Respond to everything except segment 0.
			c.onResponse(wire.SegmentHeader{Nonce: req.Nonce, Seg: req.Seg,
				TotalSegs: 100, ObjSize: 100 * wire.SegSize}, nil, 0.002, 0.002)
		}
		if issued > 50 {
			break
		}
	}
	if issued != 8 {
		t.Fatalf("issued %d fresh requests with window 8 and cum stuck at 0", issued)
	}
}

// The congestion window gates issuance in expected-response bytes.
func TestCoreCwndGate(t *testing.T) {
	cc := &countingCC{rate: 1e9, cwnd: float64(3 * respSize)}
	c, err := newFetchFlow(FetchConfig{CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	c.onResponse(wire.SegmentHeader{Nonce: 999, Meta: true, TotalSegs: 100, ObjSize: 100 * wire.SegSize}, make([]byte, 32), 0, 0)
	n := 0
	for {
		if _, ok := c.issue(0.001, 0.001); !ok {
			break
		}
		n++
		if n > 10 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("issued %d requests under a 3-response cwnd", n)
	}
	if c.stats().Inflight != 3*respSize {
		t.Fatalf("inflight=%d want %d", c.stats().Inflight, 3*respSize)
	}
}

// An outage freezes issuance, probes keep flowing, and the first
// response recovers the transfer at the pre-outage rate.
func TestCoreOutageAndRecovery(t *testing.T) {
	cc := &countingCC{rate: 1e6, cwnd: math.Inf(1)}
	c, err := newFetchFlow(FetchConfig{CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	c.onResponse(wire.SegmentHeader{Nonce: 999, Meta: true, TotalSegs: 50, ObjSize: 50 * wire.SegSize}, make([]byte, 32), 0, 0)
	if _, ok := c.issue(0.01, 0.01); !ok {
		t.Fatal("no request issued")
	}
	// Silence for far past the watchdog threshold. Like a driver, keep
	// re-issuing what the RTO sweep retires: the watchdog reads silence
	// with requests outstanding, and a live fetch always has some.
	var probes int
	for now := 0.1; now < 3.0; now += 0.01 {
		if _, ok := tick(c, now); ok {
			probes++
		}
		c.issue(now, now)
	}
	st := c.stats()
	if !st.InOutage || st.WdTrips != 1 {
		t.Fatalf("watchdog did not trip: %+v", st)
	}
	if probes == 0 {
		t.Fatalf("no probes during outage")
	}
	if _, ok := c.peek(); ok {
		t.Fatalf("issuance not frozen during outage")
	}
	// Any response heals the path.
	c.onResponse(wire.SegmentHeader{Nonce: 12345, Seg: 3, TotalSegs: 50, ObjSize: 50 * wire.SegSize}, nil, 3.0, 3.0)
	st = c.stats()
	if st.InOutage || st.WdRecov != 1 {
		t.Fatalf("no recovery: %+v", st)
	}
	if _, ok := c.peek(); !ok {
		t.Fatalf("issuance still frozen after recovery")
	}
}

// Requests are stamped on the pacer's scheduled timeline, which can
// lead the clock by a train time at the start-up rate, and RTT — hence
// the RTO — is measured from the stamp. Aging a request from its
// emission instead would, once the RTT comes within the lead of the
// 200 ms RTO floor, declare every request of a standing queue lost just
// before its response arrives.
func TestCoreStampLeadNoSpuriousLoss(t *testing.T) {
	const (
		lead = 0.045 // stamp ahead of emission
		rtt  = 0.190 // stamp → response
		segs = 300
	)
	cc := &countingCC{rate: 1e6, cwnd: math.Inf(1)}
	c, err := newFetchFlow(FetchConfig{CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	var queue []timedResp
	for i := 0; i < 4000 && !c.complete(); i++ {
		now := float64(i) * 0.001
		if i%10 == 0 {
			tick(c, now)
		}
		if i%5 == 0 {
			if req, ok := c.issue(now, now+lead); ok {
				queue = append(queue, timedResp{at: now + lead + rtt, h: wire.SegmentHeader{
					Nonce: req.Nonce, Seg: req.Seg, Meta: req.Meta,
					TotalSegs: segs, ObjSize: segs * wire.SegSize,
				}})
			}
		}
		for len(queue) > 0 && queue[0].at <= now {
			c.onResponse(queue[0].h, queue[0].payload, queue[0].at, now)
			queue = queue[1:]
		}
	}
	st := c.stats()
	if !st.Done || st.LostReqs != 0 || cc.losses != 0 || st.Dups != 0 {
		t.Fatalf("done=%v lostReqs=%d OnLoss=%d dups=%d: stamp-leading requests were aged from their emission",
			st.Done, st.LostReqs, cc.losses, st.Dups)
	}
	if math.Abs(st.SRTT-rtt) > 0.002 {
		t.Fatalf("srtt %.3f want %.3f (measured from the stamp)", st.SRTT, rtt)
	}
}

// The geometry a SEGMENT declares is the server's word, and a forged
// one may stall its own fetch but never the shard: one response claiming
// 2^63−1 segments neither panics the fetch nor allocates in proportion to
// the claim, and the fetch still requests exactly a window ahead.
func TestCoreHostileGeometry(t *testing.T) {
	for _, total := range []int64{math.MaxInt64, 1 << 24} {
		c, err := newFetchFlow(FetchConfig{CC: &countingCC{rate: 1e9, cwnd: math.Inf(1)}})
		if err != nil {
			t.Fatal(err)
		}
		c.window = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.onResponse(wire.SegmentHeader{Nonce: 1, Seg: 7, TotalSegs: total, ObjSize: math.MaxInt64}, make([]byte, wire.SegSize), 0, 0)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Fatalf("TotalSegs=%d: one response allocated %d bytes", total, grew)
		}
		fresh := 0
		for i := 0; i < 1000; i++ {
			req, ok := c.issue(0.001, 0.001)
			if !ok {
				break
			}
			if !req.Meta {
				fresh++
			}
		}
		if fresh != 64 {
			t.Fatalf("TotalSegs=%d: %d requests under a 64-segment window", total, fresh)
		}
	}
}

// Reassembly recycles its buffers: under a schedule that loses every
// eleventh response and holds every fifth back behind the ones after it,
// window after window, a warm fetch allocates nothing — a segment that
// arrives out of order waits in a buffer an earlier one gave back.
func TestCoreReorderZeroAllocSteadyState(t *testing.T) {
	const window = 64
	c, err := newFetchFlow(FetchConfig{CC: &countingCC{rate: 1e6, cwnd: math.Inf(1)},
		OnData: func(int64, []byte) {}})
	if err != nil {
		t.Fatal(err)
	}
	c.window = window
	sv := newHandServer(20000*wire.SegSize, 0.020)
	sv.drop = func(n int64) bool { return n%11 == 7 }
	now := 0.0
	step := func() { // 10 ms
		for i := 0; i < 10; i++ {
			now += 0.001
			if req, ok := tick(c, now); ok {
				sv.respond(req, now)
			}
			for req, ok := c.issue(now, now); ok; req, ok = c.issue(now, now) {
				n := len(sv.queue)
				if sv.respond(req, now); len(sv.queue) > n && sv.reqs%5 == 0 {
					sv.queue[n].at += 0.004 // overtaken by the responses behind it
				}
			}
			rest := sv.queue[:0]
			for _, tr := range sv.queue {
				if tr.at <= now {
					c.onResponse(tr.h, tr.payload, tr.at, now)
				} else {
					rest = append(rest, tr)
				}
			}
			sv.queue = rest
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	before := c.stats()
	allocs := testing.AllocsPerRun(100, step)
	st := c.stats()
	if st.Done || st.SegsRx-before.SegsRx < 10*window || st.LostReqs == before.LostReqs || len(c.spare) == 0 {
		t.Fatalf("after %+v, %+v with %d spare buffers: want many windows, losses and reordering, not completion",
			before, st, len(c.spare))
	}
	if allocs != 0 {
		t.Fatalf("a reordering, lossy fetch allocates %.2f per 10 ms, want 0", allocs)
	}
}
