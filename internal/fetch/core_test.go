package fetch

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pccproteus/internal/transport"
)

// fixedCC is a minimal controller for datapath tests: a constant pacing
// rate and congestion window, with counters proving the core delivers
// the standard callback sequence.
type fixedCC struct {
	rate  float64
	cwnd  float64
	sends int
	acks  int
	loss  int
}

func (c *fixedCC) Name() string                                  { return "test-fixed" }
func (c *fixedCC) OnSend(now float64, pkt *transport.SentPacket) { c.sends++ }
func (c *fixedCC) OnAck(transport.Ack)                           { c.acks++ }
func (c *fixedCC) OnLoss(transport.Loss)                         { c.loss++ }
func (c *fixedCC) PacingRate() float64                           { return c.rate }
func (c *fixedCC) CWnd() float64                                 { return c.cwnd }

// handServer drives a Core against a synthetic in-memory server with a
// fixed RTT and a per-response drop hook, stepping virtual time by hand.
type handServer struct {
	data    []byte
	segSize int
	total   int64
	digest  [32]byte
	rtt     float64
	drop    func(n int64) bool // drop the response to request number n

	reqs  int64
	queue []timedResp
}

type timedResp struct {
	at float64
	r  Response
}

func newHandServer(size int, segSize int, rtt float64) *handServer {
	data := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(data)
	return &handServer{
		data: data, segSize: segSize, rtt: rtt,
		total:  TotalSegs(int64(size), segSize),
		digest: sha256.Sum256(data),
	}
}

func (sv *handServer) respond(req Request, now float64) {
	n := sv.reqs
	sv.reqs++
	if sv.drop != nil && sv.drop(n) {
		return
	}
	r := Response{Nonce: req.Nonce, Seg: req.Seg, Meta: req.Meta,
		TotalSegs: sv.total, ObjSize: int64(len(sv.data))}
	if req.Meta {
		r.Payload = sv.digest[:]
	} else {
		lo := req.Seg * int64(sv.segSize)
		hi := lo + int64(sv.segSize)
		if hi > int64(len(sv.data)) {
			hi = int64(len(sv.data))
		}
		r.Payload = sv.data[lo:hi]
	}
	sv.queue = append(sv.queue, timedResp{at: now + sv.rtt, r: r})
}

// run steps the core against the server until completion or the time
// horizon, returning the completion time.
func (sv *handServer) run(t *testing.T, c *Core, horizon float64) float64 {
	t.Helper()
	const dt = 0.001
	for now := 0.0; now < horizon; now += dt {
		if req, ok := c.Tick(now); ok {
			sv.respond(req, now)
		}
		for {
			if _, ok := c.PeekSize(); !ok {
				break
			}
			req, ok := c.Issue(now, now)
			if !ok {
				t.Fatalf("PeekSize ok but Issue refused at t=%.3f", now)
			}
			sv.respond(req, now)
		}
		rest := sv.queue[:0]
		for _, tr := range sv.queue {
			if tr.at <= now {
				c.OnResponse(tr.r, tr.at, now)
			} else {
				rest = append(rest, tr)
			}
		}
		sv.queue = rest
		if c.Done() {
			return now
		}
	}
	return horizon
}

func TestCoreCleanTransfer(t *testing.T) {
	cc := &fixedCC{rate: 2e6, cwnd: math.Inf(1)}
	c, err := NewCore(Config{CC: cc, SegSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	sv := newHandServer(10500, 1000, 0.050)
	end := sv.run(t, c, 30)
	if !c.Done() || !c.Stats().Verified {
		t.Fatalf("done=%v verified=%v", c.Done(), c.Stats().Verified)
	}
	if end >= 30 {
		t.Fatalf("did not complete before horizon")
	}
	st := c.Stats()
	if st.Delivered != 10500 {
		t.Fatalf("delivered=%d want 10500", st.Delivered)
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
	cc := &fixedCC{rate: 4e6, cwnd: math.Inf(1)}
	c, err := NewCore(Config{CC: cc, SegSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	sv := newHandServer(200_000, 1000, 0.040)
	sv.drop = func(n int64) bool { return n%7 == 3 } // lose every 7th response
	sv.run(t, c, 60)
	if !c.Done() || !c.Stats().Verified {
		t.Fatalf("done=%v stats=%+v", c.Done(), c.Stats())
	}
	st := c.Stats()
	if st.LostReqs == 0 {
		t.Fatalf("expected declared losses, got none")
	}
	if cc.loss == 0 {
		t.Fatalf("controller never heard OnLoss")
	}
	if st.Refetched != 0 {
		t.Fatalf("refetched=%d want 0", st.Refetched)
	}
	if st.Delivered != 200_000 {
		t.Fatalf("delivered=%d", st.Delivered)
	}
}

// A response that arrives after its request was declared lost must
// still deliver its segment — data is data — and the pending
// retransmit for that segment must be skipped, not re-sent.
func TestCoreLateResponseDelivers(t *testing.T) {
	cc := &fixedCC{rate: 1e6, cwnd: math.Inf(1)}
	c, err := NewCore(Config{CC: cc, SegSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Geometry via a synthetic meta response so the core can issue.
	c.OnResponse(Response{Nonce: 999, Meta: true, TotalSegs: 3, ObjSize: 300,
		Payload: make([]byte, 32)}, 0, 0)

	req0, ok := c.Issue(0, 0)
	if !ok || req0.Meta {
		t.Fatalf("expected fresh segment request, got %+v ok=%v", req0, ok)
	}
	// Force the request lost via the RTO backstop (no responses for >RTO).
	c.Tick(5.0)
	if got := c.Stats().LostReqs; got != 1 {
		t.Fatalf("lostReqs=%d want 1", got)
	}
	// The late response arrives anyway.
	c.OnResponse(Response{Nonce: req0.Nonce, Seg: req0.Seg, TotalSegs: 3, ObjSize: 300}, 5.1, 5.1)
	if c.Stats().SegsRx != 1 {
		t.Fatalf("late response did not deliver: %+v", c.Stats())
	}
	// The retransmit queue entry for that segment must now be skipped:
	// the next issued request is for segment 1, not 0 again.
	req1, ok := c.Issue(5.2, 5.2)
	if !ok || req1.Seg != 1 {
		t.Fatalf("next request seg=%d ok=%v want seg=1 (done seg skipped)", req1.Seg, ok)
	}
	if c.Stats().Refetched != 0 {
		t.Fatalf("refetched=%d want 0", c.Stats().Refetched)
	}
}

// The reassembly window bounds how far ahead of the in-order point the
// fetcher requests: with segment 0's responses withheld, issuance stops
// at exactly Window outstanding segments.
func TestCoreReassemblyWindowBound(t *testing.T) {
	cc := &fixedCC{rate: 1e9, cwnd: math.Inf(1)}
	c, err := NewCore(Config{CC: cc, SegSize: 100, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.OnResponse(Response{Nonce: 999, Meta: true, TotalSegs: 100, ObjSize: 10000,
		Payload: make([]byte, 32)}, 0, 0)
	issued := 0
	for {
		req, ok := c.Issue(0.001, 0.001)
		if !ok {
			break
		}
		if req.Meta {
			continue
		}
		issued++
		if req.Seg != 0 {
			// Respond to everything except segment 0.
			c.OnResponse(Response{Nonce: req.Nonce, Seg: req.Seg,
				TotalSegs: 100, ObjSize: 10000}, 0.002, 0.002)
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
	respSize := wireRespSize(1000)
	cc := &fixedCC{rate: 1e9, cwnd: float64(3 * respSize)}
	c, err := NewCore(Config{CC: cc, SegSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c.OnResponse(Response{Nonce: 999, Meta: true, TotalSegs: 100, ObjSize: 100_000,
		Payload: make([]byte, 32)}, 0, 0)
	n := 0
	for {
		if _, ok := c.Issue(0.001, 0.001); !ok {
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
	if c.Stats().Inflight != 3*respSize {
		t.Fatalf("inflight=%d want %d", c.Stats().Inflight, 3*respSize)
	}
}

// An outage freezes issuance, probes keep flowing, and the first
// response recovers the transfer at the pre-outage rate.
func TestCoreOutageAndRecovery(t *testing.T) {
	cc := &fixedCC{rate: 1e6, cwnd: math.Inf(1)}
	c, err := NewCore(Config{CC: cc, SegSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c.OnResponse(Response{Nonce: 999, Meta: true, TotalSegs: 50, ObjSize: 50_000,
		Payload: make([]byte, 32)}, 0, 0)
	if _, ok := c.Issue(0.01, 0.01); !ok {
		t.Fatal("no request issued")
	}
	// Silence for far past the watchdog threshold. Like a driver, keep
	// re-issuing what the RTO sweep retires: the watchdog reads silence
	// with requests outstanding, and a live fetch always has some.
	var probes int
	for now := 0.1; now < 3.0; now += 0.01 {
		if _, ok := c.Tick(now); ok {
			probes++
		}
		c.Issue(now, now)
	}
	st := c.Stats()
	if !st.InOutage || st.WdTrips != 1 {
		t.Fatalf("watchdog did not trip: %+v", st)
	}
	if probes == 0 {
		t.Fatalf("no probes during outage")
	}
	if _, ok := c.PeekSize(); ok {
		t.Fatalf("issuance not frozen during outage")
	}
	// Any response heals the path.
	c.OnResponse(Response{Nonce: 12345, Seg: 3, TotalSegs: 50, ObjSize: 50_000}, 3.0, 3.0)
	st = c.Stats()
	if st.InOutage || st.WdRecov != 1 {
		t.Fatalf("no recovery: %+v", st)
	}
	if _, ok := c.PeekSize(); !ok {
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
	cc := &fixedCC{rate: 1e6, cwnd: math.Inf(1)}
	c, err := NewCore(Config{CC: cc, SegSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var queue []timedResp
	for i := 0; i < 4000 && !c.Done(); i++ {
		now := float64(i) * 0.001
		if i%10 == 0 {
			c.Tick(now)
		}
		if i%5 == 0 {
			if req, ok := c.Issue(now, now+lead); ok {
				queue = append(queue, timedResp{at: now + lead + rtt, r: Response{
					Nonce: req.Nonce, Seg: req.Seg, Meta: req.Meta,
					TotalSegs: segs, ObjSize: segs * 1000,
				}})
			}
		}
		for len(queue) > 0 && queue[0].at <= now {
			c.OnResponse(queue[0].r, queue[0].at, now)
			queue = queue[1:]
		}
	}
	st := c.Stats()
	if !st.Done || st.LostReqs != 0 || cc.loss != 0 || st.Dups != 0 {
		t.Fatalf("done=%v lostReqs=%d OnLoss=%d dups=%d: stamp-leading requests were aged from their emission",
			st.Done, st.LostReqs, cc.loss, st.Dups)
	}
	if math.Abs(st.SRTT-rtt) > 0.002 {
		t.Fatalf("srtt %.3f want %.3f (measured from the stamp)", st.SRTT, rtt)
	}
}

// The geometry a SEGMENT declares is the server's word, and a forged
// one may stall its own fetch but never the shard: one response claiming
// 2^63−1 segments neither panics the core nor allocates in proportion to
// the claim, and the fetch still requests exactly a window ahead.
func TestCoreHostileGeometry(t *testing.T) {
	for _, total := range []int64{math.MaxInt64, 1 << 24} {
		c, err := NewCore(Config{CC: &fixedCC{rate: 1e9, cwnd: math.Inf(1)}, SegSize: 1000, Window: 64})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.OnResponse(Response{Nonce: 1, Seg: 7, TotalSegs: total, ObjSize: math.MaxInt64, Payload: make([]byte, 1000)}, 0, 0)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Fatalf("TotalSegs=%d: one response allocated %d bytes", total, grew)
		}
		fresh := 0
		for i := 0; i < 1000; i++ {
			req, ok := c.Issue(0.001, 0.001)
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

func wireRespSize(segSize int) int {
	c, _ := NewCore(Config{CC: &fixedCC{rate: 1, cwnd: 1}, SegSize: segSize})
	return c.segWire(0)
}
