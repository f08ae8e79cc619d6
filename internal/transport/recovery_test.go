package transport

import (
	"math"
	"math/rand"
	"testing"
)

// bookCC is the controller under a bare Recovery: it records what the
// book lets through and can play either outage interface.
type bookCC struct {
	rate, cwnd   float64
	acks, losses []int64
	outages      int
	resumeRates  []float64
}

func (c *bookCC) Name() string                { return "book" }
func (c *bookCC) OnSend(float64, *SentPacket) {}
func (c *bookCC) OnAck(a Ack)                 { c.acks = append(c.acks, a.Seq) }
func (c *bookCC) OnLoss(l Loss)               { c.losses = append(c.losses, l.Seq) }
func (c *bookCC) PacingRate() float64         { return c.rate }
func (c *bookCC) CWnd() float64               { return c.cwnd }
func (c *bookCC) OnOutage(float64)            { c.outages++ }
func (c *bookCC) OnRecovery(_ float64, r float64) {
	c.resumeRates = append(c.resumeRates, r)
}

// bookHarness drives a Recovery by hand in virtual time: no simulator,
// no sockets, no timers.
type bookHarness struct {
	Recovery
	cc     *bookCC
	hooked []int64 // seqs the driver's loss hook saw
}

func newBook() *bookHarness {
	h := &bookHarness{cc: &bookCC{rate: 2e6, cwnd: math.Inf(1)}}
	h.Init(h.cc, func(r *Record, _ float64) { h.hooked = append(h.hooked, r.Seq) })
	return h
}

// emit books n 1000-byte packets at now, aged from their emission.
func (h *bookHarness) emit(now float64, n int) {
	for i := 0; i < n; i++ {
		h.Add(now, 1000, now, now)
	}
}

// ack plays one per-packet ack arrival the way every driver does:
// liveness, find, retire with an RTT sample, detect.
func (h *bookHarness) ack(now float64, seq int64, rtt float64) {
	h.Alive(now)
	if r := h.Find(seq); r != nil {
		h.Ack(r)
		if !r.Probe {
			h.RTT.Update(rtt)
			h.cc.OnAck(Ack{Seq: seq})
		}
	}
	h.Detect(now)
}

// arrival is one per-packet ack reaching the sender.
type arrival struct {
	at  float64
	seq int64
}

func TestRecoveryRACK(t *testing.T) {
	// Eight packets leave 1 ms apart; the first RTT sample is 20 ms, so
	// the estimator holds srtt 20 ms / rttvar 10 ms and the RACK window
	// is srtt + max(4·rttvar, 4 ms) = 60 ms.
	cases := []struct {
		name     string
		acks     []arrival
		wantLost []int64
	}{
		{
			name:     "reordering inside the window declares nothing",
			acks:     []arrival{{0.027, 7}, {0.028, 6}, {0.030, 0}},
			wantLost: nil,
		},
		{
			name:     "a gap older than the window is declared exactly once",
			acks:     []arrival{{0.027, 7}, {0.100, 6}, {0.101, 5}, {0.102, 0}},
			wantLost: []int64{0, 1, 2, 3, 4}, // ≥3 behind seq 7 and > 60 ms old at t=0.100
		},
		{
			name:     "a gap within the dup threshold waits for the RTO",
			acks:     []arrival{{0.022, 2}, {0.150, 1}},
			wantLost: nil, // seq 0 is only 2 behind the highest ack
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newBook()
			for i := 0; i < 8; i++ {
				h.emit(float64(i)/1000, 1)
			}
			for _, a := range tc.acks {
				h.ack(a.at, a.seq, 0.020)
			}
			if !equalSeqs(h.cc.losses, tc.wantLost) || !equalSeqs(h.hooked, tc.wantLost) {
				t.Fatalf("OnLoss %v, loss hook %v, want both %v", h.cc.losses, h.hooked, tc.wantLost)
			}
			want := (8 - len(h.cc.acks) - len(tc.wantLost)) * 1000
			if h.Inflight() != want {
				t.Fatalf("inflight %d want %d", h.Inflight(), want)
			}
		})
	}
}

func TestRecoveryRTOLadder(t *testing.T) {
	cases := []struct {
		name   string
		rtt    float64 // one sample before the silence; 0 = none (base 1 s)
		ladder []float64
	}{
		{"no sample: 1 s base doubles to the 3 s ceiling", 0, []float64{1, 2, 3, 3, 3, 3}},
		{"floored base 0.2 s runs the full 2^4", 0.010, []float64{0.2, 0.4, 0.8, 1.6, 3, 3}},
		{"a base above the ceiling is never shortened", 2.0, []float64{6, 6, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newBook()
			now := 0.0
			if tc.rtt > 0 {
				h.emit(0, 1)
				now = tc.rtt
				h.ack(now, 0, tc.rtt)
			}
			// Each rung: one packet into total silence (a real outage
			// sends for a while before going quiet; one packet is enough
			// to keep the liveness clock older than every timeout).
			h.emit(now, 1)
			for i, want := range tc.ladder {
				at, ok := h.Deadline()
				if !ok || math.Abs(at-now-want) > 1e-9 {
					t.Fatalf("rung %d: deadline %v after emission, want RTO %v", i, at-now, want)
				}
				if h.Expire(at - 0.001) {
					t.Fatalf("rung %d: declared 1 ms before the deadline", i)
				}
				if !h.Expire(at) {
					t.Fatalf("rung %d: nothing declared at the deadline", i)
				}
				h.BackOff(at)
				now = at
				h.emit(now, 1)
			}
			if h.backoff > maxRTOBackoff {
				t.Fatalf("backoff exponent %d past its clamp %d", h.backoff, maxRTOBackoff)
			}
			if len(h.cc.losses) != len(tc.ladder) {
				t.Fatalf("%d losses want one per rung (%d)", len(h.cc.losses), len(tc.ladder))
			}
			// Any ack resets the ladder.
			h.ack(now+0.01, h.Lo(), math.Max(tc.rtt, 0.010))
			h.emit(now+0.01, 1)
			if at, _ := h.Deadline(); at-(now+0.01) > h.RTT.RTO()+1e-9 {
				t.Fatalf("RTO %v after an ack, want the base %v", at-(now+0.01), h.RTT.RTO())
			}
		})
	}
}

// Straggler expiries while acks still flow are ordinary congestion: the
// RTO must not back off, or the loss signal the controllers need slows
// down exactly when the path is busy.
func TestRecoveryBackoffNeedsSilence(t *testing.T) {
	h := newBook()
	h.emit(0, 1)
	h.ack(0.010, 0, 0.010) // RTO at its 0.2 s floor
	h.emit(0.010, 1)       // seq 1: its ack will never come
	h.emit(0.150, 1)       // seq 2
	h.ack(0.160, 2, 0.010) // acks still flow 50 ms before the expiry
	if !h.Expire(0.210) {
		t.Fatal("seq 1 not declared at its RTO")
	}
	h.BackOff(0.210)
	h.emit(0.210, 1)
	if at, _ := h.Deadline(); math.Abs(at-0.410) > 1e-9 {
		t.Fatalf("deadline %v: the RTO backed off although an ack arrived 50 ms before the expiry", at)
	}
	// The same expiry in true silence does back off.
	if !h.Expire(0.410) {
		t.Fatal("seq 3 not declared")
	}
	h.BackOff(0.410)
	h.emit(0.410, 1)
	if at, _ := h.Deadline(); math.Abs(at-0.810) > 1e-9 {
		t.Fatalf("deadline %v want 0.410 + 2·0.2 after an expiry in silence", at)
	}
}

func TestRecoveryWatchdogProbesAndResume(t *testing.T) {
	h := newBook()
	h.emit(0, 1)
	h.ack(0.010, 0, 0.010) // RTO 0.2 s → watchdog at max(0.4, 0.5) = 0.5 s of silence
	h.emit(0.010, 4)
	// The controller's rate collapses during the blackout; recovery must
	// hand back the rate it held at the last ack.
	h.cc.rate = 1e4
	// An idle book never trips, however long the silence — and explained
	// silence restarts the clock.
	idle := newBook()
	if idle.Watchdog(100) {
		t.Fatal("watchdog tripped with nothing outstanding")
	}
	if h.Watchdog(0.509) {
		t.Fatal("tripped before 0.5 s of silence")
	}
	if !h.Watchdog(0.510) || !h.InOutage() || h.cc.outages != 1 || h.Trips() != 1 {
		t.Fatalf("no trip at exactly 0.5 s of silence: outage=%v OnOutage=%d", h.InOutage(), h.cc.outages)
	}
	if h.Watchdog(0.520) {
		t.Fatal("tripped twice in one outage")
	}
	h.Expire(0.510)
	inflight, losses := h.Inflight(), len(h.cc.losses)
	// Probe cadence: one at the trip, then one per 0.25 s, polled at
	// 10 ms like the real drivers do.
	var probeAt []float64
	var last *Record
	for i := 0; i <= 100; i++ {
		now := 0.510 + float64(i)*0.010
		if h.ProbeDue(now) {
			probeAt = append(probeAt, now)
			last = h.AddProbe(now, 30)
		}
		h.Expire(now) // probes age out like data, silently
	}
	if len(probeAt) != 5 || probeAt[0] != 0.510 {
		t.Fatalf("probes at %v, want 5 starting at the trip", probeAt)
	}
	for i := 1; i < len(probeAt); i++ {
		if d := probeAt[i] - probeAt[i-1]; math.Abs(d-0.25) > 0.0101 {
			t.Fatalf("probe gap %v want 0.25", d)
		}
	}
	if h.Inflight() != inflight || len(h.cc.losses) != losses || len(h.hooked) != losses {
		t.Fatalf("probes leaked: inflight %d→%d, losses %d→%d, hook %d",
			inflight, h.Inflight(), losses, len(h.cc.losses), len(h.hooked))
	}
	// The first delivered ack — a probe's — ends the outage.
	acks := len(h.cc.acks)
	h.ack(1.60, last.Seq, 0)
	if h.InOutage() || h.Recoveries() != 1 {
		t.Fatalf("no recovery: outage=%v recoveries=%d", h.InOutage(), h.Recoveries())
	}
	if len(h.cc.resumeRates) != 1 || h.cc.resumeRates[0] != 2e6 {
		t.Fatalf("OnRecovery got %v, want the last ack-time rate 2e6", h.cc.resumeRates)
	}
	if len(h.cc.acks) != acks || h.RTT.SRTT() != 0.010 {
		t.Fatalf("probe ack reached the controller or the estimator: acks %d→%d srtt %v", acks, len(h.cc.acks), h.RTT.SRTT())
	}
	if h.ProbeDue(2.0) {
		t.Fatal("probing continued after recovery")
	}
	// Touch: silence a driver explains never reads as an outage.
	h.emit(1.61, 1)
	for now := 1.62; now < 4; now += 0.010 {
		h.Touch(now)
		if h.Watchdog(now) {
			t.Fatal("explained silence tripped the watchdog")
		}
	}
}

// pauseCC implements only PauseAware: the watchdog falls back to the
// app-pause path.
type pauseCC struct {
	bookCC
	paused int
}

func (c *pauseCC) OnAppPause(float64)  { c.paused++ }
func (c *pauseCC) OnAppResume(float64) { c.paused-- }

func TestRecoveryPauseAwareFallback(t *testing.T) {
	// Hide the OutageAware methods so only PauseAware shows.
	type pauseOnly struct {
		Controller
		PauseAware
	}
	cc := &pauseCC{bookCC: bookCC{rate: 1e6, cwnd: math.Inf(1)}}
	var r Recovery
	r.Init(pauseOnly{cc, cc}, func(*Record, float64) {})
	r.Add(0, 1000, 0, 0)
	if !r.Watchdog(2.0) || cc.paused != 1 || cc.outages != 0 {
		t.Fatalf("trip: paused=%d outages=%d", cc.paused, cc.outages)
	}
	if !r.Alive(2.5) || cc.paused != 0 {
		t.Fatalf("recovery did not resume: paused=%d", cc.paused)
	}
}

func TestRecoveryCapRetiresOldest(t *testing.T) {
	h := newBook()
	h.emit(0, maxRecords)
	if h.Len() != maxRecords || len(h.cc.losses) != 0 {
		t.Fatalf("len %d losses %d before the cap", h.Len(), len(h.cc.losses))
	}
	h.emit(0.001, 1)
	if h.Len() != maxRecords {
		t.Fatalf("len %d want pinned at %d", h.Len(), maxRecords)
	}
	if !equalSeqs(h.cc.losses, []int64{0}) || h.Find(0) != nil || h.Find(1) == nil {
		t.Fatalf("cap retired %v, want the oldest record (seq 0)", h.cc.losses)
	}
	if h.Inflight() != maxRecords*1000 {
		t.Fatalf("inflight %d", h.Inflight())
	}
}

// The steady-state emit/ack cycle writes records into ring slots that
// retired ones vacated: nothing allocates once the ring has grown to the
// window.
func TestRecoveryZeroAllocSteadyState(t *testing.T) {
	h := newBook()
	now := 0.0
	h.emit(now, 64)
	next := int64(0)
	cycle := func() {
		now += 0.001
		h.Alive(now)
		if r := h.Find(next); r != nil {
			h.Ack(r)
			h.RTT.Update(0.064)
		}
		next++
		h.Detect(now)
		h.Expire(now)
		h.Add(now, 1000, now, now)
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Fatalf("%v allocs per ack/emit cycle, want 0", a)
	}
	if h.Len() != 64 || h.Inflight() != 64000 {
		t.Fatalf("book drifted: len %d inflight %d", h.Len(), h.Inflight())
	}
}

func equalSeqs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refBook is the book as it stood before the ring: pooled *Records in a
// sequence-ordered slice with a free list, found by binary search,
// compacted when the dead prefix outweighs the rest. It is the reference
// model for where records live; the loss rules are copied with it so the
// two can be driven side by side. The outage machinery, which never
// touches a record, is left out.
type refBook struct {
	RTT RTTEstimator

	cc     Controller
	onLost func(r *Record, now float64)

	recs     []*Record
	head     int
	free     []*Record
	nextSeq  int64
	maxAcked int64
	inflight int

	backoff   int
	lastAlive float64
}

func (r *refBook) Add(now float64, size int, sentAt, agedFrom float64) *Record {
	rec := r.add(now, size, sentAt, agedFrom)
	r.inflight += size
	return rec
}

func (r *refBook) AddProbe(now float64, size int) *Record {
	rec := r.add(now, size, now, now)
	rec.Probe = true
	return rec
}

func (r *refBook) add(now float64, size int, sentAt, agedFrom float64) *Record {
	if r.Len() >= maxRecords {
		r.markLost(r.recs[r.head], now)
		r.prune()
	}
	var rec *Record
	if n := len(r.free); n > 0 {
		rec = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		rec = new(Record)
	}
	*rec = Record{SentPacket: SentPacket{Seq: r.nextSeq, Size: size, SentAt: sentAt}, AgedFrom: agedFrom}
	r.nextSeq++
	r.recs = append(r.recs, rec)
	return rec
}

func (r *refBook) Find(seq int64) *Record {
	lo, hi := r.head, len(r.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.recs[mid].Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.recs) && r.recs[lo].Seq == seq && r.recs[lo].Live() {
		return r.recs[lo]
	}
	return nil
}

func (r *refBook) Records() []*Record { return r.recs[r.head:] }
func (r *refBook) Len() int           { return len(r.recs) - r.head }

func (r *refBook) Alive(now float64) { r.lastAlive, r.backoff = now, 0 }

func (r *refBook) Ack(rec *Record) {
	rec.acked = true
	if rec.Seq > r.maxAcked {
		r.maxAcked = rec.Seq
	}
	if !rec.Probe {
		r.inflight -= rec.Size
	}
}

func (r *refBook) Detect(now float64) {
	window := r.RTT.SRTT() + math.Max(4*r.RTT.RTTVar(), 0.004)
	for _, rec := range r.Records() {
		if rec.Seq > r.maxAcked-dupAckThreshold {
			break
		}
		if rec.Live() && now-rec.AgedFrom > window {
			r.markLost(rec, now)
		}
	}
	r.prune()
}

func (r *refBook) Expire(now float64) (declared bool) {
	rto := r.effRTO() - 1e-12
	for _, rec := range r.Records() {
		if !rec.Live() {
			continue
		}
		if now-rec.AgedFrom < rto {
			break
		}
		r.markLost(rec, now)
		declared = true
	}
	r.prune()
	return declared
}

func (r *refBook) Deadline() (at float64, ok bool) {
	if r.Len() == 0 {
		return 0, false
	}
	return r.recs[r.head].AgedFrom + r.effRTO(), true
}

func (r *refBook) BackOff(now float64) {
	if now-r.lastAlive >= r.effRTO() && r.backoff < maxRTOBackoff {
		r.backoff++
	}
}

func (r *refBook) effRTO() float64 {
	base := r.RTT.RTO()
	rto := base * float64(int64(1)<<uint(r.backoff))
	if rto > maxRTO {
		return math.Max(maxRTO, base)
	}
	return rto
}

func (r *refBook) markLost(rec *Record, now float64) {
	rec.lost = true
	if rec.Probe {
		return
	}
	r.inflight -= rec.Size
	r.onLost(rec, now)
	r.cc.OnLoss(Loss{
		Seq: rec.Seq, Bytes: rec.Size, SentAt: rec.SentAt, Now: now,
		MI: rec.MI, Inflight: r.inflight,
	})
}

func (r *refBook) prune() {
	for r.head < len(r.recs) && !r.recs[r.head].Live() {
		r.free = append(r.free, r.recs[r.head])
		r.head++
	}
	if r.head > len(r.recs)-r.head {
		n := copy(r.recs, r.recs[r.head:])
		r.recs = r.recs[:n]
		r.head = 0
	}
}

// lossLog is what one book told its driver and its controller, in order.
type lossLog struct {
	bookCC
	hook []Record // the loss hook's record, by value, at the call
	loss []Loss
}

func (l *lossLog) OnLoss(v Loss)                 { l.loss = append(l.loss, v) }
func (l *lossLog) onLost(r *Record, now float64) { l.hook = append(l.hook, *r) }

// bookModel drives the ring book and the reference with one schedule
// decoded from a byte string, comparing everything a driver can see
// after every operation.
type bookModel struct {
	t        *testing.T
	data     []byte
	pos      int
	floodExp int // every operation on a large book is O(book): few schedules afford 16
	now      float64
	ring     Recovery
	ref      refBook
	ringLog  lossLog
	refLog   lossLog
	compared int // loss-log entries already checked
}

func (m *bookModel) next() int {
	if m.pos >= len(m.data) {
		return 0
	}
	m.pos++
	return int(m.data[m.pos-1])
}

func (m *bookModel) add(n int) {
	for i := 0; i < n; i++ {
		// Sizes vary, and the schedule stamp can lead the clock as on the
		// real datapaths; both follow from the sequence number so that a
		// schedule is only its operations.
		size, sentAt := 100+int(m.ring.Next()%97), m.now+float64(m.ring.Next()%4)*0.001
		a, b := m.ring.Add(m.now, size, sentAt, max(m.now, sentAt)), m.ref.Add(m.now, size, sentAt, max(m.now, sentAt))
		a.MI, a.Tag, b.MI, b.Tag = a.Seq%7, a.Seq*3, b.Seq%7, b.Seq*3
	}
}

// ack retires seq in both books if it is live in both, and fails if they
// disagree on that.
func (m *bookModel) ack(seq int64) {
	a, b := m.ring.Find(seq), m.ref.Find(seq)
	if (a == nil) != (b == nil) {
		m.t.Fatalf("t=%v Find(%d): ring %v, reference %v", m.now, seq, a, b)
	}
	if a != nil {
		m.ring.Ack(a)
		m.ref.Ack(b)
	}
}

func (m *bookModel) op() {
	switch op := m.next() % 8; op {
	case 0:
		m.now += float64(m.next()) * 0.0005
	case 1:
		m.add(1)
	case 2:
		m.add(1 + m.next()%64)
	case 3:
		m.ring.AddProbe(m.now, 30)
		m.ref.AddProbe(m.now, 30)
	case 4: // one per-packet ack, the simulator's and the engine fetch's shape
		seq := m.ring.Lo() - 2 + int64(m.next())*(int64(m.ring.Len())+4)/256
		m.ring.Alive(m.now)
		m.ref.Alive(m.now)
		m.ack(seq)
		rtt := 0.005 + float64(m.next())*0.0002
		m.ring.RTT.Update(rtt)
		m.ref.RTT.Update(rtt)
		m.ring.Detect(m.now)
		m.ref.Detect(m.now)
	case 5: // one range ack, the engine's shape: a cumulative point plus a sparse tail
		m.ring.Alive(m.now)
		m.ref.Alive(m.now)
		cum := m.ring.Lo() + int64(m.next()%32)
		keep := m.next() | 1
		for q, last := m.ring.Lo(), min(cum+64, m.ring.Next()-1); q <= last; q++ {
			if q < cum || int(q)%keep == 0 {
				m.ack(q)
			}
		}
		m.ring.Detect(m.now)
		m.ref.Detect(m.now)
	case 6:
		a, b := m.ring.Expire(m.now), m.ref.Expire(m.now)
		if a != b {
			m.t.Fatalf("t=%v Expire: ring %v, reference %v", m.now, a, b)
		}
		if a {
			m.ring.BackOff(m.now)
			m.ref.BackOff(m.now)
		}
	case 7: // a flood with no acks: 2^floodExp can reach the cap and go past it
		m.add(min(1<<min(m.next()%17, m.floodExp), 5*maxRecords/2-int(m.ring.Next())))
	}
	m.compare(false)
}

// compare checks every observable: size, inflight, deadline, the loss
// calls so far, and Find — over every sequence ever issued while that is
// cheap or when full is set, else over both ends of the book and a
// stride through its middle.
func (m *bookModel) compare(full bool) {
	m.t.Helper()
	if a, b := m.ring.Len(), m.ref.Len(); a != b {
		m.t.Fatalf("t=%v Len: ring %d, reference %d", m.now, a, b)
	}
	if a, b := m.ring.Inflight(), m.ref.inflight; a != b {
		m.t.Fatalf("t=%v Inflight: ring %d, reference %d", m.now, a, b)
	}
	aAt, aOK := m.ring.Deadline()
	bAt, bOK := m.ref.Deadline()
	if aAt != bAt || aOK != bOK {
		m.t.Fatalf("t=%v Deadline: ring %v %v, reference %v %v", m.now, aAt, aOK, bAt, bOK)
	}
	if m.ring.Len() > 0 && m.ring.Lo() != m.ref.Records()[0].Seq {
		m.t.Fatalf("t=%v Lo: ring %d, reference %d", m.now, m.ring.Lo(), m.ref.Records()[0].Seq)
	}
	if len(m.ringLog.loss) != len(m.refLog.loss) || len(m.ringLog.hook) != len(m.refLog.hook) {
		m.t.Fatalf("t=%v loss calls: ring %d/%d, reference %d/%d", m.now,
			len(m.ringLog.hook), len(m.ringLog.loss), len(m.refLog.hook), len(m.refLog.loss))
	}
	for ; m.compared < len(m.refLog.loss); m.compared++ {
		i := m.compared
		if m.ringLog.loss[i] != m.refLog.loss[i] || m.ringLog.hook[i] != m.refLog.hook[i] {
			m.t.Fatalf("t=%v loss call %d: ring %+v (hook %+v), reference %+v (hook %+v)", m.now, i,
				m.ringLog.loss[i], m.ringLog.hook[i], m.refLog.loss[i], m.refLog.hook[i])
		}
	}
	end := m.ring.Next() + 2
	if m.ring.Next() != m.ref.nextSeq {
		m.t.Fatalf("t=%v Next: ring %d, reference %d", m.now, m.ring.Next(), m.ref.nextSeq)
	}
	stride := int64(1)
	if !full && end > 2048 {
		stride = 997
	}
	for q := int64(-2); q < end; q++ {
		if stride > 1 && q > 64 && q < m.ring.Lo()-64 {
			q = m.ring.Lo() - 64 // retired long ago: only full compares look
		} else if stride > 1 && q > m.ring.Lo()+64 && q < end-64 {
			q = min(q+stride, end-64)
		}
		a, b := m.ring.Find(q), m.ref.Find(q)
		if (a == nil) != (b == nil) || a != nil && *a != *b {
			m.t.Fatalf("t=%v Find(%d): ring %+v, reference %+v", m.now, q, a, b)
		}
	}
}

func checkBook(t *testing.T, data []byte, floodExp int) {
	m := &bookModel{t: t, data: data, floodExp: floodExp}
	m.ringLog.rate, m.refLog.rate = 2e6, 2e6
	m.ring.Init(&m.ringLog, m.ringLog.onLost)
	m.ref.cc, m.ref.onLost, m.ref.maxAcked = &m.refLog, m.refLog.onLost, -1
	for m.pos < len(m.data) {
		m.op()
	}
	// Drain by RTO so every record's retirement is compared too.
	for i := 0; m.ring.Len() > 0 && i < 8; i++ {
		m.now += maxRTO + 1
		m.ring.Expire(m.now)
		m.ref.Expire(m.now)
		m.compare(false)
	}
	m.compare(true)
	if m.ring.Len() != 0 {
		t.Fatalf("%d records survived the drain", m.ring.Len())
	}
}

func TestRecoveryBookMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	for i := 0; i < 200; i++ {
		data := make([]byte, 50+rng.Intn(1000))
		rng.Read(data)
		checkBook(t, data, 8+8*(i/199)) // the last one with floods to the cap
	}
}

// The two places where a record's slot is recomputed or reused: the ring
// doubling while the book straddles its end, and the cap force-retiring
// the oldest record into the slot the newest then takes.
func TestRecoveryBookGrowthAndCap(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"growth while wrapped", []byte{
			2, 19, // 20 records: the ring is 32
			5, 12, 1, // all 20 acked: the book is empty and lo sits mid-ring
			2, 39, 3, 2, 39, // 81 more with a probe between: wraps, then doubles twice
			0, 40, 5, 3, 2, 0, 200, 6, // sparse acks, then the rest ages out
		}},
		{"across the cap with probes interleaved", []byte{
			7, 15, 3, 7, 15, 3, // 65 536 records and two probes: two past the cap
			0, 10, 4, 128, 20, // one ack mid-book: RACK declares the older half
			7, 16, 3, 1, // a second cap's worth: every add past it retires one
			0, 255, 5, 31, 7, 6,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkBook(t, tc.data, 16) })
	}
}

func FuzzRecoveryBook(f *testing.F) {
	f.Add([]byte{2, 19, 5, 12, 1, 2, 39, 3, 2, 39, 0, 40, 5, 3, 2, 0, 200, 6})
	f.Add([]byte{1, 1, 1, 3, 0, 100, 4, 255, 9, 6, 1, 4, 0, 0})
	f.Add([]byte{7, 1, 0, 0, 30, 4, 200, 50, 2, 63, 5, 31, 3, 0, 255, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) { checkBook(t, data, 9) })
}
