package transport

import (
	"math"
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
			h.ack(now+0.01, h.Records()[0].Seq, math.Max(tc.rtt, 0.010))
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

// The steady-state emit/ack cycle recycles records through the
// freelist and compacts in place: nothing allocates once warm, whatever
// the window.
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
