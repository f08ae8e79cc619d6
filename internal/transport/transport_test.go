package transport

import (
	"math"
	"testing"
	"testing/quick"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
)

// rateCC is a minimal rate-based controller for exercising the sender.
type rateCC struct {
	rate   float64
	acks   []Ack
	losses []Loss
	sent   int
}

func (c *rateCC) Name() string                    { return "test-rate" }
func (c *rateCC) OnSend(_ float64, p *SentPacket) { c.sent++; p.MI = 42 }
func (c *rateCC) OnAck(a Ack)                     { c.acks = append(c.acks, a) }
func (c *rateCC) OnLoss(l Loss)                   { c.losses = append(c.losses, l) }
func (c *rateCC) PacingRate() float64             { return c.rate }
func (c *rateCC) CWnd() float64                   { return math.Inf(1) }

// windowCC is a minimal window-based controller (fixed cwnd, default pacing).
type windowCC struct {
	cwnd   float64
	acks   int
	losses int
	paused int
}

func (c *windowCC) Name() string                { return "test-window" }
func (c *windowCC) OnSend(float64, *SentPacket) {}
func (c *windowCC) OnAck(Ack)                   { c.acks++ }
func (c *windowCC) OnLoss(Loss)                 { c.losses++ }
func (c *windowCC) PacingRate() float64         { return 0 }
func (c *windowCC) CWnd() float64               { return c.cwnd }
func (c *windowCC) OnAppPause(float64)          { c.paused++ }
func (c *windowCC) OnAppResume(float64)         { c.paused-- }

func testPath(s *sim.Sim, mbps float64, bufBytes int, rttSec float64) *netem.Path {
	l := netem.NewLink(s, mbps, bufBytes, rttSec/2)
	return &netem.Path{Link: l, AckDelay: rttSec / 2}
}

func TestRateSenderThroughput(t *testing.T) {
	s := sim.New(1)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &rateCC{rate: 20e6 / 8} // 20 Mbps
	snd := NewSender(1, p, cc)
	snd.Start()
	s.Run(10)
	gotMbps := float64(snd.AckedBytes()) * 8 / 10 / 1e6
	if math.Abs(gotMbps-20) > 1 {
		t.Fatalf("throughput %.2f Mbps want ~20", gotMbps)
	}
	if len(cc.losses) != 0 {
		t.Fatalf("unexpected losses: %d", len(cc.losses))
	}
}

func TestAckCarriesRTTAndMI(t *testing.T) {
	s := sim.New(1)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &rateCC{rate: 10e6 / 8}
	snd := NewSender(1, p, cc)
	snd.Start()
	s.Run(1)
	if len(cc.acks) == 0 {
		t.Fatal("no acks")
	}
	a := cc.acks[0]
	base := p.BaseRTT()
	if a.RTT < base-1e-9 || a.RTT > base+0.002 {
		t.Fatalf("rtt %v want ≈ base %v", a.RTT, base)
	}
	if a.MI != 42 {
		t.Fatalf("MI tag lost: %d", a.MI)
	}
	if a.OWD <= 0 || a.OWD >= a.RTT {
		t.Fatalf("owd %v out of range (rtt %v)", a.OWD, a.RTT)
	}
	if a.Bytes != netem.MTU {
		t.Fatalf("ack bytes %d", a.Bytes)
	}
}

func TestOverdrivenLinkCausesLossAndInflation(t *testing.T) {
	s := sim.New(1)
	p := testPath(s, 10, 20*netem.MTU, 0.030)
	cc := &rateCC{rate: 20e6 / 8} // 2x capacity
	snd := NewSender(1, p, cc)
	snd.RecordRTT = true
	snd.Start()
	s.Run(10)
	if len(cc.losses) == 0 {
		t.Fatal("overdriven link must drop")
	}
	// Delivered should be capped at link capacity.
	gotMbps := float64(snd.AckedBytes()) * 8 / 10 / 1e6
	if gotMbps > 10.5 {
		t.Fatalf("throughput %v exceeds capacity", gotMbps)
	}
	// RTT must show queue inflation near full buffer.
	maxRTT := 0.0
	for _, r := range snd.RTTSamples() {
		if r > maxRTT {
			maxRTT = r
		}
	}
	queueDelay := float64(20*netem.MTU) / p.Link.Rate
	if maxRTT < p.BaseRTT()+queueDelay*0.8 {
		t.Fatalf("max rtt %v shows no inflation (base %v, qd %v)", maxRTT, p.BaseRTT(), queueDelay)
	}
}

func TestWindowSenderIsAckClocked(t *testing.T) {
	s := sim.New(1)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &windowCC{cwnd: 20 * netem.MTU}
	snd := NewSender(1, p, cc)
	snd.Start()
	s.Run(5)
	// Steady state: cwnd/RTT throughput ≈ 20·1500·8/0.030 = 8 Mbps.
	gotMbps := float64(snd.AckedBytes()) * 8 / 5 / 1e6
	if math.Abs(gotMbps-8) > 1.2 {
		t.Fatalf("window throughput %.2f want ~8", gotMbps)
	}
	if snd.InflightBytes() > 20*netem.MTU {
		t.Fatalf("inflight %d exceeds cwnd", snd.InflightBytes())
	}
}

func TestFiniteTransferCompletes(t *testing.T) {
	s := sim.New(1)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &rateCC{rate: 50e6 / 8}
	snd := NewSender(1, p, cc)
	snd.Limit = 100 * 1000
	var doneAt float64
	snd.OnComplete = func(now float64) { doneAt = now }
	snd.Start()
	s.Run(10)
	if !snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if snd.AckedBytes() != 100*1000 {
		t.Fatalf("acked %d want 100000", snd.AckedBytes())
	}
	// 100 KB at 50 Mbps ≈ 16 ms + RTT.
	if doneAt <= 0.030 || doneAt > 0.2 {
		t.Fatalf("completion time %v implausible", doneAt)
	}
}

func TestFiniteTransferRetransmitsUnderLoss(t *testing.T) {
	s := sim.New(5)
	p := testPath(s, 50, 1<<20, 0.030)
	p.Link.LossProb = 0.05
	cc := &rateCC{rate: 40e6 / 8}
	snd := NewSender(1, p, cc)
	snd.Limit = 500 * 1000
	snd.Start()
	s.Run(60)
	if !snd.Done() {
		t.Fatalf("lossy transfer did not complete (acked %d lost %d)", snd.AckedBytes(), snd.LostBytes())
	}
	if snd.LostBytes() == 0 {
		t.Fatal("expected some losses at 5%")
	}
	if snd.AckedBytes() != 500*1000 {
		t.Fatalf("acked %d want exactly limit", snd.AckedBytes())
	}
}

func TestDupAckLossDetection(t *testing.T) {
	s := sim.New(9)
	p := testPath(s, 10, 5*netem.MTU, 0.030) // tiny buffer forces tail drops
	cc := &rateCC{rate: 30e6 / 8}
	snd := NewSender(1, p, cc)
	snd.Start()
	s.Run(3)
	if len(cc.losses) == 0 {
		t.Fatal("no losses detected")
	}
	// Losses must be detected within a few RTTs, not only via RTO.
	first := cc.losses[0]
	if first.Now-first.SentAt > 1.0 {
		t.Fatalf("loss detection too slow: %v", first.Now-first.SentAt)
	}
}

func TestRTOFiresWhenAllAcksLost(t *testing.T) {
	s := sim.New(2)
	p := testPath(s, 10, 1<<20, 0.030)
	p.Link.LossProb = 1.0 // everything vanishes
	cc := &rateCC{rate: 1e6 / 8}
	snd := NewSender(1, p, cc)
	snd.Start()
	s.Run(5)
	if len(cc.losses) == 0 {
		t.Fatal("RTO never declared losses on black-hole path")
	}
	if snd.InflightBytes() < 0 {
		t.Fatalf("negative inflight %d", snd.InflightBytes())
	}
}

func TestPauseResume(t *testing.T) {
	s := sim.New(1)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &windowCC{cwnd: 1 << 20}
	snd := NewSender(1, p, cc)
	snd.Start()
	s.Run(1)
	ackedAtPause := int64(0)
	s.At(1.0, func() { snd.Pause() })
	s.Run(1.2)
	ackedAtPause = snd.AckedBytes()
	s.Run(3.0) // stay paused (allow inflight to drain)
	drained := snd.AckedBytes()
	if drained-ackedAtPause > 1<<20 {
		t.Fatalf("flow kept sending while paused: %d extra", drained-ackedAtPause)
	}
	snd.Resume()
	s.Run(4.0)
	if snd.AckedBytes() <= drained {
		t.Fatal("flow did not resume")
	}
	if cc.paused != 0 {
		t.Fatalf("pause/resume callbacks unbalanced: %d", cc.paused)
	}
}

func TestExtendRevivesCompletedFlow(t *testing.T) {
	s := sim.New(1)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &rateCC{rate: 50e6 / 8}
	snd := NewSender(1, p, cc)
	snd.Limit = 50 * 1000
	completions := 0
	snd.OnComplete = func(float64) { completions++ }
	snd.Start()
	s.Run(2)
	if completions != 1 {
		t.Fatalf("completions=%d", completions)
	}
	snd.Extend(50 * 1000)
	s.Run(4)
	if completions != 2 {
		t.Fatalf("completions after extend=%d", completions)
	}
	if snd.AckedBytes() != 100*1000 {
		t.Fatalf("acked %d", snd.AckedBytes())
	}
}

func TestRTTEstimator(t *testing.T) {
	var e RTTEstimator
	if e.Valid() || e.RTO() != 1.0 {
		t.Fatal("fresh estimator state")
	}
	e.Update(0.1)
	if e.SRTT() != 0.1 || e.MinRTT() != 0.1 {
		t.Fatal("first sample")
	}
	e.Update(0.05)
	if e.MinRTT() != 0.05 {
		t.Fatal("min tracking")
	}
	for i := 0; i < 100; i++ {
		e.Update(0.2)
	}
	if math.Abs(e.SRTT()-0.2) > 1e-3 {
		t.Fatalf("srtt convergence: %v", e.SRTT())
	}
	if e.RTO() < 0.2 {
		t.Fatalf("rto floor: %v", e.RTO())
	}
}

func TestReceiverDeliveryHook(t *testing.T) {
	s := sim.New(1)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &rateCC{rate: 10e6 / 8}
	snd := NewSender(1, p, cc)
	var delivered int64
	snd.OnDeliver = func(_ float64, b int) { delivered += int64(b) }
	snd.Start()
	s.Run(2)
	if delivered != snd.ReceivedBytes() {
		t.Fatalf("hook total %d vs counter %d", delivered, snd.ReceivedBytes())
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// Property: byte conservation under arbitrary loss and buffer settings —
// acked + lost + inflight == launched bytes, and inflight is never
// negative.
func TestQuickByteConservation(t *testing.T) {
	f := func(seed int64, lossPct, bufPkts uint8, rateMbps uint8) bool {
		s := sim.New(seed)
		buf := (int(bufPkts)%64 + 2) * netem.MTU
		p := testPath(s, 20, buf, 0.020)
		p.Link.LossProb = float64(lossPct%30) / 100
		rate := float64(rateMbps%40+1) * 1e6 / 8
		cc := &rateCC{rate: rate}
		snd := NewSender(1, p, cc)
		snd.Start()
		s.Run(5)
		snd.Stop()
		if snd.InflightBytes() < 0 {
			return false
		}
		total := snd.AckedBytes() + snd.LostBytes() + int64(snd.InflightBytes())
		// launched isn't exported; reconstruct: every OnSend call is MTU.
		launched := int64(cc.sent) * int64(netem.MTU)
		return total == launched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a finite lossy transfer always completes with exactly Limit
// bytes acked.
func TestQuickFiniteCompletion(t *testing.T) {
	f := func(seed int64, lossPct uint8, kb uint8) bool {
		s := sim.New(seed)
		p := testPath(s, 20, 1<<20, 0.020)
		p.Link.LossProb = float64(lossPct%20) / 100
		cc := &rateCC{rate: 10e6 / 8}
		snd := NewSender(1, p, cc)
		snd.Limit = int64(kb%100+1) * 1000
		snd.Start()
		s.Run(300)
		return snd.Done() && snd.AckedBytes() == snd.Limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendWhilePausedDoesNotSend(t *testing.T) {
	s := sim.New(1)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &rateCC{rate: 10e6 / 8}
	snd := NewSender(1, p, cc)
	snd.Limit = 30000
	snd.Start()
	s.Run(1)
	snd.Pause()
	acked := snd.AckedBytes()
	snd.Extend(300000)
	s.Run(3)
	if snd.AckedBytes()-acked > 1<<16 {
		t.Fatalf("paused flow sent %d bytes after Extend", snd.AckedBytes()-acked)
	}
	snd.Resume()
	s.Run(6)
	if !snd.Done() {
		t.Fatal("flow should complete after resume")
	}
}

func TestStopSilencesFlow(t *testing.T) {
	s := sim.New(2)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &rateCC{rate: 20e6 / 8}
	snd := NewSender(1, p, cc)
	snd.Start()
	s.Run(1)
	snd.Stop()
	acked := snd.AckedBytes()
	s.Run(3)
	// Only in-flight packets may still ack after Stop.
	if extra := snd.AckedBytes() - acked; extra > 1<<17 {
		t.Fatalf("stopped flow delivered %d extra bytes", extra)
	}
}

func TestAckJitterOnReturnPath(t *testing.T) {
	s := sim.New(3)
	p := testPath(s, 50, 1<<20, 0.030)
	p.AckJitter = netem.LognormalNoise{Median: 0.002, Sigma: 0.5}
	cc := &rateCC{rate: 10e6 / 8}
	snd := NewSender(1, p, cc)
	snd.RecordRTT = true
	snd.Start()
	s.Run(5)
	// RTTs must reflect return-path jitter: strictly above base for most
	// samples, with visible spread.
	base := p.BaseRTT()
	above := 0
	for _, r := range snd.RTTSamples() {
		if r > base+0.0005 {
			above++
		}
	}
	if above < len(snd.RTTSamples())/2 {
		t.Fatalf("ack jitter not reflected: %d/%d above base", above, len(snd.RTTSamples()))
	}
}

func TestNoPacingBurstsWindow(t *testing.T) {
	s := sim.New(4)
	p := testPath(s, 50, 1<<20, 0.030)
	cc := &windowCC{cwnd: 30 * netem.MTU}
	snd := NewSender(1, p, cc)
	snd.NoPacing = true
	snd.Start()
	s.Run(0.001)
	// Unpaced: the whole initial window leaves in the first instant.
	if snd.InflightBytes() < 30*netem.MTU-netem.MTU {
		t.Fatalf("unpaced sender should burst the window: inflight %d", snd.InflightBytes())
	}
}

// pacedCC is a rate-based controller that keeps nothing per ack.
type pacedCC struct {
	rate float64
	acks int
}

func (c *pacedCC) Name() string                { return "test-paced" }
func (c *pacedCC) OnSend(float64, *SentPacket) {}
func (c *pacedCC) OnAck(Ack)                   { c.acks++ }
func (c *pacedCC) OnLoss(Loss)                 {}
func (c *pacedCC) PacingRate() float64         { return c.rate }
func (c *pacedCC) CWnd() float64               { return math.Inf(1) }

// The per-packet path — the pacing tick, emit, two hops, delivery, the
// ack's return, the RTO deadline moving — allocates nothing: packets
// and flights are recycled, the pacing tick takes no handle and the RTO
// timer stands still. Garbage per packet is what makes a long
// simulation's wall time depend on the collector, so it is pinned here,
// for a window-limited flow (ack-clocked ticks) and a rate-paced one (a
// tick per train).
func TestSteadyStateAllocsPerPacket(t *testing.T) {
	window := &windowCC{cwnd: 200 * netem.MTU}
	paced := &pacedCC{rate: 40e6 / 8}
	for _, tc := range []struct {
		name string
		cc   Controller
		acks *int
	}{
		{"window", window, &window.acks},
		{"paced", paced, &paced.acks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			first := netem.NewLink(s, 100, 1<<20, 0.005)
			p := &netem.Path{Link: first, Hops: []*netem.Link{netem.NewLink(s, 50, 1<<20, 0.010)}, AckDelay: 0.015}
			snd := NewSender(1, p, tc.cc)
			snd.Start()
			s.Run(2) // fill the window, size the rings and the pools
			acks := *tc.acks
			perRun := testing.AllocsPerRun(20, func() { s.Run(s.Now() + 0.1) })
			pkts := float64(*tc.acks-acks) / 21 // AllocsPerRun makes one warm-up call
			if pkts < 100 {
				t.Fatalf("only %.0f packets per slice: the flow is not running", pkts)
			}
			if perRun != 0 {
				t.Fatalf("%.0f allocations per %.0f delivered packets, want 0", perRun, pkts)
			}
		})
	}
}
