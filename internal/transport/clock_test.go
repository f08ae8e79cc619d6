package transport

import (
	"testing"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
)

// fakeEvent is one scheduled callback on the fake clock.
type fakeEvent struct {
	at      float64
	fn      func()
	stopped bool
}

func (e *fakeEvent) Stop() bool {
	was := !e.stopped
	e.stopped = true
	return was
}

// fakeClock is a hand-driven Clock: tests set the time and decide
// which scheduled callbacks fire. It proves the sender's timebase is
// genuinely injected — nothing below depends on the simulator's clock.
type fakeClock struct {
	now    float64
	events []*fakeEvent
}

func (c *fakeClock) Now() float64 { return c.now }

func (c *fakeClock) At(t float64, fn func()) Timer {
	e := &fakeEvent{at: t, fn: fn}
	c.events = append(c.events, e)
	return e
}

// runUntil fires pending events in time order up to and including t,
// then advances the clock to t.
func (c *fakeClock) runUntil(t float64) {
	for {
		best := -1
		for i, e := range c.events {
			if !e.stopped && e.at <= t && (best < 0 || e.at < c.events[best].at) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := c.events[best]
		e.stopped = true
		if e.at > c.now {
			c.now = e.at
		}
		e.fn()
	}
	if t > c.now {
		c.now = t
	}
}

// pending reports whether any live event is scheduled at time at.
func (c *fakeClock) pending(at float64) bool {
	for _, e := range c.events {
		if !e.stopped && e.at == at {
			return true
		}
	}
	return false
}

// newFakeSender builds a sender on a fake clock. The path still exists
// (emit hands packets to the link) but the simulation never runs, so
// the test delivers acks by hand through handleAck.
func newFakeSender(cc Controller, fc *fakeClock) *Sender {
	s := sim.New(1)
	p := testPath(s, 1000, 1<<20, 0.030)
	snd := NewSender(1, p, cc)
	snd.Burst = 1
	snd.Clock = fc
	return snd
}

func TestInjectedClockSetsTimebase(t *testing.T) {
	fc := &fakeClock{now: 50}
	cc := &rateCC{rate: 1.5e6}
	snd := newFakeSender(cc, fc)
	snd.Start()
	fc.runUntil(50)
	if snd.startTime != 50 {
		t.Fatalf("startTime %v want 50 (injected clock)", snd.startTime)
	}
	if first := snd.book.Find(0); first == nil || first.SentAt != 50 {
		t.Fatalf("first packet %+v, want SentAt 50", first)
	}
	// The RTO backstop must be armed on the injected clock too:
	// initial RTO is 1 s after the oldest outstanding packet.
	if !fc.pending(51) {
		t.Fatal("RTO timer not scheduled on the injected clock")
	}
}

// emitEight runs the paced sender for 7 ms of fake time: at 1.5e6 B/s
// and Burst 1, exactly eight MTU packets go out, 1 ms apart.
func emitEight(t *testing.T, snd *Sender, fc *fakeClock) {
	t.Helper()
	snd.Start()
	fc.runUntil(100.0075) // past the 8th emit despite float accumulation
	if n := snd.OutstandingPackets(); n != 8 {
		t.Fatalf("emitted %d packets want 8", n)
	}
}

func TestDuplicateAckIsIdempotent(t *testing.T) {
	fc := &fakeClock{now: 100}
	cc := &rateCC{rate: 1.5e6}
	snd := newFakeSender(cc, fc)
	emitEight(t, snd, fc)
	fc.now = 100.030
	pkt := &netem.Packet{FlowID: 1, Seq: 0, Size: netem.MTU, SentAt: 100}
	snd.handleAck(pkt, 100.015)
	snd.handleAck(pkt, 100.015) // exact duplicate
	if len(cc.acks) != 1 {
		t.Fatalf("OnAck fired %d times for a duplicated ack, want 1", len(cc.acks))
	}
	if snd.AckedBytes() != netem.MTU {
		t.Fatalf("acked %d bytes want %d", snd.AckedBytes(), netem.MTU)
	}
	if snd.InflightBytes() != 7*netem.MTU {
		t.Fatalf("inflight %d want %d", snd.InflightBytes(), 7*netem.MTU)
	}
}

func TestReorderedAckWithinWindowNoLoss(t *testing.T) {
	fc := &fakeClock{now: 100}
	cc := &rateCC{rate: 1.5e6}
	snd := newFakeSender(cc, fc)
	emitEight(t, snd, fc)
	// Ack seq 7 while 0..6 are still outstanding — far past the dup-ack
	// threshold in sequence space, but every packet is younger than
	// srtt + reorder window, so RACK must hold fire.
	fc.now = 100.030
	snd.handleAck(&netem.Packet{FlowID: 1, Seq: 7, Size: netem.MTU, SentAt: 100.007}, 100.015)
	if len(cc.losses) != 0 {
		t.Fatalf("young reordering produced %d losses", len(cc.losses))
	}
	// The "missing" acks then arrive late and are credited normally.
	for seq := int64(0); seq < 7; seq++ {
		snd.handleAck(&netem.Packet{FlowID: 1, Seq: seq, Size: netem.MTU, SentAt: 100 + float64(seq)/1000}, 100.02)
	}
	if len(cc.acks) != 8 || len(cc.losses) != 0 {
		t.Fatalf("after late acks: %d acks %d losses", len(cc.acks), len(cc.losses))
	}
	if snd.InflightBytes() != 0 {
		t.Fatalf("inflight %d want 0", snd.InflightBytes())
	}
}

func TestAgedGapDeclaredLost(t *testing.T) {
	fc := &fakeClock{now: 100}
	cc := &rateCC{rate: 1.5e6}
	snd := newFakeSender(cc, fc)
	emitEight(t, snd, fc)
	fc.now = 100.030
	snd.handleAck(&netem.Packet{FlowID: 1, Seq: 7, Size: netem.MTU, SentAt: 100.007}, 100.015)
	if len(cc.losses) != 0 {
		t.Fatal("young gap declared lost")
	}
	// Age the gap past srtt + reorder window (a late ack's own huge RTT
	// sample would inflate rttvar and mask it, so age the packets, not
	// the clock sample).
	for seq := int64(0); seq <= 4; seq++ {
		if sp := snd.book.Find(seq); sp != nil {
			sp.AgedFrom -= 1.0
		}
	}
	fc.now = 100.040
	snd.handleAck(&netem.Packet{FlowID: 1, Seq: 5, Size: netem.MTU, SentAt: 100.005}, 100.037)
	// maxAcked is 7, so seqs ≤ 4 are dup-ack candidates; all are aged.
	if len(cc.losses) != 5 {
		t.Fatalf("aged gap: %d losses want 5 (seqs 0..4)", len(cc.losses))
	}
	if snd.LostBytes() != 5*netem.MTU {
		t.Fatalf("lost %d bytes want %d", snd.LostBytes(), 5*netem.MTU)
	}
	// A straggler ack for a declared-lost packet is ignored, not
	// double-credited.
	acked := snd.AckedBytes()
	snd.handleAck(&netem.Packet{FlowID: 1, Seq: 0, Size: netem.MTU, SentAt: 99}, 100.037)
	if snd.AckedBytes() != acked || len(cc.losses) != 5 {
		t.Fatal("straggler ack for a lost packet changed accounting")
	}
}
