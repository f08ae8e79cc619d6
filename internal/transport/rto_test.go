package transport

import (
	"testing"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
)

// rtoFixture is a finite eight-packet flow on the fake clock, sent at
// 100.000 … 100.007. Acks are delivered by hand, 30 ms after each send,
// so every deadline after the first sample is the oldest outstanding
// packet's send time plus the 200 ms RTO floor.
type rtoFixture struct {
	fc  *fakeClock
	cc  *rateCC
	snd *Sender
}

func newRTOFixture(t *testing.T) *rtoFixture {
	t.Helper()
	f := &rtoFixture{fc: &fakeClock{now: 100}, cc: &rateCC{rate: 1.5e6}}
	f.snd = newFakeSender(f.cc, f.fc)
	f.snd.Limit = 8 * netem.MTU
	emitEight(t, f.snd, f.fc)
	if !f.fc.pending(101) {
		t.Fatal("RTO timer not at the first packet + the initial 1 s RTO")
	}
	return f
}

func (f *rtoFixture) ack(seq int64) {
	f.fc.now = 100.030 + float64(seq)/1000
	f.snd.handleAck(&netem.Packet{FlowID: 1, Seq: seq, Size: netem.MTU}, f.fc.now-0.015)
}

func (f *rtoFixture) deadline(t *testing.T) float64 {
	t.Helper()
	at, ok := f.snd.book.Deadline()
	if !ok {
		t.Fatal("no deadline with packets outstanding")
	}
	return at
}

// However often acks move the deadline, the sweep runs once, at the
// last one: nothing is declared where an older deadline stood.
func TestRTOFollowsTheDeadline(t *testing.T) {
	f := newRTOFixture(t)
	f.ack(0)
	early := f.deadline(t)
	if !(early < 101) || f.fc.pending(101) || !f.fc.pending(early) {
		t.Fatalf("first sample: deadline %v, timer still at 101: %v, at the deadline: %v", early, f.fc.pending(101), f.fc.pending(early))
	}
	for seq := int64(1); seq <= 5; seq++ {
		f.ack(seq)
	}
	due := f.deadline(t)
	if !(due > early) {
		t.Fatalf("five acks left the deadline at %v (was %v)", due, early)
	}
	f.fc.runUntil(due - 1e-6)
	if len(f.cc.losses) != 0 {
		t.Fatalf("%d losses declared before the deadline %v", len(f.cc.losses), due)
	}
	f.fc.runUntil(due)
	// Packet 6 has reached its RTO; packet 7, sent 1 ms later, has not.
	if len(f.cc.losses) != 1 || f.cc.losses[0].Seq != 6 || f.cc.losses[0].Now != due {
		t.Fatalf("at the deadline %v: losses %+v, want seq 6 declared there", due, f.cc.losses)
	}
}

// A deadline that moves earlier — the first RTT sample shrinks the RTO
// from its initial 1 s — is honoured at the earlier time.
func TestRTOPulledEarlierIsHonoured(t *testing.T) {
	f := newRTOFixture(t)
	f.ack(0)
	early := f.deadline(t)
	f.fc.runUntil(100.9)
	if len(f.cc.losses) == 0 || f.cc.losses[0].Seq != 1 || f.cc.losses[0].Now != early {
		t.Fatalf("losses %+v, want seq 1 declared at the pulled-in deadline %v, not at 101", f.cc.losses, early)
	}
}

// Completion and Stop cancel the RTO timer: once the path has drained
// nothing of the flow is left in the queue.
func TestNothingQueuedAfterCompletionOrStop(t *testing.T) {
	s := sim.New(1)
	snd := NewSender(1, testPath(s, 50, 1<<20, 0.030), &windowCC{cwnd: 40 * netem.MTU})
	snd.Limit = 300 * 1000
	snd.Start()
	s.Run(5)
	if !snd.Done() || s.Pending() != 0 {
		t.Fatalf("finite flow done=%v, %d callbacks still queued", snd.Done(), s.Pending())
	}

	s = sim.New(1)
	snd = NewSender(1, testPath(s, 50, 1<<20, 0.030), &windowCC{cwnd: 40 * netem.MTU})
	snd.Start()
	s.Run(1)
	snd.Stop()
	s.Run(5)
	if s.Pending() != 0 {
		t.Fatalf("%d callbacks queued after Stop and a drain", s.Pending())
	}
}
