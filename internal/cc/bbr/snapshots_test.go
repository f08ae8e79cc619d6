package bbr

import (
	"math/rand"
	"testing"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
)

func snapOf(seq int64) Snapshot {
	return Snapshot{Delivered: seq * 1500, DeliveredAt: float64(seq), SentAt: float64(seq) + 0.5}
}

// Take answers what the map it replaced answered: ok exactly when seq
// was put and has not been taken since. The driver is a 300-packet
// window: mostly in-order acks, some out-of-order acks and losses, some
// duplicates, stragglers from before the window and seqs never sent.
func TestSnapshotsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Snapshots
	ref := map[int64]Snapshot{}
	oldest, next := int64(0), int64(0)
	for i := 0; i < 200000; i++ {
		if rng.Intn(2) == 0 {
			if next-oldest < 300 {
				r.Put(next, snapOf(next))
				ref[next] = snapOf(next)
				next++
			}
			continue
		}
		seq := oldest
		switch rng.Intn(10) {
		case 0:
			seq = oldest - 1 - int64(rng.Intn(600)) // long gone
		case 1:
			seq = next + int64(rng.Intn(3)) // never sent
		case 2, 3:
			seq = oldest + int64(rng.Intn(300)) // inside the window, live or not
		}
		got, ok := r.Take(seq)
		want, live := ref[seq]
		if ok != live || got != want {
			t.Fatalf("op %d: Take(%d) = %+v, %v; the map holds %+v, %v", i, seq, got, ok, want, live)
		}
		delete(ref, seq)
		for oldest < next {
			if _, live := ref[oldest]; live {
				break
			}
			oldest++
		}
	}
	if n := len(r.slots); n != 512 {
		t.Fatalf("ring has %d slots for a 300-packet window, want 512", n)
	}
}

func TestSnapshotsWrapGrowAndStale(t *testing.T) {
	var r Snapshots
	if _, ok := r.Take(0); ok {
		t.Fatal("Take on an empty ring found something")
	}
	// Wrap-around: a window of 40 sliding through 1000 sequence numbers
	// stays in the first 64 slots.
	for seq := int64(0); seq < 1000; seq++ {
		r.Put(seq, snapOf(seq))
		if old := seq - 40; old >= 0 {
			if got, ok := r.Take(old); !ok || got != snapOf(old) {
				t.Fatalf("Take(%d) = %+v, %v after wrapping", old, got, ok)
			}
		}
	}
	if len(r.slots) != 64 {
		t.Fatalf("a 40-packet window grew the ring to %d", len(r.slots))
	}
	// A duplicate ack and an ack after a loss find nothing.
	if _, ok := r.Take(959); ok {
		t.Fatal("second Take(959) found it again")
	}
	// 960..999 are live. A stale seq that lands on a reused slot — 936
	// shares 1000's slot — must not take the newcomer's snapshot.
	r.Put(1000, snapOf(1000))
	if _, ok := r.Take(936); ok {
		t.Fatal("stale Take(936) took the snapshot of 1000 out of their shared slot")
	}
	// Growth with live entries: 1024 collides with live 960, so the ring
	// doubles and every live entry moves with it.
	r.Put(1024, snapOf(1024))
	if len(r.slots) != 128 {
		t.Fatalf("ring has %d slots after a collision between live entries, want 128", len(r.slots))
	}
	for _, seq := range []int64{960, 999, 1000, 1024} {
		if got, ok := r.Take(seq); !ok || got != snapOf(seq) {
			t.Fatalf("after growth Take(%d) = %+v, %v", seq, got, ok)
		}
	}
	// Put on a live seq replaces it, as a map assignment did.
	r.Put(970, Snapshot{Delivered: 1})
	if got, ok := r.Take(970); !ok || got.Delivered != 1 {
		t.Fatalf("re-Put(970) then Take = %+v, %v", got, ok)
	}
}

// A snapshot is dropped at OnLoss: the late ack of a packet already
// declared lost yields no rate sample.
func TestLateAckAfterLossSamplesNothing(t *testing.T) {
	c := New()
	samples := 0
	c.debugSample = func(float64) { samples++ }
	for seq := int64(0); seq < 2; seq++ {
		c.OnSend(1+float64(seq)/1000, &transport.SentPacket{Seq: seq, Size: netem.MTU})
	}
	c.OnLoss(transport.Loss{Seq: 0, Bytes: netem.MTU, Now: 1.3})
	c.OnAck(transport.Ack{Seq: 0, Bytes: netem.MTU, Now: 1.4, RTT: 0.4})
	if samples != 0 {
		t.Fatal("the ack of a packet declared lost produced a rate sample")
	}
	c.OnAck(transport.Ack{Seq: 1, Bytes: netem.MTU, Now: 1.5, RTT: 0.5})
	c.OnAck(transport.Ack{Seq: 1, Bytes: netem.MTU, Now: 1.6, RTT: 0.6})
	if samples != 1 {
		t.Fatalf("%d rate samples from one live packet acked twice, want 1", samples)
	}
}

// A BBR flow in ProbeBW sends, acks and samples without allocating: the
// snapshot ring has spanned the window since startup.
func TestSteadyStateAllocsPerPacket(t *testing.T) {
	s := sim.New(1)
	p := path(s, 50, 375000, 0.030)
	snd := transport.NewSender(1, p, New())
	snd.Start()
	s.Run(5)
	acked := snd.AckedBytes()
	perRun := testing.AllocsPerRun(20, func() { s.Run(s.Now() + 0.1) })
	pkts := float64(snd.AckedBytes()-acked) / netem.MTU / 21 // AllocsPerRun makes one warm-up call
	if pkts < 100 {
		t.Fatalf("only %.0f packets per slice: the flow is not running", pkts)
	}
	if perRun != 0 {
		t.Fatalf("%.0f allocations per %.0f delivered packets, want 0", perRun, pkts)
	}
}
