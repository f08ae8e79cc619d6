package netem

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pccproteus/internal/sim"
)

// The link schedules its serialisation ends and arrivals on FIFO lanes.
// Two things can push an arrival behind the lane's tail — an injected
// reordering fault and a propagation-delay step — and neither may change
// what is delivered, when, or in what order relative to the queue
// draining. The pins are the delivery logs of the plain-heap scheduler
// (recorded at PR 15), hashed.
func TestDeliveryOrderPinned(t *testing.T) {
	cases := []struct {
		name  string
		setup func(s *sim.Sim, l *Link)
		want  uint64
	}{
		{"reorder+dup", func(s *sim.Sim, l *Link) {
			l.ReorderProb, l.ReorderDelay = 0.2, 0.004
			l.DupProb = 0.05
			l.Jitter = LognormalNoise{Median: 0.0005, Sigma: 0.8}
		}, 0xdad86dec0e02e722},
		{"propdelay-steps", func(s *sim.Sim, l *Link) {
			l.Jitter = LognormalNoise{Median: 0.0005, Sigma: 0.8}
			for i, d := range []float64{0.005, 0.060, 0.001, 0.030} {
				d := d
				s.At(0.4*float64(i+1), func() {
					if err := l.SetPropDelay(d); err != nil {
						t.Error(err)
					}
				})
			}
		}, 0x4d2322d3280d2170},
		{"reorder+propdelay+restart", func(s *sim.Sim, l *Link) {
			l.ReorderProb, l.ReorderDelay = 0.1, 0.050
			l.CorruptProb, l.LossProb = 0.02, 0.02
			s.At(0.7, func() { _ = l.SetPropDelay(0.002) })
			s.At(1.1, l.Flush)
		}, 0x342cf25cb318c305},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 7
			rng := rand.New(rand.NewSource(seed))
			s := sim.New(seed)
			l := NewLink(s, 5, 40*MTU, 0.040)
			tc.setup(s, l)
			h := fnv.New64a()
			var offered, delivered int64
			for i := 0; i < 2000; i++ {
				pkt := &Packet{FlowID: 1, Seq: int64(i), Size: 40 + rng.Intn(MTU-40+1)}
				s.At(rng.Float64()*2, func() {
					offered++
					l.Send(pkt, func(p *Packet, arrival float64) {
						delivered++
						if arrival != s.Now() {
							t.Fatalf("seq %d delivered at %v, stamped %v", p.Seq, s.Now(), arrival)
						}
						fmt.Fprintf(h, "%d@%x q%d;", p.Seq, math.Float64bits(arrival), l.QueueBytes())
					})
				})
			}
			s.Run(10)
			st := l.Stats()
			if st.Enqueued+st.Dropped+st.FaultDrop != offered {
				t.Fatalf("offered %d != Enqueued %d + Dropped %d + FaultDrop %d", offered, st.Enqueued, st.Dropped, st.FaultDrop)
			}
			if st.Delivered+st.LostRandom+st.Corrupted+st.Flushed != st.Enqueued+st.Duplicated {
				t.Fatalf("conservation after drain broken: %+v", st)
			}
			if st.Delivered != delivered || l.QueueBytes() != 0 || s.Pending() != 0 {
				t.Fatalf("Delivered %d vs %d observed, queue %d B, %d events pending", st.Delivered, delivered, l.QueueBytes(), s.Pending())
			}
			if tc.name != "propdelay-steps" && st.Reordered == 0 {
				t.Fatal("no packet was reordered: the case does not exercise the fallback")
			}
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("delivery log hash %#x, pinned %#x (%+v)", got, tc.want, st)
			}
		})
	}
}

// SendAck is the whole reverse path: acks the batcher holds land in
// emission order, a blackout destroys acks emitted during it, and a restart
// discards — and counts — exactly the acks in flight at that moment.
func TestSendAckOrderBlackoutAndFlush(t *testing.T) {
	s := sim.New(3)
	p := &Path{
		Link:     NewLink(s, 10, 1<<20, 0.010),
		AckDelay: 0.020,
		Batcher:  &AckBatcher{Sim: s, HoldRate: 20, HoldTime: 0.010},
	}
	var got []int
	land := func(pkt *Packet, sent float64) { // one callback, the payload tells the acks apart
		i := int(pkt.Seq)
		if sent != float64(i)*0.001 {
			t.Errorf("ack %d carries stamp %v", i, sent)
		}
		if s.Now() < sent+p.AckDelay {
			t.Errorf("ack %d landed at %v, before its reverse delay", i, s.Now())
		}
		got = append(got, i)
	}
	for i := 0; i < 300; i++ {
		pkt := &Packet{Seq: int64(i)}
		s.At(float64(i)*0.001, func() { p.SendAck(s.Now(), land, pkt, s.Now()) })
	}
	s.At(0.1005, func() { p.AckDown = true }) // acks 101..150 vanish
	s.At(0.1505, func() { p.AckDown = false })
	inFlight := 0
	s.At(0.2505, func() { // acks 151..250 emitted, some already landed
		inFlight = 100
		for _, i := range got {
			if i > 150 {
				inFlight--
			}
		}
		p.Flush()
	})
	s.Run(1)
	for k := 1; k < len(got); k++ {
		if got[k] < got[k-1] {
			t.Fatalf("acks landed out of order: %d after %d", got[k], got[k-1])
		}
	}
	st := p.Stats()
	if st.AckDropped != 50 {
		t.Fatalf("AckDropped = %d, want 50", st.AckDropped)
	}
	if inFlight == 0 || st.AckFlushed != int64(inFlight) {
		t.Fatalf("AckFlushed = %d, want the %d acks in flight at the restart", st.AckFlushed, inFlight)
	}
	if len(got) != 300-50-inFlight {
		t.Fatalf("%d acks landed, want %d", len(got), 300-50-inFlight)
	}
}

// A packet carries its own position along a multi-hop path, and a
// duplicate is a packet of its own: every hop is crossed in order, the
// receiver is handed each *Packet exactly once — which is what lets a
// sender Release it when the ack lands — and a recycled packet starts
// from zero.
func TestMultiHopDupDeliversEachPacketOnce(t *testing.T) {
	s := sim.New(5)
	first := NewLink(s, 20, 1<<20, 0.002)
	first.DupProb = 0.3
	mid := NewLink(s, 10, 1<<20, 0.003)
	mid.DupProb = 0.3
	last := NewLink(s, 15, 1<<20, 0.001)
	p := &Path{Link: first, Hops: []*Link{mid, last}, AckDelay: 0.005}
	seen := map[*Packet]bool{}
	perSeq := map[int64]int{}
	acked := 0
	onAck := func(q *Packet, _ float64) {
		acked++
		delete(seen, q) // the pointer may come back as a new packet
		first.Release(q)
	}
	deliver := func(q *Packet, arrival float64) {
		if seen[q] {
			t.Fatalf("packet %p (seq %d) delivered twice", q, q.Seq)
		}
		seen[q] = true
		perSeq[q.Seq]++
		if min := q.SentAt + 0.006; arrival < min {
			t.Fatalf("seq %d arrived at %v, before three hops of propagation (%v)", q.Seq, arrival, min)
		}
		p.SendAck(arrival, onAck, q, arrival)
	}
	const n = 400
	for i := 0; i < n; i++ {
		i := i
		s.At(float64(i)*0.001, func() {
			q := first.NewPacket()
			if q.Seq != 0 || q.Size != 0 || q.hop != 0 || q.deliver != nil {
				t.Fatalf("NewPacket returned a dirty packet: %+v", *q)
			}
			*q = Packet{FlowID: 1, Seq: int64(i), Size: MTU, SentAt: s.Now()}
			p.Send(q, deliver)
		})
	}
	s.Run(5)
	dups := first.Stats().Duplicated + mid.Stats().Duplicated
	if dups == 0 {
		t.Fatal("no duplicates drawn; the test exercises nothing")
	}
	if got := last.Stats().Delivered; got != n+dups || int64(acked) != got {
		t.Fatalf("last hop delivered %d, acked %d, want %d originals + %d duplicates", got, acked, n, dups)
	}
	for i := int64(0); i < n; i++ {
		if perSeq[i] < 1 {
			t.Fatalf("seq %d never reached the receiver", i)
		}
	}
}
