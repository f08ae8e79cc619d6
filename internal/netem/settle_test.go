package netem

import (
	"math"
	"math/rand"
	"testing"

	"pccproteus/internal/sim"
)

// A serialisation end is not an event: the link books it and settles
// when somebody reads QueueBytes or SentBytes. The shadow model here
// keeps the two counters the old way — a Sim.At(txEnd, …) of its own
// right after every accepted Send — and the link must agree with it at
// every point the counters can be seen: inside events (sends and reads
// placed at exactly a serialisation-end time included), in delivery
// callbacks, before the first Run, after a Run that reached its horizon
// (which may itself be a serialisation-end time) and after a Stop.
//
// The shadow's event takes the sequence number after the packet's
// arrival event, the link's entry the one before it; the propagation
// delay is positive so a packet's arrival never ties with its own
// serialisation end and the two orders cannot be told apart.
func TestSettleMatchesTxEndEvents(t *testing.T) {
	var drops int64
	ties := 0 // events placed at exactly a serialisation end
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		queueCap := 3*MTU + rng.Intn(12*MTU)
		l := NewLink(s, 2+rng.Float64()*20, queueCap, 0.001+rng.Float64()*0.01)
		infinite := seed%4 == 0
		if infinite {
			l.SetRate(math.Inf(1))
		}
		l.LossProb = 0.1

		var queue, sent int // the shadow's counters
		var offered, accepted, acceptedBytes, delivered int64
		var ends []float64 // serialisation-end times still ahead
		check := func(when string) {
			t.Helper()
			if q, sb := l.QueueBytes(), l.Stats().SentBytes; q != queue || sb != int64(sent) {
				t.Fatalf("seed %d %s at t=%v: link queue %d sent %d, shadow queue %d sent %d", seed, when, s.Now(), q, sb, queue, sent)
			}
		}
		send := func() {
			size := 40 + rng.Intn(MTU-40+1)
			pkt := &Packet{FlowID: 1 + rng.Intn(3), Seq: offered, Size: size, SentAt: s.Now()}
			offered++
			if !l.Send(pkt, func(*Packet, float64) { delivered++; check("at delivery") }) {
				if queue+size <= queueCap {
					t.Fatalf("seed %d: tail drop at t=%v with %d B queued in the shadow", seed, s.Now(), queue)
				}
				return
			}
			accepted++
			acceptedBytes += int64(size)
			queue += size
			txEnd := l.busyUntil
			ends = append(ends, txEnd)
			s.At(txEnd, func() { queue -= size; sent += size })
		}
		// tick runs as an event: it reads, perhaps sends, perhaps changes
		// the rate or stops the loop, and schedules the next tick — often
		// at exactly a serialisation end still ahead.
		var tick func()
		ticks := 0
		tick = func() {
			check("in an event")
			switch r := rng.Intn(10); {
			case r < 6: // a train, so queues fill
				for i := rng.Intn(4); i >= 0; i-- {
					send()
					check("after a send")
				}
			case r == 6 && !infinite:
				l.SetRateMbps(1 + rng.Float64()*30)
			case r == 7:
				s.Stop()
			}
			if ticks++; ticks >= 400 {
				return
			}
			next := s.Now() + rng.ExpFloat64()*0.001
			for len(ends) > 0 && ends[0] < s.Now() {
				ends = ends[1:]
			}
			if len(ends) > 0 && rng.Intn(3) == 0 {
				next = ends[rng.Intn(len(ends))]
				ties++
			}
			s.At(next, tick)
		}

		// Before the first Run nothing has come due, however fast the link.
		send()
		send()
		check("before the first Run")
		if infinite && l.QueueBytes() == 0 {
			t.Fatalf("seed %d: an infinite-rate link sent to before Run reads an empty queue", seed)
		}
		s.At(0, tick)
		for ticks < 400 {
			until := s.Now() + rng.Float64()*0.05
			if len(ends) > 0 && rng.Intn(2) == 0 {
				if e := ends[len(ends)-1]; e >= s.Now() {
					until = e
				}
			}
			s.Run(until)
			check("after Run or Stop")
			send() // outside Run: booked, not yet due
			check("between Runs")
		}
		s.Run(s.Now() + 100)
		check("after the drain")

		st := l.Stats()
		if st.Enqueued+st.Dropped != offered || st.Enqueued != accepted {
			t.Fatalf("seed %d: offered %d accepted %d, stats %+v", seed, offered, accepted, st)
		}
		if st.Delivered+st.LostRandom != st.Enqueued || st.Delivered != delivered {
			t.Fatalf("seed %d: %d deliveries observed, stats %+v", seed, delivered, st)
		}
		if st.SentBytes != acceptedBytes || l.QueueBytes() != 0 || s.Pending() != 0 {
			t.Fatalf("seed %d: SentBytes %d of %d accepted, queue %d, %d events pending", seed, st.SentBytes, acceptedBytes, l.QueueBytes(), s.Pending())
		}
		drops += st.Dropped
	}
	if drops < 100 || ties < 100 {
		t.Fatalf("%d tail drops and %d exact ties in all: the test does not exercise them", drops, ties)
	}
}
