package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: whatever interleaving of sends, acks, losses, and seals
// occurs, every MI with at least one packet finalizes exactly once, and
// none is left pending — this guards the exact lifecycle bug where an
// MI fully acknowledged before sealing leaked forever and stalled the
// probing round.
func TestQuickMIFinalizesExactlyOnce(t *testing.T) {
	f := func(seed int64, nMIs uint8, lossPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Rng: rng}
		mo := newMonitor(&cfg)
		u := NewPrimary()

		type pkt struct {
			mi     int64
			sentAt float64
		}
		finalized := map[int64]int{}
		total := int(nMIs)%12 + 1
		now := 0.0
		var inflight []pkt
		for m := 0; m < total; m++ {
			mi := mo.beginMI(now, 10, 0.030)
			n := rng.Intn(12) + 1
			for i := 0; i < n; i++ {
				mo.onSend(now, 1500)
				inflight = append(inflight, pkt{mi: mi.id, sentAt: now})
				now += 0.003
			}
			// Randomly deliver some acks/losses BEFORE sealing, so some
			// MIs complete early (the historical leak).
			rng.Shuffle(len(inflight), func(i, j int) { inflight[i], inflight[j] = inflight[j], inflight[i] })
			keep := inflight[:0]
			for _, p := range inflight {
				switch {
				case rng.Intn(3) == 0: // leave outstanding for later
					keep = append(keep, p)
				case rng.Intn(100) < int(lossPct)%40:
					if res, ok := mo.onLoss(p.mi, u); ok {
						finalized[res.id]++
					}
				default:
					rtt := 0.030 + rng.Float64()*0.005
					if res, ok := mo.onAck(p.sentAt+rtt, p.mi, p.sentAt, rtt, u); ok {
						finalized[res.id]++
					}
				}
			}
			inflight = keep
			if res, ok := mo.seal(now, u); ok {
				finalized[res.id]++
			}
		}
		// Drain everything still outstanding.
		for _, p := range inflight {
			rtt := 0.030 + rng.Float64()*0.005
			if res, ok := mo.onAck(p.sentAt+rtt, p.mi, p.sentAt, rtt, u); ok {
				finalized[res.id]++
			}
		}
		if len(mo.pending) != 0 {
			return false // leaked MIs
		}
		if len(finalized) != total {
			return false // lost results
		}
		for _, c := range finalized {
			if c != 1 {
				return false // double finalize
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the controller's base rate always stays within its
// configured clamps no matter what MI results it digests.
func TestQuickRateStaysClamped(t *testing.T) {
	f := func(seed int64, utilities []int16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("clamptest", ProteusConfig(rng), NewPrimary())
		for _, u16 := range utilities {
			res := miResult{
				id:      c.mon.nextID + 1,
				target:  c.rate,
				utility: float64(u16),
			}
			c.mon.nextID++
			c.handleResult(0, res)
			if c.rate < minRateMbps-1e-9 || c.rate > maxRateMbps+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
