// Package engine is the real-UDP datapath — the only code that puts a
// congestion-controlled flow on a socket: many wire flows (senders,
// receivers, fetches, fetch serving) multiplexed onto a small fixed
// set of shards, each shard one goroutine owning one UDP socket, a
// flow table, and a pacing wheel (cf. the rx-loop/worker-lcore split
// in DPDK forwarders). It speaks the formats of internal/wire and drives
// any transport.Controller with the same OnSend/OnAck/OnLoss
// callbacks the simulated transport uses, which is what routes wire
// measurements into internal/core's monitor and noise-filter machinery
// unchanged. A shard touches clock and network only through its port
// (shard.go), so the same code also runs on an in-memory network in
// virtual time (SimNet), which is where the sim-vs-wire gates run it.
package engine

import "math"

// Wheel geometry: 512 slots of 500µs give a 256ms horizon. Deadlines
// beyond the horizon clamp to the last slot and re-arm on fire; at
// engine rates (per-flow wakes every ≲1ms) the horizon is never hit
// in steady state, only by idle flows' slow ticks.
const (
	wheelSlots = 512
	wheelGran  = 500e-6
)

// wheelEntry is one armed timer. Entries are one-shot and lazily
// cancelled: re-arming a flow bumps its generation, so a stale entry
// left in an old slot no longer matches and is dropped when its slot
// fires. This keeps arm() append-only — no list surgery, and slot
// slices keep their capacity, so steady-state arming never allocates.
type wheelEntry struct {
	f   *flow
	gen uint64
}

// wheel merges every flow's next-service deadline into one timer per
// shard: the event loop asks next() how long it may block in the
// batched socket read, then advance() fires everything due. Owned by
// exactly one shard goroutine; no locking.
type wheel struct {
	slots   [wheelSlots][]wheelEntry
	cur     int     // slot whose window starts at curTime
	curTime float64 // slot-aligned time of slots[cur]
	armed   int     // live (non-stale) entries, for next()'s fast path
	inited  bool
}

func (w *wheel) init(now float64) {
	w.curTime = math.Floor(now/wheelGran) * wheelGran
	w.cur = 0
	w.inited = true
}

// arm schedules f for service at deadline at (clock seconds). Any
// previously armed deadline for f is superseded.
func (w *wheel) arm(f *flow, at float64) {
	if !w.inited {
		w.init(at)
	}
	if f.armed {
		w.armed-- // superseding a live entry: it just went stale
	}
	f.gen++
	f.deadline = at
	f.armed = true
	// Everything lands at least one slot ahead: arm() is called from
	// fire callbacks while advance() drains the current slot, and an
	// append into the slot being drained would clobber the snapshot.
	// The cost is slot-granularity deferral for already-due deadlines,
	// which the advance loop picks up on its very next slot step.
	idx := 1
	if at > w.curTime {
		idx = int((at-w.curTime)/wheelGran) + 1
		if idx >= wheelSlots {
			idx = wheelSlots - 1 // clamp: re-armed on fire
		}
	}
	slot := (w.cur + idx) % wheelSlots
	w.slots[slot] = append(w.slots[slot], wheelEntry{f: f, gen: f.gen})
	w.armed++
}

// advance walks the wheel up to now, invoking fire for every flow
// whose deadline has arrived. Entries whose deadline is still in the
// future (horizon clamps) are silently re-armed.
func (w *wheel) advance(now float64, fire func(*flow)) {
	if !w.inited {
		w.init(now)
	}
	if w.armed == 0 && now-w.curTime > wheelGran {
		// Fast-forward an idle wheel instead of stepping through every
		// empty granule of a long sleep.
		w.curTime = math.Floor(now/wheelGran) * wheelGran
	}
	for w.curTime <= now {
		slot := w.cur
		entries := w.slots[slot]
		w.slots[slot] = w.slots[slot][:0]
		for i, e := range entries {
			entries[i] = wheelEntry{} // drop the *flow reference
			if e.gen != e.f.gen || !e.f.armed {
				continue // stale: superseded or disarmed
			}
			if e.f.deadline > now+wheelGran {
				// Horizon-clamped (or slot-rounded) early fire: push it
				// back out without servicing.
				e.f.armed = false
				w.armed--
				w.arm(e.f, e.f.deadline)
				continue
			}
			e.f.armed = false
			w.armed--
			fire(e.f)
		}
		w.cur = (w.cur + 1) % wheelSlots
		w.curTime += wheelGran
	}
}

// next returns the earliest armed deadline, or +Inf when nothing is
// armed. It scans forward from the current slot — at most wheelSlots
// iterations, and in the common case the first busy slot is close.
func (w *wheel) next() float64 {
	if w.armed == 0 {
		return math.Inf(1)
	}
	for i := 0; i < wheelSlots; i++ {
		slot := (w.cur + i) % wheelSlots
		best := math.Inf(1)
		for _, e := range w.slots[slot] {
			if e.gen == e.f.gen && e.f.armed && e.f.deadline < best {
				best = e.f.deadline
			}
		}
		if !math.IsInf(best, 1) {
			return best
		}
	}
	return math.Inf(1)
}
