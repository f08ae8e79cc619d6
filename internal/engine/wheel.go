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

// wheel merges every flow's next-service deadline into one timer per
// shard: the event loop asks next() how long it may block in the
// batched socket read, then advance() fires everything due. Each slot
// is a circular doubly-linked list threaded through its flows
// (flow.wnext/wprev), so arming, re-arming and disarming are O(1) list
// surgery that never allocates and never leaves a superseded entry
// behind. Owned by exactly one shard goroutine; no locking.
type wheel struct {
	head    [wheelSlots]*flow
	cur     int     // slot whose window starts at curTime
	curTime float64 // slot-aligned time of head[cur]
	armed   int     // flows on the wheel, for next()'s fast path
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
	w.disarm(f)
	f.deadline = at
	f.armed = true
	// Everything lands at least one slot ahead, so a fire callback never
	// arms into the slot advance() is draining. The cost is
	// slot-granularity deferral for already-due deadlines, which the
	// advance loop picks up on its very next slot step.
	idx := 1
	if at > w.curTime {
		idx = int((at-w.curTime)/wheelGran) + 1
		if idx >= wheelSlots {
			idx = wheelSlots - 1 // clamp: re-armed on fire
		}
	}
	// Tail insert: a slot fires in arm order.
	f.wslot = (w.cur + idx) % wheelSlots
	if h := w.head[f.wslot]; h == nil {
		f.wnext, f.wprev = f, f
		w.head[f.wslot] = f
	} else {
		f.wnext, f.wprev = h, h.wprev
		h.wprev.wnext, h.wprev = f, f
	}
	w.armed++
}

// disarm takes f off the wheel; a no-op for a flow that is not on it.
func (w *wheel) disarm(f *flow) {
	if !f.armed {
		return
	}
	if f.wnext == f {
		w.head[f.wslot] = nil
	} else {
		f.wprev.wnext, f.wnext.wprev = f.wnext, f.wprev
		if w.head[f.wslot] == f {
			w.head[f.wslot] = f.wnext
		}
	}
	f.wnext, f.wprev, f.armed = nil, nil, false
	w.armed--
}

// advance walks the wheel up to now, invoking fire for every flow
// whose deadline has arrived. Flows whose deadline is still in the
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
		// A fire that re-arms or drops a flow still queued here unlinks
		// it, so popping the head until the slot is empty sees each live
		// flow once.
		for f := w.head[w.cur]; f != nil; f = w.head[w.cur] {
			w.disarm(f)
			if f.deadline > now+wheelGran {
				// Horizon-clamped (or slot-rounded) early fire: push it
				// back out without servicing.
				w.arm(f, f.deadline)
				continue
			}
			fire(f)
		}
		w.cur = (w.cur + 1) % wheelSlots
		w.curTime += wheelGran
	}
}

// next returns the earliest armed deadline, or +Inf when nothing is
// armed: the minimum over the first non-empty slot from the current
// one — at most wheelSlots steps, and in the common case the first busy
// slot is close.
func (w *wheel) next() float64 {
	if w.armed == 0 {
		return math.Inf(1)
	}
	for i := 0; i < wheelSlots; i++ {
		h := w.head[(w.cur+i)%wheelSlots]
		if h == nil {
			continue
		}
		best := h.deadline
		for f := h.wnext; f != h; f = f.wnext {
			best = min(best, f.deadline)
		}
		return best
	}
	return math.Inf(1)
}
