// Package sim provides a deterministic discrete-event simulation engine.
//
// All experiments in this repository run in virtual time on top of this
// engine. Every scheduled callback is ordered by (time, scheduling
// sequence), so simultaneous events execute in a stable, reproducible
// order, and a single seeded random source per simulation makes every
// run bit-for-bit repeatable.
//
// The queue holds sources, not callbacks: a 4-ary heap whose entries
// are individual timers (Sim.At, removable through Timer.Stop) and the
// heads of Lanes — FIFO streams such as a link's arrivals, of which
// only the earliest item needs to compete — while what only has to be
// right when somebody looks (the bytes a link has serialised) is booked
// in a Ledger and never queued. A long-flow run therefore keeps a heap of
// a few entries per flow and link however many packets are in flight.
package sim

import (
	"fmt"
	"math/rand"

	"pccproteus/internal/trace"
)

// event is a heap entry's identity: one timer scheduled through Sim.At,
// or the standing entry of a Lane (lane != nil, fn unused).
//
// Timer events are pooled: once executed or stopped they return to a
// free list and are reused by later At calls. gen counts reuses so an
// outstanding Timer can tell "my event" from "a stranger now living in
// the same allocation".
type event struct {
	s     *Sim
	gen   uint64
	fn    func()
	lane  *Lane
	index int // position in Sim.events while queued
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer, removing its entry from the queue. It is safe
// to call on an already-fired or already-stopped timer — including one
// whose event object has since been recycled for an unrelated callback;
// it reports whether the event was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	s := t.ev.s
	s.remove(t.ev.index)
	s.recycle(t.ev)
	s.pending--
	return true
}

// Reset moves a still-pending timer to absolute time t. The order it
// then runs in is the one Stop followed by At(t, same callback) would
// give it — it takes a fresh sequence number — but the handle stays
// valid and nothing is allocated, which is what a timer re-armed on
// every ack wants. On a fired or stopped timer it does nothing and
// reports false.
func (t *Timer) Reset(at float64) bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	s := t.ev.s
	s.checkTime(at)
	i := t.ev.index
	s.events[i].at, s.events[i].seq = at, s.seq
	s.seq++
	s.fix(i)
	return true
}

// entry is one heap slot. The ordering key is stored inline so a
// comparison never leaves the slice.
type entry struct {
	at  float64
	seq uint64
	ev  *event
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds e to the 4-ary min-heap.
func (s *Sim) push(e entry) {
	s.events = append(s.events, e)
	s.up(len(s.events) - 1)
}

// up sifts the entry at i toward the root.
func (s *Sim) up(i int) {
	h := s.events
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = e
	e.ev.index = i
}

// down sifts the entry at i toward the leaves.
func (s *Sim) down(i int) {
	h := s.events
	e := h[i]
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		end := c + 4
		if end > len(h) {
			end = len(h)
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = e
	e.ev.index = i
}

// remove deletes the entry at i.
func (s *Sim) remove(i int) {
	h := s.events
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	s.events = h[:n]
	if i == n {
		return
	}
	h[i] = last
	s.fix(i)
}

// fix restores the heap after the entry at i changed its key.
func (s *Sim) fix(i int) {
	h := s.events
	if i > 0 && h[i].before(&h[(i-1)/4]) {
		s.up(i)
	} else {
		s.down(i)
	}
}

// Lane is a FIFO stream of callbacks whose times never decrease — a
// link's serialisation ends, its arrivals, a path's returning acks.
// Items take their global sequence number when scheduled, exactly as
// Sim.At does, but only the lane's head sits in the heap. Each lane is
// sorted by (time, sequence) and the heap always holds every lane's
// minimum, so execution is a k-way merge of the same total order Sim.At
// alone would produce.
type Lane struct {
	ev   event      // the lane's heap entry, queued while n > 0
	ring []laneItem // power-of-two circular buffer
	head int
	n    int
	tail float64 // time of the newest item while n > 0
}

type laneItem struct {
	at  float64
	seq uint64
	fn  func(arg any)
	arg any
}

// NewLane returns an empty lane on s.
func (s *Sim) NewLane() *Lane {
	l := &Lane{ev: event{s: s}}
	l.ev.lane = l
	return l
}

// At schedules fn at absolute time t, like Sim.At without the cancel
// handle. A t earlier than the lane's newest pending item would break
// the lane's order, so that callback is scheduled as an ordinary event
// instead; it runs exactly when Sim.At would have run it.
func (l *Lane) At(t float64, fn func()) {
	if l.n > 0 && t < l.tail {
		l.ev.s.schedule(t, fn)
		return
	}
	l.push(t, call, fn)
}

func call(fn any) { fn.(func())() }

// AtArg is At for a callback shared by every item of a stream, taking
// what differs per item as arg: a per-packet stream that passes a
// pointer it already holds schedules without allocating a closure.
func (l *Lane) AtArg(t float64, fn func(arg any), arg any) {
	if l.n > 0 && t < l.tail {
		l.ev.s.schedule(t, func() { fn(arg) })
		return
	}
	l.push(t, fn, arg)
}

func (l *Lane) push(t float64, fn func(arg any), arg any) {
	s := l.ev.s
	s.checkTime(t)
	if l.n == len(l.ring) {
		l.ring, l.head = growRing(l.ring, l.head), 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = laneItem{at: t, seq: s.seq, fn: fn, arg: arg}
	l.n++
	l.tail = t
	if l.n == 1 {
		s.push(entry{at: t, seq: s.seq, ev: &l.ev})
	}
	s.seq++
	s.pending++
}

// growRing doubles a power-of-two ring, unwrapping it so head is index 0.
func growRing[T any](ring []T, head int) []T {
	out := make([]T, max(8, 2*len(ring)))
	k := copy(out, ring[head:])
	copy(out[k:], ring[:head])
	return out
}

// pop removes and returns the head callback; the lane must be non-empty.
func (l *Lane) pop() (fn func(arg any), arg any) {
	it := &l.ring[l.head]
	fn, arg = it.fn, it.arg
	it.fn, it.arg = nil, nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return fn, arg
}

// Ledger is a FIFO of amounts that each come due at a virtual time, for
// bookkeeping nobody observes until they read it — a link's queue
// occupancy once a packet's last byte has left. Nothing is queued and
// nothing runs: Post takes a sequence number exactly as Sim.At would, so
// every other event keeps its own, and Settle collects the entries whose
// (time, sequence) precedes the event now executing — those whose
// callback would already have run had each been a Sim.At. Between Runs
// that means: before the first Run nothing; after Run returns, what was
// posted before it returned for a time up to Now; after Stop, what
// precedes the last executed event. The zero value is empty.
type Ledger struct {
	ring []ledgerItem // power-of-two circular buffer
	head int
	n    int
	tail float64 // time of the newest entry
}

type ledgerItem struct {
	at  float64
	seq uint64
	v   int
}

// Post books v as due at time t on s: like Sim.At not in the past, and
// not before the previous Post's t, or FIFO is not (time, sequence) order.
func (g *Ledger) Post(s *Sim, t float64, v int) {
	if !(t >= max(s.now, g.tail)) {
		panic(fmt.Sprintf("sim: ledger entry at %.9f before now %.9f or the entry before it at %.9f", t, s.now, g.tail))
	}
	if g.n == len(g.ring) {
		g.ring, g.head = growRing(g.ring, g.head), 0
	}
	g.ring[(g.head+g.n)&(len(g.ring)-1)] = ledgerItem{at: t, seq: s.seq, v: v}
	g.n++
	g.tail = t
	s.seq++
}

// Settle removes every entry that has come due on s and returns their sum.
func (g *Ledger) Settle(s *Sim) (sum int) {
	for g.n > 0 {
		it := &g.ring[g.head]
		if it.at > s.now || (it.at == s.now && it.seq >= s.cur) {
			break
		}
		sum += it.v
		g.head = (g.head + 1) & (len(g.ring) - 1)
		g.n--
	}
	return sum
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New.
type Sim struct {
	now     float64
	seq     uint64
	cur     uint64  // seq of the executing event; between Runs see Ledger
	events  []entry // 4-ary min-heap on (at, seq)
	pending int     // callbacks queued: timers plus every lane's items
	free    []*event
	rng     *rand.Rand
	running bool
	stopped bool
	rec     *trace.Recorder
}

// freeCap bounds the event free list so a one-off scheduling burst does
// not pin memory for the rest of the simulation.
const freeCap = 1024

// New returns a simulator with its clock at zero and randomness derived
// from seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Rand returns the simulation's random source. All stochastic models
// (loss, jitter, workload arrivals) must draw from it so runs stay
// deterministic.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// SetTrace attaches a flight recorder. Components built on this
// simulation (links, senders, controllers) pick it up through Trace
// and FlowTracer; with no recorder attached they run at full speed
// with zero telemetry overhead. Attach before starting flows: senders
// bind their tracer at Start.
func (s *Sim) SetTrace(r *trace.Recorder) { s.rec = r }

// Trace returns the attached flight recorder, or nil when disabled.
func (s *Sim) Trace() *trace.Recorder { return s.rec }

// FlowTracer returns the per-flow emission handle for flow id
// (trace.NopTracer when no recorder is attached).
func (s *Sim) FlowTracer(flow int) trace.Tracer { return s.rec.Tracer(flow) }

// At schedules fn to run at absolute time t. Scheduling in the past —
// or at NaN, which would poison the order of every later event — panics:
// it would silently corrupt causality. +Inf is allowed; such an event
// never runs and stays Pending.
func (s *Sim) At(t float64, fn func()) *Timer {
	ev := s.schedule(t, fn)
	return &Timer{ev: ev, gen: ev.gen}
}

func (s *Sim) checkTime(t float64) {
	if !(t >= s.now) {
		panic(fmt.Sprintf("sim: schedule at %.9f before now %.9f", t, s.now))
	}
}

// Schedule is At for a callback nobody will cancel: no handle, no allocation.
func (s *Sim) Schedule(t float64, fn func()) { s.schedule(t, fn) }

// schedule queues fn as a timer event of its own.
func (s *Sim) schedule(t float64, fn func()) *event {
	s.checkTime(t)
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		ev.fn = fn
	} else {
		ev = &event{s: s, fn: fn}
	}
	s.push(entry{at: t, seq: s.seq, ev: ev})
	s.seq++
	s.pending++
	return ev
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d float64, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Stop halts the event loop after the currently executing event returns.
func (s *Sim) Stop() { s.stopped = true }

// Pending reports the number of callbacks still queued: timers and lane
// items, not Ledger entries — bytes a link is still serialising add none.
func (s *Sim) Pending() int { return s.pending }

// Run executes events in order until the queue is empty, Stop is called,
// or the clock would pass until. If the queue drains or the next event
// lies beyond the horizon the clock is set to until; after Stop it stays
// at the last executed event, so a later Run resumes without the clock
// ever moving backwards.
func (s *Sim) Run(until float64) {
	if s.running {
		panic("sim: Run called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	for len(s.events) > 0 && !s.stopped {
		top := &s.events[0]
		if top.at > until {
			break
		}
		s.now, s.cur = top.at, top.seq
		ev := top.ev
		if l := ev.lane; l != nil {
			fn, arg := l.pop()
			if l.n > 0 {
				next := &l.ring[l.head]
				top.at, top.seq = next.at, next.seq
				s.down(0)
			} else {
				s.remove(0)
			}
			s.pending--
			fn(arg)
			continue
		}
		s.remove(0)
		fn := ev.fn
		// Recycle before running fn so a callback that immediately
		// reschedules (pacing, timer restart) reuses this allocation.
		s.recycle(ev)
		s.pending--
		fn()
	}
	if s.now < until && (len(s.events) == 0 || s.events[0].at > until) {
		s.now = until
	}
	if !s.stopped {
		s.cur = s.seq // everything scheduled so far up to now has run
	}
}

// recycle returns a finished timer event to the free list. Bumping gen
// first invalidates any Timer still holding this event, so a stale Stop
// cannot cancel whatever the allocation is reused for next.
func (s *Sim) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	if len(s.free) < freeCap {
		s.free = append(s.free, ev)
	}
}
