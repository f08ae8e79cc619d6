package sim

import (
	"math"
	"math/rand"
	"testing"
)

// The order contract: whatever mix of timers, lanes, cancellations and
// partial runs a program issues, callbacks execute in (time, scheduling
// sequence) order. scheduleHarness drives a Sim from an op byte-stream
// and checks every executed callback against a reference model that
// keeps each live item in a flat list and always expects its minimum.
// Callbacks read their own follow-up ops from the same stream, so a
// lane is emptied and refilled from inside its own callbacks and
// timers are stopped at the instant they were due. A Ledger rides along:
// its entries take sequence numbers from the same counter, and at every
// look the entries it hands back must be exactly those that lie before
// the model's position — the callback now executing, or where the last
// Run left off.

type refItem struct {
	at  float64
	seq int
	id  int
}

type timerRef struct {
	tm *Timer
	id int
}

type scheduleHarness struct {
	t    *testing.T
	s    *Sim
	data []byte
	pos  int

	lanes    [3]*Lane
	laneTail [3]float64
	timers   []timerRef

	live    []refItem // the reference model
	seq     int
	running bool
	stopped bool
	lastAt  float64

	ledger Ledger
	posted []refItem // ledger entries not yet handed back, oldest first
	posAt  float64   // the model's position: entries before
	posSeq int       // (posAt, posSeq) have come due
}

func (h *scheduleHarness) next() byte {
	if h.pos >= len(h.data) {
		return 0
	}
	b := h.data[h.pos]
	h.pos++
	return b
}

func (h *scheduleHarness) delta() float64 { return float64(h.next()%8) * 0.25 }

// add registers one scheduled callback with the model and returns the
// closure the real queue runs.
func (h *scheduleHarness) add(at float64) (int, func()) {
	id := h.seq
	h.live = append(h.live, refItem{at: at, seq: h.seq, id: id})
	h.seq++
	return id, func() { h.fired(id) }
}

// lanePush schedules on lane k through At, or through AtArg with the
// id as the shared callback's argument.
func (h *scheduleHarness) lanePush(k int, at float64, withArg bool) {
	id, fn := h.add(at)
	if withArg {
		h.lanes[k].AtArg(at, h.firedArg, id)
	} else {
		h.lanes[k].At(at, fn)
	}
}

func (h *scheduleHarness) firedArg(id any) { h.fired(id.(int)) }

func (h *scheduleHarness) drop(id int) bool {
	for i, it := range h.live {
		if it.id == id {
			h.live = append(h.live[:i], h.live[i+1:]...)
			return true
		}
	}
	return false
}

// min returns the index of the model's earliest live item, or -1.
func (h *scheduleHarness) min() int {
	m := -1
	for i, it := range h.live {
		if m < 0 || it.at < h.live[m].at || (it.at == h.live[m].at && it.seq < h.live[m].seq) {
			m = i
		}
	}
	return m
}

func (h *scheduleHarness) fired(id int) {
	m := h.min()
	if m < 0 {
		h.t.Fatalf("callback %d ran with an empty reference model", id)
	}
	want := h.live[m]
	if want.id != id {
		h.t.Fatalf("at t=%v callback %d ran, reference expects %d (at=%v seq=%d)", h.s.Now(), id, want.id, want.at, want.seq)
	}
	if h.s.Now() != want.at {
		h.t.Fatalf("callback %d ran at t=%v, scheduled for %v", id, h.s.Now(), want.at)
	}
	h.lastAt = want.at
	h.posAt, h.posSeq = want.at, want.seq
	h.drop(id)
	for k := int(h.next() % 3); k > 0; k-- {
		h.op()
	}
}

// op decodes and performs one operation on the Sim and the model.
func (h *scheduleHarness) op() {
	if h.pos >= len(h.data) {
		return
	}
	now := h.s.Now()
	switch h.next() % 8 {
	case 0: // a timer
		at := now + h.delta()
		id, fn := h.add(at)
		h.timers = append(h.timers, timerRef{h.s.At(at, fn), id})
	case 1: // a timer nobody holds a handle to
		at := now + h.delta()
		_, fn := h.add(at)
		h.s.Schedule(at, fn)
	case 2, 3: // a lane push that keeps the lane's order
		kb := h.next()
		k := int(kb % 3)
		at := math.Max(now, h.laneTail[k]) + h.delta()
		h.laneTail[k] = at
		h.lanePush(k, at, kb&4 != 0)
	case 4: // a lane push that may land before the lane's tail
		kb := h.next()
		k := int(kb % 3)
		at := now + h.delta()
		h.laneTail[k] = math.Max(h.laneTail[k], at)
		h.lanePush(k, at, kb&4 != 0)
	case 5: // the ledger; or stop or move a timer: pending, fired, stopped or recycled
		kind := h.next() % 3
		if kind == 2 {
			// Look, then post: an entry takes a sequence number like any
			// callback, at or after the ledger's newest, possibly now.
			h.settle()
			at := now + h.delta()
			if n := len(h.posted); n > 0 && h.posted[n-1].at > at {
				at = h.posted[n-1].at
			}
			h.posted = append(h.posted, refItem{at: at, seq: h.seq, id: h.seq})
			h.ledger.Post(h.s, at, h.seq)
			h.seq++
			return
		}
		if len(h.timers) == 0 {
			return
		}
		ref := h.timers[int(h.next())%len(h.timers)]
		if kind == 1 {
			// Reset is Stop + At under the same id: a fresh sequence
			// number, and nothing at all on a timer no longer pending.
			at := now + h.delta()
			want := h.drop(ref.id)
			if want {
				h.live = append(h.live, refItem{at: at, seq: h.seq, id: ref.id})
				h.seq++
			}
			if got := ref.tm.Reset(at); got != want {
				h.t.Fatalf("Reset of timer %d reported %v, reference says pending=%v", ref.id, got, want)
			}
			return
		}
		want := h.drop(ref.id)
		if got := ref.tm.Stop(); got != want {
			h.t.Fatalf("Stop of timer %d reported %v, reference says pending=%v", ref.id, got, want)
		}
	case 6: // run to a partial horizon
		if h.running {
			h.s.Stop()
			h.stopped = true
			return
		}
		h.run(now + float64(h.next()%16)*0.25)
	case 7:
		if got := h.s.Pending(); got != len(h.live) {
			h.t.Fatalf("Pending() = %d, reference has %d live", got, len(h.live))
		}
	}
}

// settle checks that the ledger collects exactly the entries before
// the model's position: the sum of their amounts, and how many stay.
func (h *scheduleHarness) settle() {
	want := 0
	for len(h.posted) > 0 {
		e := h.posted[0]
		if !(e.at < h.posAt || (e.at == h.posAt && e.seq < h.posSeq)) {
			break
		}
		want += e.id
		h.posted = h.posted[1:]
	}
	if got := h.ledger.Settle(h.s); got != want || h.ledger.n != len(h.posted) {
		h.t.Fatalf("at t=%v ledger settled %d leaving %d entries, reference settles %d leaving %d (position %v, %d)",
			h.s.Now(), got, h.ledger.n, want, len(h.posted), h.posAt, h.posSeq)
	}
}

func (h *scheduleHarness) run(until float64) {
	h.running, h.stopped = true, false
	h.s.Run(until)
	h.running = false
	// A Run that returns by itself has executed everything scheduled so
	// far up to the clock; a stopped one only moves the clock.
	h.posAt = h.s.Now()
	if !h.stopped {
		h.posSeq = h.seq
	}
	h.settle()
	want := until
	if m := h.min(); m >= 0 && h.live[m].at <= until {
		if !h.stopped {
			h.t.Fatalf("Run(%v) returned with item %d at %v still queued", until, h.live[m].id, h.live[m].at)
		}
		want = h.lastAt
	}
	if h.s.Now() != want {
		h.t.Fatalf("after Run(%v) Now() = %v, want %v (stopped=%v)", until, h.s.Now(), want, h.stopped)
	}
	if got := h.s.Pending(); got != len(h.live) {
		h.t.Fatalf("after Run(%v) Pending() = %d, reference has %d live", until, got, len(h.live))
	}
}

func checkSchedule(t *testing.T, data []byte) {
	h := &scheduleHarness{t: t, s: New(1), data: data}
	for i := range h.lanes {
		h.lanes[i] = h.s.NewLane()
	}
	for h.pos < len(h.data) {
		h.op()
	}
	for len(h.live) > 0 { // drain; a callback may Stop the loop again
		h.run(h.s.Now() + 1e6)
	}
	if got := len(h.s.events); got != 0 {
		t.Fatalf("%d heap entries left after the drain", got)
	}
	if h.run(h.s.Now() + 1e6); len(h.posted) != 0 {
		t.Fatalf("%d ledger entries not due after the drain", len(h.posted))
	}
}

func TestScheduleOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	for i := 0; i < 400; i++ {
		data := make([]byte, 50+rng.Intn(1500))
		rng.Read(data)
		checkSchedule(t, data)
	}
}

func FuzzSchedule(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 1, 2, 1, 2, 4, 1, 0, 6, 9, 5, 0, 6, 15})
	f.Add([]byte{2, 0, 0, 2, 0, 0, 2, 0, 0, 6, 1, 2, 2, 0, 1, 4, 0, 0, 6, 8})
	f.Add([]byte{0, 0, 0, 0, 5, 0, 5, 0, 6, 4, 2, 6, 7, 0, 1, 5, 1, 6, 2})
	f.Fuzz(checkSchedule)
}

// A lane that drains and is refilled from inside its own callback keeps
// running in order, and an out-of-order push falls back to the heap
// without disturbing either.
func TestLaneRefillFromOwnCallback(t *testing.T) {
	s := New(1)
	l := s.NewLane()
	var got []int
	l.At(1, func() {
		got = append(got, 1)
		l.At(3, func() { got = append(got, 3) })
		l.AtArg(2, func(v any) { got = append(got, v.(int)) }, 2) // before the tail: heap
		l.AtArg(3, func(v any) { got = append(got, v.(int)) }, 4)
	})
	s.Run(10)
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("lane executed %v, want [1 2 3 4]", got)
	}
	if s.Pending() != 0 || len(s.events) != 0 {
		t.Fatalf("Pending=%d heap=%d after drain", s.Pending(), len(s.events))
	}
}

// Stop takes the entry out of the queue instead of leaving a dead one
// behind for Run to skip.
func TestStopRemovesEntry(t *testing.T) {
	s := New(1)
	rng := rand.New(rand.NewSource(1))
	var timers []*Timer
	fired := 0
	for i := 0; i < 100; i++ {
		timers = append(timers, s.At(rng.Float64()*10, func() { fired++ }))
	}
	rng.Shuffle(len(timers), func(i, j int) { timers[i], timers[j] = timers[j], timers[i] })
	const n = 60
	for _, tm := range timers[:n] {
		if !tm.Stop() {
			t.Fatal("Stop of a pending timer reported false")
		}
	}
	if got := len(s.events); got != 100-n {
		t.Fatalf("queue holds %d entries after stopping %d of 100, want %d", got, n, 100-n)
	}
	if s.Pending() != 100-n {
		t.Fatalf("Pending() = %d, want %d", s.Pending(), 100-n)
	}
	s.Run(20)
	if fired != 100-n {
		t.Fatalf("%d timers fired, want %d", fired, 100-n)
	}
}

func TestLaneZeroAlloc(t *testing.T) {
	s := New(1)
	l := s.NewLane()
	n := 0
	fn := func() { n++ }
	cycle := func() {
		for i := 0; i < 64; i++ {
			l.At(s.Now()+float64(i), fn)
		}
		s.Run(s.Now() + 100)
	}
	cycle() // size the ring
	if a := testing.AllocsPerRun(50, cycle); a != 0 {
		t.Fatalf("Lane.At + Run allocated %v per 64 events, want 0", a)
	}
	fnArg := func(p any) { *p.(*int)++ }
	if a := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			l.AtArg(s.Now()+float64(i), fnArg, &n)
		}
		s.Run(s.Now() + 100)
	}); a != 0 {
		t.Fatalf("Lane.AtArg + Run allocated %v per 64 events, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		s.At(s.Now()+1, fn)
		s.Run(s.Now() + 2)
	}); a > 1 {
		t.Fatalf("Sim.At + Run allocated %v per event, want at most the Timer handle", a)
	}
	tm := s.At(s.Now()+1, fn)
	if a := testing.AllocsPerRun(50, func() { tm.Reset(s.Now() + 2) }); a != 0 {
		t.Fatalf("Timer.Reset allocated %v, want 0", a)
	}
}

func TestNonFiniteTimes(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	nop := func() {}
	cases := []struct {
		name  string
		sched func(s *Sim)
		want  bool // panics
	}{
		{"At NaN", func(s *Sim) { s.At(math.NaN(), nop) }, true},
		{"After NaN", func(s *Sim) { s.After(math.NaN(), nop) }, true},
		{"Lane.At NaN", func(s *Sim) { s.NewLane().At(math.NaN(), nop) }, true},
		{"At -Inf", func(s *Sim) { s.At(math.Inf(-1), nop) }, true},
		{"Ledger.Post NaN", func(s *Sim) { new(Ledger).Post(s, math.NaN(), 1) }, true},
		{"Ledger.Post in the past", func(s *Sim) { new(Ledger).Post(s, 0.5, 1) }, true},
		{"Ledger.Post before its newest", func(s *Sim) { g := new(Ledger); g.Post(s, 3, 1); g.Post(s, 2, 1) }, true},
		{"Ledger.Post now", func(s *Sim) { new(Ledger).Post(s, 1, 1) }, false},
		{"After -Inf clamps to now", func(s *Sim) { s.After(math.Inf(-1), nop) }, false},
		{"At +Inf", func(s *Sim) { s.At(math.Inf(1), nop) }, false},
		{"After +Inf", func(s *Sim) { s.After(math.Inf(1), nop) }, false},
	}
	for _, tc := range cases {
		s := New(1)
		s.Run(1)
		if got := panics(func() { tc.sched(s) }); got != tc.want {
			t.Errorf("%s: panicked=%v, want %v", tc.name, got, tc.want)
		}
	}
	// An event at +Inf never runs: it stays pending behind every finite
	// one, and the order of those is intact.
	s := New(1)
	var got []int
	s.At(math.Inf(1), func() { got = append(got, -1) })
	s.At(2, func() { got = append(got, 2) })
	s.At(1, func() { got = append(got, 1) })
	s.Run(1e18)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ran %v, want [1 2]", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the +Inf event", s.Pending())
	}
}
