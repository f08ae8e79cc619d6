package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestWheelFiresInDeadlineOrder(t *testing.T) {
	var w wheel
	w.init(0)
	var fired []uint32
	mk := func(id uint32) *flow { return &flow{id: id} }
	f1, f2, f3 := mk(1), mk(2), mk(3)
	w.arm(f1, 0.010)
	w.arm(f2, 0.003)
	w.arm(f3, 0.007)
	w.advance(0.012, func(f *flow) { fired = append(fired, f.id) })
	if len(fired) != 3 || fired[0] != 2 || fired[1] != 3 || fired[2] != 1 {
		t.Fatalf("fired %v want [2 3 1]", fired)
	}
	if w.armed != 0 {
		t.Fatalf("armed=%d want 0", w.armed)
	}
}

func TestWheelRearmSupersedes(t *testing.T) {
	var w wheel
	w.init(0)
	f := &flow{id: 1}
	w.arm(f, 0.050)
	w.arm(f, 0.002) // earlier deadline replaces the later one
	n := 0
	w.advance(0.005, func(*flow) { n++ })
	if n != 1 {
		t.Fatalf("fired %d times want 1 (re-arm left the flow in its old slot?)", n)
	}
	// The superseded 50ms deadline must not fire again.
	w.advance(0.060, func(*flow) { n++ })
	if n != 1 {
		t.Fatalf("superseded deadline fired: n=%d", n)
	}
	if w.armed != 0 {
		t.Fatalf("armed=%d want 0", w.armed)
	}
}

func TestWheelHorizonClampRearms(t *testing.T) {
	var w wheel
	f := &flow{id: 1}
	far := 3 * wheelSlots * wheelGran // well past one rotation
	w.arm(f, far)
	n := 0
	// Sweeping to just before the deadline must not fire it, despite
	// the entry being clamped into the wheel's last slot repeatedly.
	w.advance(far-10*wheelGran, func(*flow) { n++ })
	if n != 0 {
		t.Fatalf("clamped entry fired early")
	}
	w.advance(far+wheelGran, func(*flow) { n++ })
	if n != 1 {
		t.Fatalf("clamped entry fired %d times want 1", n)
	}
}

func TestWheelNext(t *testing.T) {
	var w wheel
	w.init(0)
	if !math.IsInf(w.next(), 1) {
		t.Fatal("empty wheel should report +Inf")
	}
	f := &flow{id: 1}
	w.arm(f, 0.004)
	if got := w.next(); got != 0.004 {
		t.Fatalf("next=%v want 0.004", got)
	}
}

func TestWheelArmDuringFire(t *testing.T) {
	// A fire callback re-arming the same flow (the pump pattern) must
	// land the new deadline, not be dropped or double-fired.
	var w wheel
	f := &flow{id: 1}
	w.arm(f, 0.001)
	fires := 0
	w.advance(0.002, func(fl *flow) {
		fires++
		if fires == 1 {
			w.arm(fl, 0.0015) // due immediately: next slot picks it up
		}
	})
	if fires != 2 {
		t.Fatalf("fires=%d want 2 (immediate re-arm lost)", fires)
	}
	w.advance(1.0, func(*flow) { fires++ })
	if fires != 2 {
		t.Fatalf("ghost fire: %d", fires)
	}
}

// No warm-up: the flow fires and re-arms in every slot, 500 of them, so
// each arm lands in a slot it has never been in, and must not allocate.
func TestWheelZeroAllocSteadyState(t *testing.T) {
	var w wheel
	f := &flow{id: 1}
	now := 0.0
	w.arm(f, now+wheelGran/2)
	allocs := testing.AllocsPerRun(500, func() {
		now += wheelGran
		w.advance(now, func(fl *flow) { w.arm(fl, now+wheelGran/2) })
	})
	if allocs != 0 {
		t.Fatalf("steady-state wheel allocates %.1f/op, want 0", allocs)
	}
}

// refTimer is what a flow carried for the slice-and-generation wheel.
type refTimer struct {
	id       uint32
	gen      uint64
	deadline float64
	armed    bool
}

type refEntry struct {
	t   *refTimer
	gen uint64
}

// refWheel is the slice-and-generation wheel the intrusive one replaced,
// kept as the reference model: slots are append-only slices, a re-arm
// bumps the timer's generation so the entry it supersedes is skipped when
// its slot comes round, and disarm is what dropFlow did to it. The
// intrusive wheel must fire the same flows in the same order, and report
// the same next() and armed count, after every operation.
type refWheel struct {
	slots   [wheelSlots][]refEntry
	cur     int
	curTime float64
	armed   int
	inited  bool
}

func (w *refWheel) init(now float64) {
	w.curTime = math.Floor(now/wheelGran) * wheelGran
	w.cur = 0
	w.inited = true
}

func (w *refWheel) arm(t *refTimer, at float64) {
	if !w.inited {
		w.init(at)
	}
	if t.armed {
		w.armed--
	}
	t.gen++
	t.deadline = at
	t.armed = true
	idx := 1
	if at > w.curTime {
		idx = int((at-w.curTime)/wheelGran) + 1
		if idx >= wheelSlots {
			idx = wheelSlots - 1
		}
	}
	slot := (w.cur + idx) % wheelSlots
	w.slots[slot] = append(w.slots[slot], refEntry{t: t, gen: t.gen})
	w.armed++
}

func (w *refWheel) disarm(t *refTimer) {
	if t.armed {
		t.armed = false
		w.armed--
	}
	t.gen++
}

func (w *refWheel) advance(now float64, fire func(*refTimer)) {
	if !w.inited {
		w.init(now)
	}
	if w.armed == 0 && now-w.curTime > wheelGran {
		w.curTime = math.Floor(now/wheelGran) * wheelGran
	}
	for w.curTime <= now {
		slot := w.cur
		entries := w.slots[slot]
		w.slots[slot] = w.slots[slot][:0]
		for i, e := range entries {
			entries[i] = refEntry{}
			if e.gen != e.t.gen || !e.t.armed {
				continue
			}
			if e.t.deadline > now+wheelGran {
				e.t.armed = false
				w.armed--
				w.arm(e.t, e.t.deadline)
				continue
			}
			e.t.armed = false
			w.armed--
			fire(e.t)
		}
		w.cur = (w.cur + 1) % wheelSlots
		w.curTime += wheelGran
	}
}

func (w *refWheel) next() float64 {
	if w.armed == 0 {
		return math.Inf(1)
	}
	for i := 0; i < wheelSlots; i++ {
		slot := (w.cur + i) % wheelSlots
		best := math.Inf(1)
		for _, e := range w.slots[slot] {
			if e.gen == e.t.gen && e.t.armed && e.t.deadline < best {
				best = e.t.deadline
			}
		}
		if !math.IsInf(best, 1) {
			return best
		}
	}
	return math.Inf(1)
}

const modelFlows = 6 // few, so that flows share slots

// wheelAct is what a flow does when it fires: 0 nothing, 1 re-arm
// itself, 2 re-arm flow other, 3 disarm flow other. A re-arm's deadline
// is off from the advance's now.
type wheelAct struct {
	kind, other int
	off         float64
}

// wheelModel drives the intrusive wheel and refWheel with one schedule
// decoded from a byte string. Flow i is flows[i] on the one and
// timers[i] on the other, and its fire action runs on whichever wheel
// fired it — so a fire that re-arms or disarms another flow still queued
// in the slot being drained is exercised on both.
type wheelModel struct {
	t         *testing.T
	data      []byte
	pos       int
	now       float64
	w         wheel
	ref       refWheel
	flows     [modelFlows]*flow
	timers    [modelFlows]*refTimer
	acts      [modelFlows]wheelAct
	got, want []uint32 // fire sequence of the last advance
}

func (m *wheelModel) next() int {
	if m.pos >= len(m.data) {
		return 0
	}
	m.pos++
	return int(m.data[m.pos-1])
}

// offset decodes a deadline relative to now: mostly within a few slots
// either side of it (already due, the same slot, a neighbour), sometimes
// up to 1.7 s out, past the 256 ms horizon.
func (m *wheelModel) offset() float64 {
	b := m.next()
	if b < 200 {
		return float64(b%24-6) * wheelGran * 0.37
	}
	return float64(b-199) * 0.03
}

func (m *wheelModel) op() {
	b := m.next()
	i := b / 6 % modelFlows
	switch b % 6 {
	case 0, 1: // arm, or re-arm earlier, later or into the same slot
		at := m.now + m.offset()
		m.w.arm(m.flows[i], at)
		m.ref.arm(m.timers[i], at)
	case 2:
		m.w.disarm(m.flows[i])
		m.ref.disarm(m.timers[i])
	case 3: // 0–3 slots and a fraction of one
		b := m.next()
		m.now += float64(b%4)*wheelGran + float64(b/4%8)*wheelGran/8
		m.advance()
	case 4: // an idle gap: fast-forwards when nothing is armed
		m.now += 0.05 + float64(m.next()%64)*0.005
		m.advance()
	case 5:
		b := m.next()
		m.acts[i] = wheelAct{kind: b % 4, other: b / 4 % modelFlows, off: m.offset()}
	}
	m.compare()
}

func (m *wheelModel) advance() {
	m.got, m.want = m.got[:0], m.want[:0]
	now := m.now
	m.w.advance(now, func(f *flow) {
		m.got = append(m.got, f.id)
		if len(m.got) > 1<<16 {
			m.t.Fatalf("t=%v: %d fires in one advance; the wheel is looping", now, len(m.got))
		}
		switch a := m.acts[f.id]; a.kind {
		case 1:
			m.w.arm(f, now+a.off)
		case 2:
			m.w.arm(m.flows[a.other], now+a.off)
		case 3:
			m.w.disarm(m.flows[a.other])
		}
	})
	m.ref.advance(now, func(t *refTimer) {
		m.want = append(m.want, t.id)
		switch a := m.acts[t.id]; a.kind {
		case 1:
			m.ref.arm(t, now+a.off)
		case 2:
			m.ref.arm(m.timers[a.other], now+a.off)
		case 3:
			m.ref.disarm(m.timers[a.other])
		}
	})
	if !slices.Equal(m.got, m.want) {
		m.t.Fatalf("t=%v fired %v, reference %v", now, m.got, m.want)
	}
}

// compare checks next(), the armed count and every flow's timer against
// the reference, and that the slot lists hold exactly the armed flows.
func (m *wheelModel) compare() {
	m.t.Helper()
	if a, b := m.w.next(), m.ref.next(); a != b {
		m.t.Fatalf("t=%v next %v, reference %v", m.now, a, b)
	}
	if m.w.armed != m.ref.armed {
		m.t.Fatalf("t=%v armed %d, reference %d", m.now, m.w.armed, m.ref.armed)
	}
	for i, f := range m.flows {
		if r := m.timers[i]; f.armed != r.armed || f.armed && f.deadline != r.deadline {
			m.t.Fatalf("t=%v flow %d armed=%v at %v, reference armed=%v at %v", m.now, i, f.armed, f.deadline, r.armed, r.deadline)
		}
	}
	n := 0
	for s, h := range m.w.head {
		for f := h; f != nil && n <= m.w.armed; {
			if f.wslot != s || !f.armed || f.wnext == nil || f.wnext.wprev != f {
				m.t.Fatalf("t=%v slot %d: flow %d linked with wslot=%d armed=%v", m.now, s, f.id, f.wslot, f.armed)
			}
			n++
			if f = f.wnext; f == h {
				break
			}
		}
	}
	if n != m.w.armed {
		m.t.Fatalf("t=%v slot lists hold %d flows, armed=%d", m.now, n, m.w.armed)
	}
}

func checkWheel(t *testing.T, data []byte) {
	m := &wheelModel{t: t, data: data, now: 1000 + float64(len(data)%3)*wheelGran/3}
	for i := range m.flows {
		m.flows[i], m.timers[i] = &flow{id: uint32(i)}, &refTimer{id: uint32(i)}
	}
	for m.pos < len(m.data) {
		m.op()
	}
	// Drain: with the actions gone everything fires once, past the
	// horizon too; then an idle gap fast-forwards the empty wheel.
	m.acts = [modelFlows]wheelAct{}
	for _, gap := range []float64{2, 1} {
		m.now += gap
		m.advance()
		m.compare()
	}
	if m.w.armed != 0 {
		t.Fatalf("%d flows armed after the drain", m.w.armed)
	}
}

func TestWheelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261016))
	for i := 0; i < 200; i++ {
		data := make([]byte, 100+rng.Intn(900))
		rng.Read(data)
		checkWheel(t, data)
	}
}

func FuzzWheel(f *testing.F) {
	// Three flows in one slot; the first to fire re-arms the second,
	// still queued behind it.
	f.Add([]byte{0, 20, 6, 20, 12, 20, 5, 6, 30, 4, 0})
	// The same, but it disarms the third; then an idle gap over an empty
	// wheel.
	f.Add([]byte{0, 20, 6, 20, 12, 20, 5, 11, 0, 4, 0, 4, 63})
	// Two deadlines past the horizon, walked through by idle gaps.
	f.Add([]byte{0, 250, 6, 210, 4, 63, 4, 63, 4, 63})
	f.Fuzz(func(t *testing.T, data []byte) { checkWheel(t, data) })
}
