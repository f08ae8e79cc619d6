package engine

import (
	"math"
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
		t.Fatalf("fired %d times want 1 (stale entry not cancelled?)", n)
	}
	// The superseded 50ms entry must not fire again.
	w.advance(0.060, func(*flow) { n++ })
	if n != 1 {
		t.Fatalf("stale entry fired: n=%d", n)
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

func TestWheelZeroAllocSteadyState(t *testing.T) {
	var w wheel
	f := &flow{id: 1}
	now := 0.0
	w.arm(f, now+0.001)
	// Warm the slot slices through one full rotation.
	for i := 0; i < 2*wheelSlots; i++ {
		now += wheelGran
		w.advance(now, func(fl *flow) { w.arm(fl, now+0.001) })
	}
	allocs := testing.AllocsPerRun(1000, func() {
		now += wheelGran
		w.advance(now, func(fl *flow) { w.arm(fl, now+0.001) })
	})
	if allocs != 0 {
		t.Fatalf("steady-state wheel allocates %.1f/op, want 0", allocs)
	}
}
