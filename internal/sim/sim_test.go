package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(2.0, func() { got = append(got, 2) })
	s.At(1.0, func() { got = append(got, 1) })
	s.At(3.0, func() { got = append(got, 3) })
	s.Run(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != 10 {
		t.Fatalf("clock should advance to horizon, got %v", s.Now())
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5.0, func() { got = append(got, i) })
	}
	s.Run(6)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	s := New(1)
	var at float64
	s.After(1.5, func() {
		at = s.Now()
		s.After(0.25, func() { at = s.Now() })
	})
	s.Run(100)
	if at != 1.75 {
		t.Fatalf("nested After wrong time: %v", at)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(1, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop should report true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run(10)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopHaltsLoop(t *testing.T) {
	s := New(1)
	n := 0
	s.At(1, func() { n++; s.Stop() })
	s.At(2, func() { n++ })
	s.Run(10)
	if n != 1 {
		t.Fatalf("Stop did not halt loop, n=%d", n)
	}
	// The clock stays at the stopping event: jumping to the horizon with
	// t=2 still queued would make the resume run it in the past.
	if s.Now() != 1 {
		t.Fatalf("clock at %v after a stopped run, want 1", s.Now())
	}
	s.At(1.5, func() {}) // still schedulable between the two events
	// Run can resume afterwards, and the clock never moves backwards.
	last := s.Now()
	s.At(2, func() {
		if s.Now() < last {
			t.Errorf("clock went backwards across the resume: %v after %v", s.Now(), last)
		}
	})
	s.Run(10)
	if n != 2 {
		t.Fatalf("resume after Stop failed, n=%d", n)
	}
	if s.Now() != 10 {
		t.Fatalf("clock at %v after the resumed run drained, want 10", s.Now())
	}
}

func TestHorizonLeavesEventsQueued(t *testing.T) {
	s := New(1)
	fired := false
	s.At(5, func() { fired = true })
	s.Run(4)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != 4 {
		t.Fatalf("clock not at horizon: %v", s.Now())
	}
	s.Run(6)
	if !fired {
		t.Fatal("event not fired after horizon extended")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(2, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in past should panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run(10)
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Float64() != b.Rand().Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestPending(t *testing.T) {
	s := New(1)
	t1 := s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending=%d want 2", s.Pending())
	}
	t1.Stop()
	if s.Pending() != 1 {
		t.Fatalf("Pending=%d want 1 after stop", s.Pending())
	}
}

// Property: whatever random schedule of events is submitted, they execute
// in nondecreasing time order and the clock never moves backwards.
func TestQuickExecutionOrder(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		s := New(seed)
		rng := rand.New(rand.NewSource(seed))
		times := make([]float64, len(raw))
		for i, r := range raw {
			times[i] = float64(r) / 97.0
			_ = rng
		}
		var fired []float64
		for _, tm := range times {
			tm := tm
			s.At(tm, func() { fired = append(fired, s.Now()) })
		}
		s.Run(1e9)
		if len(fired) != len(times) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		sorted := append([]float64(nil), times...)
		sort.Float64s(sorted)
		for i := range sorted {
			if sorted[i] != fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events scheduled from within events still respect ordering.
func TestQuickNestedScheduling(t *testing.T) {
	f := func(offsets []uint8) bool {
		s := New(7)
		last := -1.0
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if depth < len(offsets) {
				s.After(float64(offsets[depth])/13.0, func() { spawn(depth + 1) })
			}
		}
		s.At(0, func() { spawn(0) })
		s.Run(1e9)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
