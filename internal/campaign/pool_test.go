package campaign

import "testing"

// TestOrderedReduceOrdering checks the fold visits indices in order for
// every worker count, even when early items finish last.
func TestOrderedReduceOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 64} {
		// Every seventh item finishes only after its successor has. With
		// one worker the pool runs items in turn, and waiting would
		// deadlock.
		finished := make([]chan struct{}, 50)
		for i := range finished {
			finished[i] = make(chan struct{})
		}
		var got []int
		OrderedReduce(50, workers, func(i int) int {
			if i%7 == 0 && workers > 1 && i+1 < len(finished) {
				<-finished[i+1]
			}
			close(finished[i])
			return i * i
		}, func(i, v int) {
			if v != i*i {
				t.Fatalf("workers=%d: index %d got value %d", workers, i, v)
			}
			got = append(got, i)
		})
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d merges, want 50", workers, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: merge order %v", workers, got)
			}
		}
	}
}

// TestOrderedReduceFoldIdentical checks a float fold is bit-identical
// across worker counts — the property campaign determinism rests on.
func TestOrderedReduceFoldIdentical(t *testing.T) {
	fold := func(workers int) float64 {
		sum := 0.0
		OrderedReduce(200, workers, func(i int) float64 {
			return 1.0 / float64(i+1)
		}, func(_ int, v float64) { sum += v })
		return sum
	}
	want := fold(1)
	for _, workers := range []int{2, 3, 8, 32} {
		if got := fold(workers); got != want {
			t.Fatalf("workers=%d: sum %v != sequential %v", workers, got, want)
		}
	}
}

func TestOrderedReduceEmpty(t *testing.T) {
	called := false
	OrderedReduce(0, 4, func(i int) int { return i }, func(int, int) { called = true })
	if called {
		t.Fatal("merge called for empty input")
	}
}

func TestSplitSeed(t *testing.T) {
	seen := map[int64]bool{}
	for n := int64(1); n <= 1000; n++ {
		s := SplitSeed(42, n)
		if s <= 0 {
			t.Fatalf("SplitSeed(42, %d) = %d, want positive", n, s)
		}
		if seen[s] {
			t.Fatalf("SplitSeed(42, %d) = %d collides", n, s)
		}
		seen[s] = true
	}
	if SplitSeed(1, 5) == SplitSeed(2, 5) {
		t.Fatal("different masters produced the same child seed")
	}
	if SplitSeed(7, 9) != SplitSeed(7, 9) {
		t.Fatal("SplitSeed not deterministic")
	}
}
