package wire

import (
	"math/rand"
	"testing"
)

// expectRecord drives the per-flow SACK tracker directly; ok is the
// expected "new packet" result.
func expectRecord(t *testing.T, f *AckTracker, seq int64, ok bool) {
	t.Helper()
	if got := f.Record(seq); got != ok {
		t.Fatalf("record(%d) = %v want %v (cum=%d ranges=%v)", seq, got, ok, f.Cum, f.Ranges)
	}
}

func TestReceiverRecordInOrder(t *testing.T) {
	f := &AckTracker{}
	for i := int64(0); i < 5; i++ {
		expectRecord(t, f, i, true)
	}
	if f.Cum != 5 || len(f.Ranges) != 0 {
		t.Fatalf("cum=%d ranges=%v", f.Cum, f.Ranges)
	}
	expectRecord(t, f, 3, false) // retransmit below cum is a dup
}

func TestReceiverRecordGapAndFill(t *testing.T) {
	f := &AckTracker{}
	expectRecord(t, f, 0, true)
	expectRecord(t, f, 2, true) // hole at 1
	if f.Cum != 1 || len(f.Ranges) != 1 || f.Ranges[0] != (SackBlock{2, 3}) {
		t.Fatalf("cum=%d ranges=%v", f.Cum, f.Ranges)
	}
	expectRecord(t, f, 2, false) // dup inside a range
	expectRecord(t, f, 1, true)  // fill the hole: cum jumps past the range
	if f.Cum != 3 || len(f.Ranges) != 0 {
		t.Fatalf("after fill: cum=%d ranges=%v", f.Cum, f.Ranges)
	}
}

func TestReceiverRecordMergesAdjacentRanges(t *testing.T) {
	f := &AckTracker{}
	f.Cum = 0
	expectRecord(t, f, 5, true)
	expectRecord(t, f, 7, true)
	if len(f.Ranges) != 2 {
		t.Fatalf("ranges=%v", f.Ranges)
	}
	expectRecord(t, f, 6, true) // bridges {5,6} and {7,8}
	if len(f.Ranges) != 1 || f.Ranges[0] != (SackBlock{5, 8}) {
		t.Fatalf("merge failed: %v", f.Ranges)
	}
	expectRecord(t, f, 4, true) // extends {5,8} downward
	if f.Ranges[0] != (SackBlock{4, 8}) {
		t.Fatalf("downward extend failed: %v", f.Ranges)
	}
	expectRecord(t, f, 2, true) // new range below the existing one
	if len(f.Ranges) != 2 || f.Ranges[0] != (SackBlock{2, 3}) {
		t.Fatalf("insert-below failed: %v", f.Ranges)
	}
	// Filling 0,1,3 collapses everything into cum.
	expectRecord(t, f, 0, true)
	expectRecord(t, f, 1, true)
	expectRecord(t, f, 3, true)
	if f.Cum != 8 || len(f.Ranges) != 0 {
		t.Fatalf("final: cum=%d ranges=%v", f.Cum, f.Ranges)
	}
}

func TestReceiverRecordOverflowDropsLowest(t *testing.T) {
	f := &AckTracker{}
	// Every other sequence: maxTrackedRanges+1 disjoint singletons.
	for i := 0; i <= maxTrackedRanges; i++ {
		expectRecord(t, f, int64(2*i+2), true)
	}
	if len(f.Ranges) != maxTrackedRanges {
		t.Fatalf("len(ranges)=%d want %d", len(f.Ranges), maxTrackedRanges)
	}
	if f.Ranges[0].Start != 4 {
		t.Fatalf("lowest range should have been discarded, got %v", f.Ranges[0])
	}
}

// Duplicated packets must never double-count: the ack view (cum +
// ranges) after N distinct packets delivered with each packet repeated
// k times must equal the view after each packet delivered once.
func TestReceiverRecordDuplicationNoDoubleCount(t *testing.T) {
	f := &AckTracker{}
	newCount := 0
	for i := int64(0); i < 50; i++ {
		for rep := 0; rep < 3; rep++ {
			if f.Record(i) {
				newCount++
			}
		}
	}
	if newCount != 50 {
		t.Fatalf("newCount=%d want 50 (duplicates double-counted)", newCount)
	}
	if f.Cum != 50 || len(f.Ranges) != 0 {
		t.Fatalf("cum=%d ranges=%v", f.Cum, f.Ranges)
	}
	// Duplicates of out-of-order packets sitting in SACK ranges.
	g := &AckTracker{}
	for _, seq := range []int64{5, 5, 7, 7, 5, 9, 7} {
		g.Record(seq)
	}
	want := []SackBlock{{5, 6}, {7, 8}, {9, 10}}
	if g.Cum != 0 || len(g.Ranges) != len(want) {
		t.Fatalf("cum=%d ranges=%v", g.Cum, g.Ranges)
	}
	for i, bl := range want {
		if g.Ranges[i] != bl {
			t.Fatalf("ranges=%v want %v", g.Ranges, want)
		}
	}
}

// Severe reordering: delivering a window of sequences in any
// permutation (with some repeated) must converge to the same ack view
// — cum past the window, no residual ranges — and every intermediate
// state must be internally consistent (sorted, disjoint, above cum).
func TestReceiverRecordSevereReordering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		const n = 200
		order := rng.Perm(n)
		f := &AckTracker{}
		for _, v := range order {
			f.Record(int64(v))
			if rng.Intn(4) == 0 {
				f.Record(int64(v)) // sprinkle duplicates
			}
			checkFlowConsistent(t, f)
		}
		if f.Cum != n || len(f.Ranges) != 0 {
			t.Fatalf("trial %d: cum=%d ranges=%v", trial, f.Cum, f.Ranges)
		}
	}
}

func checkFlowConsistent(t *testing.T, f *AckTracker) {
	t.Helper()
	prev := f.Cum
	for i, bl := range f.Ranges {
		if bl.Start >= bl.End {
			t.Fatalf("range %d inverted: %v", i, f.Ranges)
		}
		if bl.Start < prev {
			t.Fatalf("range %d overlaps/below cum=%d: %v", i, f.Cum, f.Ranges)
		}
		prev = bl.End
	}
}
