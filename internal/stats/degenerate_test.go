package stats

import (
	"math"
	"testing"
)

// The degenerate-input contract: empty and single-sample inputs return
// well-defined zeros or identities, and NaN samples are treated as
// missing measurements — never propagated into a result.

var nan = math.NaN()

func TestDegenerateQuantiles(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"empty p0", []float64{}, 0, 0},
		{"single", []float64{7}, 50, 7},
		{"single p0", []float64{7}, 0, 7},
		{"single p100", []float64{7}, 100, 7},
		{"p below range", []float64{1, 2, 3}, -10, 1},
		{"p above range", []float64{1, 2, 3}, 110, 3},
		{"nan p", []float64{1, 2, 3}, nan, 1},
		{"all nan", []float64{nan, nan}, 50, 0},
		{"nan mixed", []float64{nan, 4, nan, 2}, 50, 3},
		{"nan single survivor", []float64{nan, 5, nan}, 90, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Percentile(c.xs, c.p); got != c.want {
				t.Fatalf("Percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
			}
		})
	}
}

func TestDegenerateMoments(t *testing.T) {
	cases := []struct {
		name     string
		xs       []float64
		mean, sd float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3}, 3, 0},
		{"all nan", []float64{nan, nan, nan}, 0, 0},
		{"nan mixed", []float64{1, nan, 3}, 2, 1},
		{"nan leading", []float64{nan, 2, 2}, 2, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.xs); got != c.mean {
				t.Fatalf("Mean(%v) = %v, want %v", c.xs, got, c.mean)
			}
			if got := StdDev(c.xs); got != c.sd {
				t.Fatalf("StdDev(%v) = %v, want %v", c.xs, got, c.sd)
			}
		})
	}
}

func TestDegenerateJain(t *testing.T) {
	if got := JainIndex([]float64{nan, nan}); got != 0 {
		t.Fatalf("JainIndex(all NaN) = %v, want 0", got)
	}
	if got := JainIndex([]float64{5, nan, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("JainIndex(5, NaN, 5) = %v, want 1", got)
	}
}

func TestDegenerateRegression(t *testing.T) {
	// NaN pairs are skipped: the fit must match the clean subset.
	x := []float64{0, 1, nan, 2, 3}
	y := []float64{1, 3, 7, nan, 7}
	r := LinearRegression(x, y)
	clean := LinearRegression([]float64{0, 1, 3}, []float64{1, 3, 7})
	if r.N != 3 || math.Abs(r.Slope-clean.Slope) > 1e-12 || math.Abs(r.Intercept-clean.Intercept) > 1e-12 {
		t.Fatalf("NaN-skipping fit %+v != clean fit %+v", r, clean)
	}
	if r := LinearRegression([]float64{nan}, []float64{nan}); r != (LinReg{}) {
		t.Fatalf("all-NaN regression = %+v, want zero", r)
	}
	if r := LinearRegression([]float64{1, nan}, []float64{5, 9}); r.Intercept != 5 || r.Slope != 0 || r.N != 1 {
		t.Fatalf("single clean pair = %+v", r)
	}
}

func TestDegenerateConfusion(t *testing.T) {
	if got := ConfusionProbability([]float64{nan}, []float64{1, 2}); got != 0 {
		t.Fatalf("ConfusionProbability(all-NaN A) = %v, want 0", got)
	}
	got := ConfusionProbability([]float64{2, nan}, []float64{1, nan})
	if got != 1 {
		t.Fatalf("ConfusionProbability with NaNs = %v, want 1", got)
	}
}

func TestStreamingIgnoreNaN(t *testing.T) {
	var m Moments
	for _, x := range []float64{1, nan, 3} {
		m.Add(x)
	}
	if m.Count != 2 || m.Mean != 2 {
		t.Fatalf("Moments with NaN: n=%d mean=%v", m.Count, m.Mean)
	}

	e := NewEWMA()
	e.Add(nan)
	if e.Initialized() {
		t.Fatal("EWMA initialized by NaN")
	}
	e.Add(4)
	e.Add(nan)
	if e.Avg() != 4 || math.IsNaN(e.Dev()) {
		t.Fatalf("EWMA poisoned by NaN: avg=%v dev=%v", e.Avg(), e.Dev())
	}

	mn := WindowedMin{Window: 10}
	mn.Add(0, nan)
	if _, ok := mn.Get(0); ok {
		t.Fatal("WindowedMin stored a NaN")
	}
	mn.Add(1, 5)
	mn.Add(2, nan)
	if v, ok := mn.Get(2); !ok || v != 5 {
		t.Fatalf("WindowedMin after NaN: %v %v", v, ok)
	}

	mx := WindowedMax{Window: 10}
	mx.Add(1, 5)
	mx.Add(2, nan)
	if v, ok := mx.Get(2); !ok || v != 5 {
		t.Fatalf("WindowedMax after NaN: %v %v", v, ok)
	}
}

func TestDegenerateHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{nan, -1, 0, 9.999, 10, 11, math.Inf(1), math.Inf(-1)} {
		h.Add(x)
	}
	if h.N != 7 { // all but the NaN
		t.Fatalf("N = %d, want 7", h.N)
	}
	if h.Counts[0] != 3 { // -1, 0, -Inf
		t.Fatalf("low bin = %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 4 { // 9.999, 10, 11, +Inf
		t.Fatalf("high bin = %d, want 4", h.Counts[4])
	}

	// Degenerate range: everything lands in bin 0, no panic, no NaN math.
	d := NewHistogram(5, 5, 3)
	d.Add(4)
	d.Add(5)
	d.Add(6)
	if d.N != 3 || d.Counts[0] != 3 {
		t.Fatalf("degenerate range: N=%d counts=%v", d.N, d.Counts)
	}

	// Zero-bin request is clamped to one bin.
	z := NewHistogram(0, 1, 0)
	z.Add(0.5)
	if len(z.Counts) != 1 || z.Counts[0] != 1 {
		t.Fatalf("zero-bin histogram: %v", z.Counts)
	}
}
