package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean=%v", m)
	}
	if sd := StdDev(xs); !almost(sd, 2, 1e-12) {
		t.Fatalf("stddev=%v", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{3}) != 0 {
		t.Fatal("empty/singleton cases")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("P%v=%v want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 {
		t.Fatal("Percentile mutated input")
	}
}

// Quartiles match Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{25.4, 25.4, 25.4, 26.6, 25.9, 25.9, 25.6}, 25.4, 25.9},
		{[]float64{24.72, 24.73, 24.63, 24.82, 25.61, 24.89, 25.37, 25.12, 24.79, 24.48, 26.92, 25.68}, 24.7225, 25.55},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1, 3, math.NaN()}, 0.5, 3.5},
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := Quartiles(tc.v); !almost(q1, tc.q1, 1e-12) || !almost(q3, tc.q3, 1e-12) {
			t.Errorf("Quartiles(%v) = %g, %g; want %g, %g", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	in := []float64{3, 1, 2}
	Quartiles(in)
	if in[0] != 3 {
		t.Fatal("Quartiles mutated input")
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{10, 10, 10}); !almost(j, 1, 1e-12) {
		t.Fatalf("equal shares: %v", j)
	}
	if j := JainIndex([]float64{30, 0, 0}); !almost(j, 1.0/3, 1e-12) {
		t.Fatalf("one hog: %v", j)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("degenerate cases")
	}
}

func TestLinearRegression(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	r := LinearRegression(x, y)
	if !almost(r.Slope, 2, 1e-12) || !almost(r.Intercept, 1, 1e-12) || !almost(r.Residual, 0, 1e-9) {
		t.Fatalf("fit: %+v", r)
	}
	// Constant x → zero slope, mean intercept.
	r = LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3})
	if r.Slope != 0 || !almost(r.Intercept, 2, 1e-12) {
		t.Fatalf("degenerate fit: %+v", r)
	}
	if LinearRegression(nil, nil).N != 0 {
		t.Fatal("empty fit")
	}
}

func TestLinRegResidual(t *testing.T) {
	// Perfect line plus symmetric noise ±1 → residual 1.
	x := []float64{0, 1, 2, 3}
	y := []float64{1, -1, 1, -1}
	r := LinearRegression(x, y)
	want := 0.0
	for i := range x {
		e := y[i] - (r.Intercept + r.Slope*x[i])
		want += e * e
	}
	want = math.Sqrt(want / 4)
	if !almost(r.Residual, want, 1e-12) {
		t.Fatalf("residual=%v want %v", r.Residual, want)
	}
}

func TestConfusionProbability(t *testing.T) {
	// B entirely above A → P(b < a) = 0.
	if p := ConfusionProbability([]float64{1, 2}, []float64{3, 4}); p != 0 {
		t.Fatalf("separated: %v", p)
	}
	// B entirely below A → 1.
	if p := ConfusionProbability([]float64{3, 4}, []float64{1, 2}); p != 1 {
		t.Fatalf("inverted: %v", p)
	}
	// Identical distributions → 0.5 (ties count half).
	if p := ConfusionProbability([]float64{1, 2, 3}, []float64{1, 2, 3}); !almost(p, 0.5, 1e-12) {
		t.Fatalf("identical: %v", p)
	}
	if ConfusionProbability(nil, []float64{1}) != 0 {
		t.Fatal("empty input")
	}
}

func TestConfusionAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		a := make([]float64, 30)
		b := make([]float64, 40)
		for i := range a {
			a[i] = math.Round(rng.Float64()*10) / 2
		}
		for i := range b {
			b[i] = math.Round(rng.Float64()*10)/2 + 1
		}
		var brute float64
		for _, av := range a {
			for _, bv := range b {
				if bv < av {
					brute++
				} else if bv == av {
					brute += 0.5
				}
			}
		}
		brute /= float64(len(a) * len(b))
		if got := ConfusionProbability(a, b); !almost(got, brute, 1e-12) {
			t.Fatalf("trial %d: got %v want %v", trial, got, brute)
		}
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA()
	if e.Initialized() {
		t.Fatal("fresh EWMA claims initialized")
	}
	e.Add(100)
	if e.Avg() != 100 || e.Dev() != 50 {
		t.Fatalf("first sample: avg=%v dev=%v", e.Avg(), e.Dev())
	}
	e.Add(100)
	if !almost(e.Avg(), 100, 1e-12) {
		t.Fatalf("steady avg: %v", e.Avg())
	}
	// Converges towards a constant input.
	for i := 0; i < 200; i++ {
		e.Add(50)
	}
	if !almost(e.Avg(), 50, 1e-6) || e.Dev() > 1e-3 {
		t.Fatalf("convergence: avg=%v dev=%v", e.Avg(), e.Dev())
	}
	e.Reset()
	if e.Initialized() {
		t.Fatal("reset failed")
	}
}

func TestWindowedMinMax(t *testing.T) {
	mn := WindowedMin{Window: 10}
	mx := WindowedMax{Window: 10}
	mn.Add(0, 5)
	mn.Add(1, 3)
	mn.Add(2, 4)
	mx.Add(0, 5)
	mx.Add(1, 7)
	mx.Add(2, 6)
	if v, ok := mn.Get(2); !ok || v != 3 {
		t.Fatalf("min=%v", v)
	}
	if v, ok := mx.Get(2); !ok || v != 7 {
		t.Fatalf("max=%v", v)
	}
	// Expiry: after window passes, old extreme drops out.
	if v, _ := mn.Get(12); v != 4 {
		t.Fatalf("min after expiry=%v", v)
	}
	if v, _ := mx.Get(12); v != 6 {
		t.Fatalf("max after expiry=%v", v)
	}
	if _, ok := mn.Get(1000); ok {
		t.Fatal("all samples should expire")
	}
}

func TestWindowedMinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := WindowedMin{Window: 5}
	type s struct{ t, v float64 }
	var hist []s
	tm := 0.0
	for i := 0; i < 500; i++ {
		tm += rng.Float64()
		v := rng.Float64() * 100
		w.Add(tm, v)
		hist = append(hist, s{tm, v})
		want := math.Inf(1)
		for _, h := range hist {
			if tm-h.t <= 5 && h.v < want {
				want = h.v
			}
		}
		if got, ok := w.Get(tm); !ok || !almost(got, want, 1e-12) {
			t.Fatalf("i=%d got %v want %v", i, got, want)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-5) // clamps into bin 0
	h.Add(50) // clamps into bin 9
	if h.N != 12 || h.Counts[0] != 2 || h.Counts[9] != 2 || h.Counts[5] != 1 {
		t.Fatalf("counts=%v n=%d", h.Counts, h.N)
	}
	if !almost(h.BinCenter(0), 0.5, 1e-12) || !almost(h.BinCenter(9), 9.5, 1e-12) {
		t.Fatal("bin centers")
	}
}

// --- property-based tests ---

func TestQuickJainBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		j := JainIndex(xs)
		if j == 0 { // all-zero allocation
			for _, x := range xs {
				if x != 0 {
					return false
				}
			}
			return true
		}
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []int16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStdDevNonNegativeAndShiftInvariant(t *testing.T) {
	f := func(raw []int16, shift int16) bool {
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			ys[i] = float64(r) + float64(shift)
		}
		a, b := StdDev(xs), StdDev(ys)
		return a >= 0 && math.Abs(a-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConfusionSymmetry(t *testing.T) {
	// P(b<a) + P(a<b) = 1 when computed both ways (ties split evenly).
	f := func(ra, rb []int8) bool {
		if len(ra) == 0 || len(rb) == 0 {
			return true
		}
		a := make([]float64, len(ra))
		b := make([]float64, len(rb))
		for i, r := range ra {
			a[i] = float64(r)
		}
		for i, r := range rb {
			b[i] = float64(r)
		}
		return math.Abs(ConfusionProbability(a, b)+ConfusionProbability(b, a)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRegressionRecoversLine(t *testing.T) {
	f := func(a8, b8 int8, n8 uint8) bool {
		n := int(n8%20) + 2
		a, b := float64(a8), float64(b8)/4
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = float64(i)
			y[i] = a + b*float64(i)
		}
		r := LinearRegression(x, y)
		return math.Abs(r.Slope-b) < 1e-6 && math.Abs(r.Intercept-a) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
