// Package stats provides the statistical machinery shared by the
// congestion controllers and the experiment harness: streaming moments,
// percentiles, Jain's fairness index, linear regression with residual
// error (the basis of Proteus's RTT-gradient estimate and its per-MI
// regression-error tolerance), EWMA/mean-deviation trackers in the style
// of the Linux kernel's smoothed-RTT state, windowed min/max filters, and
// the confusion probability used in the paper's Figure 2 analysis.
package stats

import (
	"math"
	"sort"
)

// dropNaN returns xs with NaN samples removed. When xs has no NaN it is
// returned as-is, without copying — the common case stays allocation-free.
// NaNs are treated as missing measurements everywhere in this package:
// one poisoned RTT sample must not propagate into a rate computation.
func dropNaN(xs []float64) []float64 {
	for i, x := range xs {
		if math.IsNaN(x) {
			out := append([]float64(nil), xs[:i]...)
			for _, y := range xs[i+1:] {
				if !math.IsNaN(y) {
					out = append(out, y)
				}
			}
			return out
		}
	}
	return xs
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
// NaN samples are ignored.
func Mean(xs []float64) float64 {
	xs = dropNaN(xs)
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs (divide by n,
// matching the paper's σ(RTT) definition), or 0 when fewer than two
// non-NaN samples remain.
func StdDev(xs []float64) float64 {
	xs = dropNaN(xs)
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It copies and sorts its
// input. Returns 0 for an empty slice; NaN samples are ignored (a NaN p
// returns the minimum, like p <= 0).
func Percentile(xs []float64, p float64) float64 {
	xs = dropNaN(xs)
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return percentileSorted(c, p)
}

// PercentileSorted is Percentile for data already in ascending order; it
// does not allocate.
func PercentileSorted(sorted []float64, p float64) float64 {
	return percentileSorted(sorted, p)
}

func percentileSorted(c []float64, p float64) float64 {
	if len(c) == 0 {
		return 0
	}
	if !(p > 0) { // includes NaN
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method,
// which the benchmark's acceptance rule reads): the i-th quartile sits at
// rank i(n+1)/4, clamped to the second and second-to-last samples. With
// fewer than two samples both are the median. It copies and sorts its
// input; NaN samples are ignored.
func Quartiles(xs []float64) (q1, q3 float64) {
	xs = dropNaN(xs)
	n := len(xs)
	if n < 2 {
		m := Median(xs)
		return m, m
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(math.Floor(pos)), 1), n-1)
		return c[j-1] + (c[j]-c[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

// JainIndex returns Jain's fairness index of the allocation xs:
// (Σx)² / (n · Σx²). It is 1 for perfectly equal shares and 1/n when one
// flow takes everything. Returns 0 for empty or all-zero input; NaN
// samples are ignored.
func JainIndex(xs []float64) float64 {
	xs = dropNaN(xs)
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// LinReg holds the result of an ordinary-least-squares fit y = a + b·x.
type LinReg struct {
	Intercept float64 // a
	Slope     float64 // b
	Residual  float64 // sqrt(mean squared residual)
	N         int
}

// LinearRegression fits y = a + b·x by least squares. With fewer than two
// points, or zero x-variance, the slope is 0 and the intercept is the
// mean of y. Pairs where either coordinate is NaN are ignored.
func LinearRegression(x, y []float64) LinReg {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	ok := func(i int) bool { return !math.IsNaN(x[i]) && !math.IsNaN(y[i]) }
	var mx, my float64
	m := 0
	for i := 0; i < n; i++ {
		if ok(i) {
			mx += x[i]
			my += y[i]
			m++
		}
	}
	if m == 0 {
		return LinReg{}
	}
	mx /= float64(m)
	my /= float64(m)
	var sxx, sxy float64
	for i := 0; i < n; i++ {
		if !ok(i) {
			continue
		}
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	r := LinReg{N: m}
	if sxx == 0 || m < 2 {
		r.Intercept = my
	} else {
		r.Slope = sxy / sxx
		r.Intercept = my - r.Slope*mx
	}
	var sse float64
	for i := 0; i < n; i++ {
		if !ok(i) {
			continue
		}
		e := y[i] - (r.Intercept + r.Slope*x[i])
		sse += e * e
	}
	r.Residual = math.Sqrt(sse / float64(m))
	return r
}

// ConfusionProbability estimates P(b < a) for independent draws a from
// sampleA and b from sampleB, i.e. the probability that a value from the
// "congested" population B looks smaller than one from the "clean"
// population A — the paper's Figure 2 confusion metric. Ties count half.
// Computed exactly in O((n+m) log(n+m)).
func ConfusionProbability(sampleA, sampleB []float64) float64 {
	sampleA, sampleB = dropNaN(sampleA), dropNaN(sampleB)
	if len(sampleA) == 0 || len(sampleB) == 0 {
		return 0
	}
	a := append([]float64(nil), sampleA...)
	b := append([]float64(nil), sampleB...)
	sort.Float64s(a)
	sort.Float64s(b)
	// For each a_i count b_j < a_i (plus half the ties) with a merge walk.
	var count float64
	lo, hi := 0, 0 // b indices: b[<lo] < a_i, b[<hi] <= a_i
	for _, av := range a {
		for lo < len(b) && b[lo] < av {
			lo++
		}
		if hi < lo {
			hi = lo
		}
		for hi < len(b) && b[hi] <= av {
			hi++
		}
		count += float64(lo) + 0.5*float64(hi-lo)
	}
	return count / float64(len(a)*len(b))
}

// EWMA is an exponentially weighted moving average with a companion mean
// absolute deviation, mirroring how the Linux kernel maintains smoothed
// RTT (srtt) and RTT variance (rttvar). Proteus reuses this structure for
// its trending-gradient and trending-deviation statistics (§5).
type EWMA struct {
	Alpha float64 // weight of a new sample for the average (e.g. 1/8)
	Beta  float64 // weight of a new sample for the deviation (e.g. 1/4)
	avg   float64
	dev   float64
	init  bool
}

// NewEWMA returns an EWMA with the kernel's classic gains (1/8, 1/4).
func NewEWMA() *EWMA { return &EWMA{Alpha: 0.125, Beta: 0.25} }

// Add incorporates a sample. NaN samples are ignored — an EWMA seeded
// or fed with NaN would stay NaN forever.
func (e *EWMA) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if !e.init {
		e.avg = x
		e.dev = math.Abs(x) / 2
		e.init = true
		return
	}
	diff := math.Abs(x - e.avg)
	e.avg += e.Alpha * (x - e.avg)
	e.dev += e.Beta * (diff - e.dev)
}

// Initialized reports whether any sample has been added.
func (e *EWMA) Initialized() bool { return e.init }

// Avg returns the smoothed average (0 before the first sample).
func (e *EWMA) Avg() float64 { return e.avg }

// Dev returns the smoothed mean absolute deviation.
func (e *EWMA) Dev() float64 { return e.dev }

// Reset clears the filter.
func (e *EWMA) Reset() { e.avg, e.dev, e.init = 0, 0, false }

// WindowedMin tracks the minimum of samples within a trailing time
// window using a monotonic deque; used for BBR's min-RTT filter and
// COPA's standing RTT.
type WindowedMin struct {
	Window  float64
	samples []timedSample
}

type timedSample struct {
	t, v float64
}

// Add records sample v at time t (t must be nondecreasing). NaN values
// are ignored: NaN compares false with everything, so one would sit in
// the deque shadowing real minima.
func (w *WindowedMin) Add(t, v float64) {
	if math.IsNaN(v) {
		return
	}
	for len(w.samples) > 0 && w.samples[len(w.samples)-1].v >= v {
		w.samples = w.samples[:len(w.samples)-1]
	}
	w.samples = append(w.samples, timedSample{t, v})
	w.expire(t)
}

func (w *WindowedMin) expire(t float64) {
	for len(w.samples) > 0 && t-w.samples[0].t > w.Window {
		w.samples = w.samples[1:]
	}
}

// Get returns the window minimum as of time t, and whether any sample is
// present.
func (w *WindowedMin) Get(t float64) (float64, bool) {
	w.expire(t)
	if len(w.samples) == 0 {
		return 0, false
	}
	return w.samples[0].v, true
}

// WindowedMax is the mirror of WindowedMin, used for BBR's bottleneck
// bandwidth filter.
type WindowedMax struct {
	Window  float64
	samples []timedSample
}

// Add records sample v at time t (t must be nondecreasing). NaN values
// are ignored, as in WindowedMin.
func (w *WindowedMax) Add(t, v float64) {
	if math.IsNaN(v) {
		return
	}
	for len(w.samples) > 0 && w.samples[len(w.samples)-1].v <= v {
		w.samples = w.samples[:len(w.samples)-1]
	}
	w.samples = append(w.samples, timedSample{t, v})
	w.expire(t)
}

func (w *WindowedMax) expire(t float64) {
	for len(w.samples) > 0 && t-w.samples[0].t > w.Window {
		w.samples = w.samples[1:]
	}
}

// Get returns the window maximum as of time t, and whether any sample is
// present.
func (w *WindowedMax) Get(t float64) (float64, bool) {
	w.expire(t)
	if len(w.samples) == 0 {
		return 0, false
	}
	return w.samples[0].v, true
}

// Histogram is a fixed-bin histogram over [Lo, Hi); samples outside the
// range clamp to the edge bins. It renders the PDFs of Figure 2.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
}

// NewHistogram creates a histogram with bins equal-width bins.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample. NaN samples are ignored (float-to-int
// conversion of NaN is platform-defined in Go, so a NaN bin index is
// not even deterministic); ±Inf clamps to the edge bins. A degenerate
// range (Hi <= Lo) puts everything in bin 0.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	b := 0
	if h.Hi > h.Lo {
		switch frac := (x - h.Lo) / (h.Hi - h.Lo); {
		case frac >= 1:
			b = len(h.Counts) - 1
		case frac > 0:
			b = int(frac * float64(len(h.Counts)))
			if b >= len(h.Counts) { // frac just below 1 can round up
				b = len(h.Counts) - 1
			}
		}
	}
	h.Counts[b]++
	h.N++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}
