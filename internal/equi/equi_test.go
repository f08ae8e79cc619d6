package equi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pccproteus/internal/core"
)

// The model solves the controller's utility: its t, b and ε are the
// ones the controller runs, whatever either side is changed to.
func TestDefaultIsTheControllersUtility(t *testing.T) {
	p := Default(100)
	if p.T != core.UtilT || p.B != core.UtilB || p.Eps != core.Epsilon {
		t.Fatalf("equi runs t=%v b=%v ε=%v, the controller t=%v b=%v ε=%v",
			p.T, p.B, p.Eps, core.UtilT, core.UtilB, core.Epsilon)
	}
	// d is the paper's, not the controller's DefaultScavengerD.
	if p.D != 1500 {
		t.Fatalf("d=%v, want the paper's 1500", p.D)
	}
}

func allKind(k SenderKind, n int) []SenderKind {
	out := make([]SenderKind, n)
	for i := range out {
		out[i] = k
	}
	return out
}

func spread(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return hi - lo
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Theorem 4.1: n Proteus-P senders converge to equal rates with the
// link fully utilized.
func TestTheorem41PrimaryFairness(t *testing.T) {
	p := Default(100)
	for _, n := range []int{2, 3, 5, 10} {
		x, ok := p.Equilibrium(allKind(Primary, n), make([]float64, n))
		if !ok {
			t.Fatalf("n=%d did not converge", n)
		}
		if spread(x)/x[0] > 1e-3 {
			t.Fatalf("n=%d unfair equilibrium: %v", n, x)
		}
		// "Full" utilization in the smoothed game means the +ε probe
		// rides the capacity boundary: S* ≈ C/(1+ε).
		if s := sum(x); s < p.C*0.95 || s > p.C*1.01 {
			t.Fatalf("n=%d utilization %v (C=%v)", n, s, p.C)
		}
	}
}

// Theorem 4.2: the same for Proteus-S senders.
func TestTheorem42ScavengerFairness(t *testing.T) {
	p := Default(100)
	for _, n := range []int{2, 4, 8} {
		x, ok := p.Equilibrium(allKind(Scavenger, n), make([]float64, n))
		if !ok {
			t.Fatalf("n=%d did not converge", n)
		}
		if spread(x)/x[0] > 1e-3 {
			t.Fatalf("n=%d unfair: %v", n, x)
		}
		// Scavengers sit a little further below capacity: the two-sided
		// |S−C| penalty makes boundary-hugging costly on both probes.
		if s := sum(x); s < p.C*0.93 || s > p.C*1.01 {
			t.Fatalf("n=%d utilization %v", n, s)
		}
	}
}

// Mixed P+S equilibrium of the smoothed game exists and is unique
// (independent of the starting point). Note the static model does not by
// itself produce yielding — the paper explicitly leaves the formal
// yielding analysis to future work; yielding emerges from the dynamics
// (and is measured by the exp harness), not from this equilibrium.
func TestMixedEquilibriumUnique(t *testing.T) {
	p := Default(100)
	kinds := []SenderKind{Primary, Scavenger}
	rng := rand.New(rand.NewSource(1))
	var ref []float64
	for trial := 0; trial < 8; trial++ {
		start := []float64{rng.Float64() * 150, rng.Float64() * 150}
		x, ok := p.Equilibrium(kinds, start)
		if !ok {
			t.Fatalf("trial %d did not converge from %v", trial, start)
		}
		if ref == nil {
			ref = x
		} else {
			for i := range x {
				if math.Abs(x[i]-ref[i]) > 1e-3*p.C {
					t.Fatalf("non-unique equilibrium: %v vs %v", x, ref)
				}
			}
		}
	}
	if s := ref[0] + ref[1]; s < p.C*0.95 {
		t.Fatalf("mixed equilibrium under-utilizes: %v", s)
	}
}

// In the Appendix-A game (the one the proofs analyze, with one-sided
// penalties in the S ≥ C regime), the scavenger's strictly larger
// penalty coefficient gives it a strictly smaller equilibrium rate, and
// more so as d grows.
func TestAppendixAScavengerTakesLess(t *testing.T) {
	prev := math.Inf(1)
	for _, d := range []float64{500, 1500, 5000, 15000} {
		p := Default(100)
		p.D = d
		x, ok := p.EquilibriumAppendixA([]SenderKind{Primary, Scavenger}, nil)
		if !ok {
			t.Fatalf("d=%v did not converge", d)
		}
		if x[1] >= x[0] {
			t.Fatalf("d=%v: scavenger %.2f should be below primary %.2f", d, x[1], x[0])
		}
		share := x[1] / (x[0] + x[1])
		if share >= prev {
			t.Fatalf("share %.4f at d=%v not below %.4f", share, d, prev)
		}
		prev = share
	}
}

func TestBestResponseUnderCapacityPushesToCapacity(t *testing.T) {
	p := Default(100)
	// With others at 20 and capacity 100, the smoothed best response
	// places the +ε probe right at the kink: x ≈ 80/(1+ε).
	br := p.bestResponse(Primary, 20, p.utility)
	want := 80 / (1 + p.Eps)
	if math.Abs(br-want) > 1.5 {
		t.Fatalf("best response %v, want ≈%v", br, want)
	}
}

func TestHybridPredictionPiecewise(t *testing.T) {
	cases := []struct{ r1, r2, c, want1, want2 float64 }{
		{30, 40, 50, 25, 25},  // C < 2·r1: fair share
		{30, 40, 65, 30, 35},  // 2·r1 ≤ C < r1+r2: low-threshold yields at r1
		{30, 40, 75, 35, 40},  // r1+r2 ≤ C < 2·r2: high-threshold capped at r2
		{30, 40, 100, 50, 50}, // C ≥ 2·r2: fair share again
		{40, 30, 65, 30, 35},  // argument order must not matter
	}
	for _, c := range cases {
		x1, x2 := HybridPrediction(c.r1, c.r2, c.c)
		if math.Abs(x1-c.want1) > 1e-12 || math.Abs(x2-c.want2) > 1e-12 {
			t.Fatalf("HybridPrediction(%v,%v,%v) = (%v,%v) want (%v,%v)",
				c.r1, c.r2, c.c, x1, x2, c.want1, c.want2)
		}
	}
}

// Property: hybrid prediction always sums to min(C, …) consistently and
// never exceeds capacity.
func TestQuickHybridConservation(t *testing.T) {
	f := func(a, b, cc uint16) bool {
		r1 := float64(a%200) + 1
		r2 := float64(b%200) + 1
		c := float64(cc%400) + 1
		x1, x2 := HybridPrediction(r1, r2, c)
		if x1 < 0 || x2 < 0 {
			return false
		}
		return math.Abs(x1+x2-c) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: equilibria never leave the link badly under- or over-used.
func TestQuickEquilibriumUtilization(t *testing.T) {
	f := func(nP, nS uint8, cap16 uint16) bool {
		np, ns := int(nP%4), int(nS%4)
		if np+ns == 0 {
			return true
		}
		c := float64(cap16%400) + 20
		p := Default(c)
		kinds := append(allKind(Primary, np), allKind(Scavenger, ns)...)
		x, ok := p.Equilibrium(kinds, nil)
		if !ok {
			return false
		}
		s := sum(x)
		// Scavenger-heavy mixes settle a little further below capacity
		// (the |S−C| deviation penalty is two-sided), so allow 90%.
		return s > 0.90*c && s < 1.1*c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
