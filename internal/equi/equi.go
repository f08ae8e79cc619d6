// Package equi implements the Appendix-A equilibrium analysis
// numerically. In the paper's simplified single-bottleneck model a
// Proteus-P sender's utility is
//
//	u_P(x) = x^t − b·x·max(0, (S−C)/C)
//
// and a Proteus-S sender adds the deviation penalty −d·A·x·|S−C|/C.
//
// Taken literally, the kink at S = C makes every full-utilization split
// a Nash equilibrium (below capacity every sender wants more; above it
// the b-penalty is overwhelming; exactly at the boundary nobody can
// improve) — the fair point of Theorems 4.1/4.2 is actually selected by
// the protocol's ±ε rate probing, which samples utility on both sides
// of the boundary. This package therefore analyzes the probing-smoothed
// game the deployed controller really plays: each sender's payoff is
// the expectation over its two probe rates x(1±ε),
//
//	u(x) = ½·u(x(1+ε); S₋ᵢ) + ½·u(x(1−ε); S₋ᵢ),
//
// which is strictly concave through the boundary. Best-response
// iteration on it converges to a unique, fair equilibrium — the
// numerical counterpart of Theorems 4.1 and 4.2 — and the same solver
// verifies the unique mixed P/S equilibrium and the §4.4 Proteus-H
// rate-pair prediction.
package equi

import (
	"math"

	"pccproteus/internal/core"
)

// Params are the utility constants of the model.
type Params struct {
	T   float64 // throughput exponent (0,1)
	B   float64 // latency-gradient coefficient
	D   float64 // deviation coefficient (scavengers)
	A   float64 // deviation-to-gradient conversion constant of Appendix A
	C   float64 // bottleneck capacity, Mbps
	Eps float64 // probing perturbation ±ε of the rate controller
}

// Default returns the paper's constants on a capacity-C link. t, b and
// ε are the controller's own (core.UtilT, core.UtilB, core.Epsilon). d
// is the paper's 1500, while the controller runs core.DefaultScavengerD
// = 5000 (DESIGN §5); which of the two the model should take is open
// (ROADMAP, "The theory as a third oracle"). A is set to MI/√12 with a
// 30 ms monitor interval (the σ(RTT) expression of Appendix A evaluated
// for an RTT-long MI).
func Default(capacityMbps float64) Params {
	return Params{T: core.UtilT, B: core.UtilB, D: 1500, A: 0.030 / math.Sqrt(12), C: capacityMbps, Eps: core.Epsilon}
}

// SenderKind selects which utility a sender maximizes.
type SenderKind int

// Sender kinds.
const (
	Primary SenderKind = iota
	Scavenger
)

// AppendixAUtility evaluates the exact payoff analyzed in Appendix A's
// proofs — the S ≥ C regime's smooth forms, u_P = x^t − b·x·(S−C)/C and
// u_S = x^t − (b+d·A)·x·(S−C)/C, extended over all rates. This is the
// strictly socially concave game whose unique equilibrium the paper's
// theorems are about; note that in it the scavenger's larger penalty
// coefficient makes its equilibrium rate strictly smaller.
func (p Params) AppendixAUtility(kind SenderKind, x, rest float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	s := x + rest
	pen := p.B
	if kind == Scavenger {
		pen = p.B + p.D*p.A
	}
	return math.Pow(x, p.T) - pen*x*(s-p.C)/p.C
}

// pointUtility evaluates the raw (kinked) payoff at rate x given the
// other senders' total rate rest.
func (p Params) pointUtility(kind SenderKind, x, rest float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	s := x + rest
	over := 0.0
	if s > p.C {
		over = (s - p.C) / p.C
	}
	u := math.Pow(x, p.T) - p.B*x*over
	if kind == Scavenger {
		u -= p.D * p.A * x * math.Abs(s-p.C) / p.C
	}
	return u
}

// utility is the probing-smoothed payoff: the mean over the two probe
// rates x(1±ε).
func (p Params) utility(kind SenderKind, x, rest float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	return 0.5*p.pointUtility(kind, x*(1+p.Eps), rest) +
		0.5*p.pointUtility(kind, x*(1-p.Eps), rest)
}

// bestResponse maximizes sender i's utility over x ∈ [0, hi] by golden-
// section search (the payoff is unimodal in x: increasing while under
// capacity, concave beyond).
func (p Params) bestResponse(kind SenderKind, rest float64, u payoff) float64 {
	lo, hi := 0.0, 2*p.C
	const phi = 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := u(kind, a, rest), u(kind, b, rest)
	for i := 0; i < 200; i++ {
		if fa < fb {
			lo = a
			a, fa = b, fb
			b = lo + phi*(hi-lo)
			fb = u(kind, b, rest)
		} else {
			hi = b
			b, fb = a, fa
			a = hi - phi*(hi-lo)
			fa = u(kind, a, rest)
		}
	}
	return (lo + hi) / 2
}

// Equilibrium finds the Nash equilibrium of the probing-smoothed game
// by damped best-response iteration from the given starting rates. It
// returns the rates and whether the iteration converged.
func (p Params) Equilibrium(kinds []SenderKind, start []float64) ([]float64, bool) {
	return p.solve(kinds, start, p.utility)
}

// EquilibriumAppendixA finds the Nash equilibrium of the Appendix-A
// game (see AppendixAUtility).
func (p Params) EquilibriumAppendixA(kinds []SenderKind, start []float64) ([]float64, bool) {
	return p.solve(kinds, start, p.AppendixAUtility)
}

type payoff func(kind SenderKind, x, rest float64) float64

func (p Params) solve(kinds []SenderKind, start []float64, u payoff) ([]float64, bool) {
	x := make([]float64, len(kinds))
	copy(x, start)
	for i := range x {
		if x[i] <= 0 {
			x[i] = p.C / float64(len(kinds)+1)
		}
	}
	const damping = 0.3
	for iter := 0; iter < 5000; iter++ {
		maxMove := 0.0
		var sum float64
		for _, v := range x {
			sum += v
		}
		for i, kind := range kinds {
			br := p.bestResponse(kind, sum-x[i], u)
			next := x[i] + damping*(br-x[i])
			move := math.Abs(next - x[i])
			if move > maxMove {
				maxMove = move
			}
			sum += next - x[i]
			x[i] = next
		}
		if maxMove < 1e-7*p.C {
			return x, true
		}
	}
	return x, false
}

// HybridPrediction returns the §4.4 ideal rate pair for two Proteus-H
// senders with switching thresholds r1 ≤ r2 on a capacity-C bottleneck:
//
//	(C/2, C/2)        if C < 2·r1
//	(r1,  C−r1)       if 2·r1 ≤ C < r1+r2
//	(C−r2, r2)        if r1+r2 ≤ C < 2·r2
//	(C/2, C/2)        if C ≥ 2·r2
func HybridPrediction(r1, r2, c float64) (x1, x2 float64) {
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	switch {
	case c < 2*r1:
		return c / 2, c / 2
	case c < r1+r2:
		return r1, c - r1
	case c < 2*r2:
		return c - r2, r2
	default:
		return c / 2, c / 2
	}
}
