package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
)

func newTestLink(s *sim.Sim, mbps float64, bufBytes int, rttSec float64) *netem.Path {
	l := netem.NewLink(s, mbps, bufBytes, rttSec/2)
	return &netem.Path{Link: l, AckDelay: rttSec / 2}
}

// run measures each sender's throughput (Mbps) between warmup and end.
func runFlows(s *sim.Sim, senders []*transport.Sender, warmup, end float64) []float64 {
	var marks []int64
	s.At(warmup, func() {
		for _, sd := range senders {
			marks = append(marks, sd.AckedBytes())
		}
	})
	for _, sd := range senders {
		sd.Start()
	}
	s.Run(end)
	out := make([]float64, len(senders))
	for i, sd := range senders {
		out[i] = float64(sd.AckedBytes()-marks[i]) * 8 / (end - warmup) / 1e6
	}
	return out
}

func TestUtilityPrimaryShape(t *testing.T) {
	u := NewPrimary()
	// Clean network: utility is increasing in rate.
	m1 := Metrics{RateMbps: 10}
	m2 := Metrics{RateMbps: 20}
	if u.Utility(m2) <= u.Utility(m1) {
		t.Fatal("clean-network utility must increase with rate")
	}
	// Positive gradient is penalized; negative gradient ignored.
	base := u.Utility(Metrics{RateMbps: 20})
	if u.Utility(Metrics{RateMbps: 20, RTTGradient: 0.05}) >= base {
		t.Fatal("positive gradient must penalize")
	}
	if u.Utility(Metrics{RateMbps: 20, RTTGradient: -0.5}) != base {
		t.Fatal("negative gradient must be ignored (Proteus-P modification)")
	}
	// Loss penalized with c=11.35: 5% random loss still leaves positive
	// marginal utility at low rates.
	if u.Utility(Metrics{RateMbps: 20, LossRate: 0.05}) >= base {
		t.Fatal("loss must penalize")
	}
}

func TestUtilityScavengerDeviationPenalty(t *testing.T) {
	s := NewScavenger()
	p := NewPrimary()
	m := Metrics{RateMbps: 20, RTTDeviation: 0.001}
	if s.Utility(m) >= p.Utility(m) {
		t.Fatal("scavenger must penalize RTT deviation on top of primary")
	}
	// With zero deviation the two coincide.
	m0 := Metrics{RateMbps: 20}
	if math.Abs(s.Utility(m0)-p.Utility(m0)) > 1e-12 {
		t.Fatal("u_S == u_P when deviation is zero")
	}
	// d·x·σ: exact penalty.
	want := p.Utility(m) - DefaultScavengerD*20*0.001
	if math.Abs(s.Utility(m)-want) > 1e-9 {
		t.Fatalf("penalty: got %v want %v", s.Utility(m), want)
	}
}

func TestUtilityHybridPiecewise(t *testing.T) {
	h := NewHybrid()
	h.SetThreshold(15)
	below := Metrics{RateMbps: 10, RTTDeviation: 0.002}
	above := Metrics{RateMbps: 20, RTTDeviation: 0.002}
	if h.Utility(below) != h.P.Utility(below) {
		t.Fatal("below threshold must use primary utility")
	}
	if h.Utility(above) != h.S.Utility(above) {
		t.Fatal("at/above threshold must use scavenger utility")
	}
	if h.Threshold() != 15 {
		t.Fatal("threshold accessor")
	}
	h.SetThreshold(math.Inf(1))
	if h.Utility(above) != h.P.Utility(above) {
		t.Fatal("infinite threshold (emergency rule) must be pure primary")
	}
}

func TestVivaceUtilityRewardsNegativeGradient(t *testing.T) {
	v := NewVivaceUtility()
	base := v.Utility(Metrics{RateMbps: 20})
	if v.Utility(Metrics{RateMbps: 20, RTTGradient: -0.01}) <= base {
		t.Fatal("Vivace rewards negative gradient (Proteus-P does not)")
	}
}

// Property: Proteus-P utility is concave in rate for clean metrics
// (midpoint test), guaranteeing the unique-equilibrium machinery of
// Appendix A applies.
func TestQuickPrimaryConcavity(t *testing.T) {
	u := NewPrimary()
	f := func(a, b uint16, gradMilli uint8) bool {
		x1 := float64(a)/100 + 0.1
		x2 := float64(b)/100 + 0.1
		grad := float64(gradMilli) / 1000
		um := func(x float64) float64 {
			return u.Utility(Metrics{RateMbps: x, RTTGradient: grad})
		}
		mid := (x1 + x2) / 2
		return um(mid) >= (um(x1)+um(x2))/2-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: scavenger utility is monotonically non-increasing in the
// deviation penalty.
func TestQuickScavengerMonotoneInDeviation(t *testing.T) {
	u := NewScavenger()
	f := func(x16 uint16, d1, d2 uint16) bool {
		x := float64(x16)/100 + 0.1
		a, b := float64(d1)/1e5, float64(d2)/1e5
		if a > b {
			a, b = b, a
		}
		ua := u.Utility(Metrics{RateMbps: x, RTTDeviation: a})
		ub := u.Utility(Metrics{RateMbps: x, RTTDeviation: b})
		return ua >= ub-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProteusPSaturatesCleanLink(t *testing.T) {
	s := sim.New(1)
	path := newTestLink(s, 50, 375000, 0.030)
	cc := NewProteusP(s.Rand())
	snd := transport.NewSender(1, path, cc)
	snd.RecordRTT = true
	tput := runFlows(s, []*transport.Sender{snd}, 20, 100)
	if tput[0] < 42 { // ≥84% of 50 Mbps after warmup
		t.Fatalf("Proteus-P throughput %.1f Mbps, want ≥42", tput[0])
	}
	// Latency awareness: 95th percentile RTT inflation small.
	p95 := stats.Percentile(snd.RTTSamples(), 95)
	if p95 > path.BaseRTT()+0.015 {
		t.Fatalf("95th RTT %.1f ms shows bufferbloat (base %.1f ms)", p95*1000, path.BaseRTT()*1000)
	}
}

func TestProteusSSaturatesCleanLinkAlone(t *testing.T) {
	s := sim.New(2)
	path := newTestLink(s, 50, 375000, 0.030)
	cc := NewProteusS(s.Rand())
	snd := transport.NewSender(1, path, cc)
	tput := runFlows(s, []*transport.Sender{snd}, 20, 100)
	if tput[0] < 40 { // scavenger alone must behave like a primary
		t.Fatalf("Proteus-S solo throughput %.1f Mbps, want ≥40", tput[0])
	}
}

func TestProteusWorksWithShallowBuffer(t *testing.T) {
	s := sim.New(3)
	path := newTestLink(s, 50, 15000, 0.030) // 0.08 BDP — paper: tiny buffer suffices
	cc := NewProteusP(s.Rand())
	snd := transport.NewSender(1, path, cc)
	tput := runFlows(s, []*transport.Sender{snd}, 20, 100)
	if tput[0] < 40 {
		t.Fatalf("shallow-buffer throughput %.1f Mbps, want ≥40", tput[0])
	}
}

func TestTwoProteusPFairness(t *testing.T) {
	s := sim.New(4)
	path := newTestLink(s, 50, 375000, 0.030)
	a := transport.NewSender(1, path, NewProteusP(s.Rand()))
	b := transport.NewSender(2, path, NewProteusP(s.Rand()))
	tput := runFlows(s, []*transport.Sender{a, b}, 40, 160)
	j := stats.JainIndex(tput)
	if j < 0.95 {
		t.Fatalf("Jain index %.3f (tput %v), want ≥0.95", j, tput)
	}
	if tput[0]+tput[1] < 40 {
		t.Fatalf("joint utilization %.1f too low", tput[0]+tput[1])
	}
}

func TestProteusSYieldsToProteusP(t *testing.T) {
	// As in the paper's §6.2 methodology: one primary flow, followed by
	// one scavenger 20 s later; measure after both have settled.
	s := sim.New(5)
	path := newTestLink(s, 50, 375000, 0.030)
	p := transport.NewSender(1, path, NewProteusP(s.Rand()))
	scv := transport.NewSender(2, path, NewProteusS(s.Rand()))
	p.Start()
	s.At(20, func() { scv.Start() })
	var pMark, sMark int64
	s.At(60, func() { pMark, sMark = p.AckedBytes(), scv.AckedBytes() })
	s.Run(180)
	pT := float64(p.AckedBytes()-pMark) * 8 / 120 / 1e6
	sT := float64(scv.AckedBytes()-sMark) * 8 / 120 / 1e6
	// The primary should keep the vast majority of the link. (The exact
	// primary-throughput-ratio figures are produced by the experiment
	// harness; here we assert the qualitative contract across seeds.)
	if pT < 0.60*50 {
		t.Fatalf("primary got %.1f Mbps against scavenger, want ≥30 (scavenger %.1f)", pT, sT)
	}
	if sT > 0.2*50 {
		t.Fatalf("scavenger took %.1f Mbps, too aggressive", sT)
	}
	if pT < 3*sT {
		t.Fatalf("yield too weak: P=%.1f S=%.1f", pT, sT)
	}
}

func TestProteusSRecoversWhenPrimaryLeaves(t *testing.T) {
	s := sim.New(6)
	path := newTestLink(s, 50, 375000, 0.030)
	p := transport.NewSender(1, path, NewProteusP(s.Rand()))
	scv := transport.NewSender(2, path, NewProteusS(s.Rand()))
	p.Start()
	scv.Start()
	s.At(60, func() { p.Stop() })
	s.Run(60)
	midMark := scv.AckedBytes()
	s.Run(150)
	tail := float64(scv.AckedBytes()-midMark) * 8 / 90 / 1e6
	if tail < 35 {
		t.Fatalf("scavenger only reached %.1f Mbps after primary left", tail)
	}
}

func TestSetUtilityMidFlowSwitchesBehavior(t *testing.T) {
	s := sim.New(7)
	path := newTestLink(s, 50, 375000, 0.030)
	// Flow A: primary throughout. Flow B: starts primary, becomes
	// scavenger at t=60 — its share must collapse.
	ccB := NewProteusP(s.Rand())
	a := transport.NewSender(1, path, NewProteusP(s.Rand()))
	b := transport.NewSender(2, path, ccB)
	a.Start()
	b.Start()
	s.At(60, func() { ccB.SetUtility(NewScavenger()) })
	s.Run(60)
	aMark, bMark := a.AckedBytes(), b.AckedBytes()
	s.Run(160)
	aT := float64(a.AckedBytes()-aMark) * 8 / 100 / 1e6
	bT := float64(b.AckedBytes()-bMark) * 8 / 100 / 1e6
	if bT > aT/2 {
		t.Fatalf("after switching to scavenger, B=%.1f should be far below A=%.1f", bT, aT)
	}
	if ccB.Stats().UtilitySwaps != 1 {
		t.Fatal("swap not recorded")
	}
}

func TestProteusToleratesRandomLoss(t *testing.T) {
	s := sim.New(8)
	path := newTestLink(s, 50, 375000, 0.030)
	path.Link.LossProb = 0.02 // 2% random loss, within the 5% design point
	cc := NewProteusP(s.Rand())
	snd := transport.NewSender(1, path, cc)
	tput := runFlows(s, []*transport.Sender{snd}, 20, 100)
	if tput[0] < 30 {
		t.Fatalf("throughput %.1f under 2%% random loss, want ≥30", tput[0])
	}
}

func TestProteusPOnNoisyLink(t *testing.T) {
	s := sim.New(9)
	path := newTestLink(s, 50, 375000, 0.030)
	path.Link.Jitter = netem.SpikeNoise{
		Base:      netem.LognormalNoise{Median: 0.001, Sigma: 0.8},
		SpikeProb: 0.001, SpikeMin: 0.01, SpikeMax: 0.03,
	}
	cc := NewProteusP(s.Rand())
	snd := transport.NewSender(1, path, cc)
	tput := runFlows(s, []*transport.Sender{snd}, 20, 120)
	if tput[0] < 25 {
		t.Fatalf("noisy-link throughput %.1f Mbps, want ≥25", tput[0])
	}
}

func TestAckFilterDropsBurstSamples(t *testing.T) {
	cfg := ProteusConfig(rand.New(rand.NewSource(1)))
	mo := newMonitor(&cfg)
	// Steady 1 ms ACK cadence, 30 ms RTT.
	now := 0.0
	for i := 0; i < 100; i++ {
		now += 0.001
		mo.ackFilter(now, 0.030)
	}
	// A 200 ms silence then a burst: interval ratio 200 ≫ 50 → filter on.
	now += 0.200
	if mo.ackFilter(now, 0.230) {
		t.Fatal("post-gap inflated sample should be filtered")
	}
	now += 0.0001
	if mo.ackFilter(now, 0.200) {
		t.Fatal("burst samples above EWMA should be filtered")
	}
	// Recovery: a sample below the moving average ends filtering.
	now += 0.0001
	if !mo.ackFilter(now, 0.029) {
		t.Fatal("below-average sample should end filtering")
	}
	if mo.filteredOut != 2 {
		t.Fatalf("filteredOut=%d want 2", mo.filteredOut)
	}
}

func TestTrendingWarmupIsAnomalous(t *testing.T) {
	ns := newNoiseState()
	g, d := ns.observe(Metrics{AvgRTT: 0.03, RTTDeviation: 0.0001})
	if !g || !d {
		t.Fatal("warmup must be conservative (anomalous)")
	}
}

func TestTrendingDetectsPersistentInflation(t *testing.T) {
	ns := newNoiseState()
	// Long stable period.
	for i := 0; i < 60; i++ {
		ns.observe(Metrics{AvgRTT: 0.030, RTTDeviation: 0.0001})
	}
	g, _ := ns.observe(Metrics{AvgRTT: 0.030, RTTDeviation: 0.0001})
	if g {
		t.Fatal("stable trend should not be anomalous")
	}
	// Slow persistent inflation: +0.4 ms per MI, each step small.
	anomalousSeen := false
	for i := 1; i <= 12; i++ {
		g, _ = ns.observe(Metrics{AvgRTT: 0.030 + float64(i)*0.0004, RTTDeviation: 0.0001})
		if g {
			anomalousSeen = true
		}
	}
	if !anomalousSeen {
		t.Fatal("persistent slow inflation must trip the trending detector")
	}
}

func TestMonitorMetricsComputation(t *testing.T) {
	cfg := Config{Rng: rand.New(rand.NewSource(1))} // every tolerance off
	mo := newMonitor(&cfg)
	m := mo.beginMI(0, 10, 0.030)
	// 10 packets over 30 ms, RTTs rising linearly 30→39 ms.
	for i := 0; i < 10; i++ {
		mo.onSend(float64(i)*0.003, 1500)
	}
	u := NewPrimary()
	mo.seal(0.030, u)
	var res miResult
	var done bool
	for i := 0; i < 10; i++ {
		sendT := float64(i) * 0.003
		rtt := 0.030 + float64(i)*0.001
		res, done = mo.onAck(sendT+rtt, m.id, sendT, rtt, u)
	}
	if !done {
		t.Fatal("MI did not finalize")
	}
	// Gradient: 1 ms per 3 ms of send time = 1/3 s/s.
	if math.Abs(res.metrics.RTTGradient-1.0/3) > 1e-9 {
		t.Fatalf("gradient %v want 1/3", res.metrics.RTTGradient)
	}
	if math.Abs(res.metrics.AvgRTT-0.0345) > 1e-9 {
		t.Fatalf("avg rtt %v", res.metrics.AvgRTT)
	}
	if res.metrics.RTTDeviation <= 0 {
		t.Fatal("deviation must be positive for a ramp")
	}
	if res.metrics.RateMbps != 10 { // utility uses the commanded rate
		t.Fatalf("metrics rate %v want target 10", res.metrics.RateMbps)
	}
	wantMeas := 10 * 1500 * 8 / 0.027 / 1e6 // sealed at last send
	if math.Abs(res.rate-wantMeas) > 1 {
		t.Fatalf("measured rate %v want ≈%v", res.rate, wantMeas)
	}
	if res.metrics.LossRate != 0 {
		t.Fatal("no losses expected")
	}
}

func TestMonitorLossAccounting(t *testing.T) {
	cfg := Config{Rng: rand.New(rand.NewSource(1))}
	mo := newMonitor(&cfg)
	m := mo.beginMI(0, 10, 0.030)
	for i := 0; i < 4; i++ {
		mo.onSend(float64(i)*0.003, 1500)
	}
	u := NewPrimary()
	mo.seal(0.012, u)
	mo.onAck(0.033, m.id, 0.0, 0.033, u)
	mo.onAck(0.036, m.id, 0.003, 0.033, u)
	mo.onLoss(m.id, u)
	res, done := mo.onLoss(m.id, u)
	if !done {
		t.Fatal("MI should finalize after all packets accounted")
	}
	if math.Abs(res.metrics.LossRate-0.5) > 1e-12 {
		t.Fatalf("loss rate %v want 0.5", res.metrics.LossRate)
	}
}

func TestRegressionToleranceZeroesNoise(t *testing.T) {
	cfg := ProteusConfig(rand.New(rand.NewSource(1)))
	cfg.UseTrending = false
	mo := newMonitor(&cfg)
	m := mo.beginMI(0, 10, 0.030)
	// RTTs: pure zig-zag noise around 30 ms, no trend — regression error
	// dwarfs the fitted slope.
	n := 20
	for i := 0; i < n; i++ {
		mo.onSend(float64(i)*0.0015, 1500)
	}
	u := NewScavenger()
	mo.seal(0.030, u)
	var res miResult
	var done bool
	for i := 0; i < n; i++ {
		sendT := float64(i) * 0.0015
		rtt := 0.030
		if i%2 == 0 {
			rtt += 0.002
		}
		res, done = mo.onAck(sendT+rtt, m.id, sendT, rtt, u)
	}
	if !done {
		t.Fatal("not finalized")
	}
	if res.metrics.RTTGradient != 0 || res.metrics.RTTDeviation != 0 {
		t.Fatalf("tolerance should zero noisy grad/dev, got %v/%v",
			res.metrics.RTTGradient, res.metrics.RTTDeviation)
	}
}

// The presets select the family member; the parameters they share are
// the paper's constants.
func TestConfigDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := ProteusConfig(rng)
	if p != (Config{Rng: rng, ProbePairs: 3, UseAckFilter: true, UseRegressionTolerance: true, UseTrending: true}) {
		t.Fatalf("Proteus preset: %+v", p)
	}
	v := VivaceConfig(rng)
	if v != (Config{Rng: rng, ProbePairs: 2, FixedGradTolerance: 0.005}) {
		t.Fatalf("Vivace preset must disable Proteus noise mechanisms: %+v", v)
	}
	if Epsilon != 0.05 || trendK != 6 || g1 != 2 || g2 != 4 || ackIntervalRatio != 50 {
		t.Fatal("§5 constants differ from the paper")
	}
	if UtilT != 0.9 || UtilB != 900 || utilC != 11.35 {
		t.Fatal("utility constants differ from §6's t, b, c")
	}
}

// §2.2's critique of "same metrics, greater penalty" scavenging,
// demonstrated: a low-weight proportional sender still roughly matches a
// latency-sensitive Proteus-P sender, because the primary retreats on
// latency long before the proportional sender's loss signal fires — the
// weight never gets to matter.
func TestProportionalUtilityFailsAsScavenger(t *testing.T) {
	s := sim.New(9)
	path := newTestLink(s, 50, 375000, 0.030)
	primary := transport.NewSender(1, path, NewProteusP(s.Rand()))
	cfg := ProteusConfig(s.Rand())
	prop := New("proportional-0.3", cfg, NewProportional(0.3))
	scv := transport.NewSender(2, path, prop)
	primary.Start()
	s.At(20, func() { scv.Start() })
	var mp, ms int64
	s.At(60, func() { mp, ms = primary.AckedBytes(), scv.AckedBytes() })
	s.Run(180)
	pT := float64(primary.AckedBytes()-mp) * 8 / 120 / 1e6
	sT := float64(scv.AckedBytes()-ms) * 8 / 120 / 1e6
	// The "scavenger" keeps a large share — nothing like the ≤10% a real
	// scavenger should take.
	if sT < 0.25*(pT+sT) {
		t.Fatalf("proportional-weight sender took only %.1f of %.1f — §2.2 expects it to fail to yield",
			sT, pT+sT)
	}
}

func TestProportionalWeightOrdersShares(t *testing.T) {
	// Between two proportional senders of the same family, the weight
	// does order the shares (that is what it was designed for).
	u3, u10 := NewProportional(0.3), NewProportional(1.0)
	m := Metrics{RateMbps: 20, LossRate: 0.02}
	if u3.Utility(m) >= u10.Utility(m) {
		t.Fatal("lower weight must mean lower utility at equal metrics")
	}
	if u3.Name() != "proportional" {
		t.Fatal("name")
	}
}

func TestPauseDiscardsOpenMIs(t *testing.T) {
	s := sim.New(11)
	path := newTestLink(s, 50, 375000, 0.030)
	cc := NewProteusP(s.Rand())
	snd := transport.NewSender(1, path, cc)
	snd.Start()
	s.Run(5)
	snd.Pause()
	if cc.Stats().MIsDiscarded == 0 {
		t.Fatal("pausing mid-flow must discard the open MIs")
	}
	snd.Resume()
	before := cc.Stats().MIsCompleted
	s.Run(8)
	if cc.Stats().MIsCompleted <= before {
		t.Fatal("MIs must resume completing after Resume")
	}
}

func TestPacingRateTracksProbeMI(t *testing.T) {
	s := sim.New(12)
	path := newTestLink(s, 50, 375000, 0.030)
	cc := NewProteusP(s.Rand())
	snd := transport.NewSender(1, path, cc)
	snd.Start()
	s.Run(20) // well past startup, probing continuously
	// Sample pacing across a second: it must visit rates both above and
	// below the base (the ±ε probe MIs).
	base := cc.RateMbps()
	hi, lo := false, false
	for i := 0; i < 200; i++ {
		s.Run(20 + float64(i)*0.005)
		r := cc.PacingRate() * 8 / 1e6
		b := cc.RateMbps()
		if r > b*1.01 {
			hi = true
		}
		if r < b*0.99 {
			lo = true
		}
	}
	_ = base
	if !hi || !lo {
		t.Fatalf("pacing should oscillate ±ε around base (hi=%v lo=%v)", hi, lo)
	}
}

func TestCWndCapScalesWithRate(t *testing.T) {
	cc := NewProteusP(rand.New(rand.NewSource(1)))
	w0 := cc.CWnd()
	cc.rate = 100
	if cc.CWnd() <= w0 {
		t.Fatal("window cap must scale with rate")
	}
	if cc.State() != "starting" {
		t.Fatalf("fresh controller state %s", cc.State())
	}
}
