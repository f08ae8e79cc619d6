package core_test

import (
	"testing"

	"pccproteus/internal/core"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
)

func path(s *sim.Sim, mbps float64, buf int, rtt float64) *netem.Path {
	l := netem.NewLink(s, mbps, buf, rtt/2)
	return &netem.Path{Link: l, AckDelay: rtt / 2}
}

func TestUtilityShape(t *testing.T) {
	u := core.AllegroUtility{}
	// Below the 5% threshold, more rate is better.
	lo := u.Utility(core.Metrics{RateMbps: 10, LossRate: 0.01})
	hi := u.Utility(core.Metrics{RateMbps: 20, LossRate: 0.01})
	if hi <= lo {
		t.Fatal("utility must grow with rate under low loss")
	}
	// Past the threshold the sigmoid collapses the reward.
	bad := u.Utility(core.Metrics{RateMbps: 20, LossRate: 0.10})
	if bad >= 0 {
		t.Fatalf("10%% loss should make utility negative, got %v", bad)
	}
	// Latency is ignored entirely.
	a := u.Utility(core.Metrics{RateMbps: 20, RTTGradient: 0.5, RTTDeviation: 0.01})
	b := u.Utility(core.Metrics{RateMbps: 20})
	if a != b {
		t.Fatal("Allegro must be latency-blind")
	}
}

func TestAllegroSaturates(t *testing.T) {
	s := sim.New(1)
	p := path(s, 50, 375000, 0.030)
	snd := transport.NewSender(1, p, core.NewAllegro(s.Rand()))
	snd.Start()
	var mark int64
	s.At(20, func() { mark = snd.AckedBytes() })
	s.Run(100)
	tput := float64(snd.AckedBytes()-mark) * 8 / 80 / 1e6
	if tput < 42 {
		t.Fatalf("Allegro throughput %.1f want ≥42", tput)
	}
}

func TestAllegroBloatsBuffersUnlikeProteus(t *testing.T) {
	// The §8 claim this baseline exists to demonstrate: Allegro, being
	// loss-based, pushes deep into the buffer where Proteus-P does not.
	run := func(mk func(*sim.Sim) transport.Controller) float64 {
		s := sim.New(2)
		p := path(s, 50, 375000, 0.030)
		snd := transport.NewSender(1, p, mk(s))
		snd.RecordRTT = true
		snd.Start()
		s.Run(80)
		n := len(snd.RTTSamples())
		return stats.Percentile(snd.RTTSamples()[n/4:], 95)
	}
	allegro := run(func(s *sim.Sim) transport.Controller { return core.NewAllegro(s.Rand()) })
	proteus := run(func(s *sim.Sim) transport.Controller { return core.NewProteusP(s.Rand()) })
	if allegro < 2*proteus {
		t.Fatalf("Allegro p95 RTT %.1fms should dwarf Proteus-P %.1fms", allegro*1000, proteus*1000)
	}
}

func TestAllegroToleratesRandomLossUpToThreshold(t *testing.T) {
	s := sim.New(3)
	p := path(s, 50, 375000, 0.030)
	p.Link.LossProb = 0.02
	snd := transport.NewSender(1, p, core.NewAllegro(s.Rand()))
	snd.Start()
	var mark int64
	s.At(20, func() { mark = snd.AckedBytes() })
	s.Run(100)
	tput := float64(snd.AckedBytes()-mark) * 8 / 80 / 1e6
	if tput < 25 {
		t.Fatalf("Allegro under 2%% loss: %.1f Mbps", tput)
	}
}
