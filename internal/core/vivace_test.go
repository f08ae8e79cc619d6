package core

import (
	"testing"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
)

func TestVivaceSaturatesCleanLink(t *testing.T) {
	s := sim.New(1)
	l := netem.NewLink(s, 50, 375000, 0.015)
	p := &netem.Path{Link: l, AckDelay: 0.015}
	cc := NewVivace(s.Rand())
	if cc.Name() != "vivace" {
		t.Fatalf("name %s", cc.Name())
	}
	snd := transport.NewSender(1, p, cc)
	snd.Start()
	var mark int64
	s.At(20, func() { mark = snd.AckedBytes() })
	s.Run(100)
	tput := float64(snd.AckedBytes()-mark) * 8 / 80 / 1e6
	if tput < 42 {
		t.Fatalf("Vivace throughput %.1f want ≥42", tput)
	}
}

func TestVivaceSlowerThanProteusOnNoisyLink(t *testing.T) {
	// §5/§6.2.1: Vivace's fixed tolerance and two-pair consistency rule
	// cost it heavily in noise relative to Proteus-P.
	run := func(proteus bool) float64 {
		s := sim.New(9)
		l := netem.NewLink(s, 50, 375000, 0.015)
		l.Jitter = netem.SpikeNoise{
			Base:      netem.LognormalNoise{Median: 0.001, Sigma: 0.8},
			SpikeProb: 0.001, SpikeMin: 0.01, SpikeMax: 0.03,
		}
		p := &netem.Path{Link: l, AckDelay: 0.015}
		var cc transport.Controller
		if proteus {
			cc = newProteusP(s)
		} else {
			cc = NewVivace(s.Rand())
		}
		snd := transport.NewSender(1, p, cc)
		snd.Start()
		var mark int64
		s.At(20, func() { mark = snd.AckedBytes() })
		s.Run(120)
		return float64(snd.AckedBytes()-mark) * 8 / 100 / 1e6
	}
	vivace, proteus := run(false), run(true)
	if proteus < vivace {
		t.Fatalf("Proteus-P (%.1f) should beat Vivace (%.1f) on the noisy link", proteus, vivace)
	}
}

func newProteusP(s *sim.Sim) transport.Controller { return NewProteusP(s.Rand()) }
