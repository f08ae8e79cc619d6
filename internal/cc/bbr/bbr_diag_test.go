package bbr

import (
	"fmt"
	"os"
	"testing"

	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
)

var debugMax float64

func TestDiagBBRLoss(t *testing.T) {
	if os.Getenv("PROTEUS_DIAG") == "" {
		t.Skip("diag")
	}
	s := sim.New(5)
	p := path(s, 50, 375000, 0.030)
	p.Link.LossProb = 0.05
	cc := New()
	cc.debugSample = func(rate float64) {
		if rate > debugMax {
			debugMax = rate
		}
	}
	snd := transport.NewSender(1, p, cc)
	snd.Start()
	last := int64(0)
	for ts := 1.0; ts <= 30; ts += 1 {
		ts := ts
		s.At(ts, func() {
			d := float64(snd.AckedBytes()-last) * 8 / 1e6
			last = snd.AckedBytes()
			fmt.Printf("t=%4.1f tput=%5.1f mode=%-9s btlbw=%5.1f maxSample=%5.1f gain=%.2f round=%d\n",
				ts, d, cc.Mode(), cc.BtlBw()*8/1e6, debugMax*8/1e6, cc.pacingGain, cc.round)
			debugMax = 0
		})
	}
	s.Run(30)
}

func TestDiagBBRSvar(t *testing.T) {
	if os.Getenv("PROTEUS_DIAG") == "" {
		t.Skip("diag")
	}
	s := sim.New(6)
	p := path(s, 50, 375000, 0.030)
	ccP := New()
	ccS := NewScavenger()
	primary := transport.NewSender(1, p, ccP)
	scav := transport.NewSender(2, p, ccS)
	primary.Start()
	s.At(10, func() { scav.Start() })
	var mp, ms int64
	for ts := 12.0; ts <= 60; ts += 4 {
		ts := ts
		s.At(ts, func() {
			dp := float64(primary.AckedBytes()-mp) * 8 / 4 / 1e6
			ds := float64(scav.AckedBytes()-ms) * 8 / 4 / 1e6
			mp, ms = primary.AckedBytes(), scav.AckedBytes()
			hi, _ := ccS.swingMax.Get(ts)
			lo, _ := ccS.swingMin.Get(ts)
			fmt.Printf("t=%4.1f P=%5.1f S=%5.1f swingS=%.4f modeS=%s q=%.0fKB\n",
				ts, dp, ds, hi-lo, ccS.Mode(), float64(p.Link.QueueBytes())/1000)
		})
	}
	s.Run(60)
}
