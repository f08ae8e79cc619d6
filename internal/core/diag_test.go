package core

import (
	"fmt"
	"os"
	"testing"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/trace"
	"pccproteus/internal/transport"
)

// recordMIs attaches a flight recorder that keeps every finalized MI
// (the mi and util events) of every flow on s.
func recordMIs(s *sim.Sim) *trace.Recorder {
	rec := trace.NewRecorder(trace.Options{Mask: trace.MaskOf(trace.KindMIDecision, trace.KindUtilitySample)})
	s.SetTrace(rec)
	return rec
}

// printMIs prints every nth of one flow's finalized MIs whose time lies
// in (from, to), joining each mi event with the util event that follows
// it for the same MI.
func printMIs(rec *trace.Recorder, flow int32, prefix string, from, to float64, every int) {
	var mi trace.Event
	n := 0
	for _, ev := range rec.Events(flow) {
		switch {
		case ev.Kind == trace.KindMIDecision:
			mi = ev
		case ev.Kind == trace.KindUtilitySample && ev.Seq == mi.Seq:
			n++
			if n%every != 0 || ev.T <= from || ev.T >= to {
				continue
			}
			fmt.Printf("%st=%6.2f mi=%4d tgt=%6.2f meas=%6.2f u=%8.2f grad=%+.5f dev=%.5f loss=%.3f base=%6.2f %s\n",
				prefix, mi.T, mi.Seq, mi.A, mi.B, mi.C, ev.B, ev.C, ev.D, mi.D, mi.Note)
		}
	}
}

// TestDiagYield dumps per-MI traces for the P-vs-S scenario. Run with
// PROTEUS_DIAG=1 to see the output; it is a development aid, not an
// assertion.
func TestDiagYield(t *testing.T) {
	if os.Getenv("PROTEUS_DIAG") == "" {
		t.Skip("set PROTEUS_DIAG=1 for diagnostics")
	}
	s := sim.New(2)
	rec := recordMIs(s)
	path := newTestLink(s, 50, 375000, 0.030)
	ccP := NewProteusP(s.Rand())
	ccS := NewProteusS(s.Rand())
	p := transport.NewSender(1, path, ccP)
	scv := transport.NewSender(2, path, ccS)
	p.Start()
	scv.Start()
	lastP, lastS := int64(0), int64(0)
	for ts := 5.0; ts <= 120; ts += 5 {
		ts := ts
		s.At(ts, func() {
			dp := float64(p.AckedBytes()-lastP) * 8 / 5 / 1e6
			ds := float64(scv.AckedBytes()-lastS) * 8 / 5 / 1e6
			lastP, lastS = p.AckedBytes(), scv.AckedBytes()
			fmt.Printf("== t=%5.1f  P=%6.2f Mbps  S=%6.2f Mbps  (P stats %+v)\n", ts, dp, ds, ccSstats(ccS))
		})
	}
	s.Run(120)
	printMIs(rec, 2, "S ", 100, 102, 1)
	printMIs(rec, 1, "P ", 100, 102, 1)
}

func ccSstats(c *Controller) Stats { return c.Stats() }

// TestDiagLoss dumps traces for the 2% random-loss scenario.
func TestDiagLoss(t *testing.T) {
	if os.Getenv("PROTEUS_DIAG") == "" {
		t.Skip("set PROTEUS_DIAG=1 for diagnostics")
	}
	s := sim.New(8)
	rec := recordMIs(s)
	path := newTestLink(s, 50, 375000, 0.030)
	path.Link.LossProb = 0.02
	cc := NewProteusP(s.Rand())
	snd := transport.NewSender(1, path, cc)
	snd.Start()
	last := int64(0)
	for ts := 5.0; ts <= 100; ts += 5 {
		ts := ts
		s.At(ts, func() {
			d := float64(snd.AckedBytes()-last) * 8 / 5 / 1e6
			last = snd.AckedBytes()
			fmt.Printf("== t=%5.1f  tput=%6.2f Mbps  rate=%6.2f  %+v\n", ts, d, cc.RateMbps(), cc.Stats())
		})
	}
	s.Run(100)
	printMIs(rec, 1, "", 30, 36, 1)
}

// TestDiagNoisy traces Proteus-P on a jittery link.
func TestDiagNoisy(t *testing.T) {
	if os.Getenv("PROTEUS_DIAG") == "" {
		t.Skip("diag")
	}
	s := sim.New(9)
	rec := recordMIs(s)
	path := newTestLink(s, 50, 375000, 0.030)
	path.Link.Jitter = noisyJitter()
	cc := NewProteusP(s.Rand())
	snd := transport.NewSender(1, path, cc)
	snd.Start()
	last := int64(0)
	for ts := 5.0; ts <= 60; ts += 5 {
		ts := ts
		s.At(ts, func() {
			d := float64(snd.AckedBytes()-last) * 8 / 5 / 1e6
			last = snd.AckedBytes()
			fmt.Printf("== t=%5.1f tput=%6.2f rate=%6.2f %+v\n", ts, d, cc.RateMbps(), cc.Stats())
		})
	}
	s.Run(60)
	printMIs(rec, 1, "", 0, 30, 20)
}

func noisyJitter() netem.SpikeNoise {
	return netem.SpikeNoise{
		Base:      netem.LognormalNoise{Median: 0.001, Sigma: 0.8},
		SpikeProb: 0.001, SpikeMin: 0.01, SpikeMax: 0.03,
	}
}
