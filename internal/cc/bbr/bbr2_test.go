package bbr

import (
	"math"
	"testing"

	"pccproteus/internal/sim"
	"pccproteus/internal/stats"
	"pccproteus/internal/transport"
)

func TestBBR2SaturatesLink(t *testing.T) {
	s := sim.New(1)
	p := path(s, 50, 375000, 0.030) // 2 BDP of buffer
	cc := NewV2()
	snd := transport.NewSender(1, p, cc)
	snd.Start()
	var mark int64
	s.At(10, func() { mark = snd.AckedBytes() })
	s.Run(60)
	tput := float64(snd.AckedBytes()-mark) * 8 / 50 / 1e6
	if tput < 42 {
		t.Fatalf("bbr2 throughput %.1f want ≥42", tput)
	}
	if bw := cc.BtlBw() * 8 / 1e6; bw < 45 || bw > 60 {
		t.Fatalf("btlbw estimate %.1f Mbps", bw)
	}
	if rt := cc.RTProp(); rt < 0.029 || rt > 0.040 {
		t.Fatalf("rtprop estimate %.1f ms", rt*1000)
	}
}

func TestBBR2ExitsStartup(t *testing.T) {
	s := sim.New(2)
	p := path(s, 50, 375000, 0.030)
	cc := NewV2()
	snd := transport.NewSender(1, p, cc)
	snd.Start()
	s.Run(3)
	if cc.Mode() == "startup" {
		t.Fatalf("bbr2 stuck in startup after 3 s (mode %s)", cc.Mode())
	}
}

// TestBBR2ProbeBWCycle checks the ProbeBW sub-machine actually cycles:
// over a long steady run the controller must visit cruise, refill, and
// probe_up (not park in one phase).
func TestBBR2ProbeBWCycle(t *testing.T) {
	s := sim.New(3)
	p := path(s, 50, 375000, 0.030)
	cc := NewV2()
	snd := transport.NewSender(1, p, cc)
	snd.Start()
	seen := map[string]bool{}
	var tick func()
	tick = func() {
		seen[cc.Mode()] = true
		if s.Now() < 40 {
			s.After(0.01, tick)
		}
	}
	s.After(0.01, tick)
	s.Run(40)
	for _, want := range []string{"cruise", "refill", "probe_up", "probe_down"} {
		if !seen[want] {
			t.Fatalf("phase %q never visited (saw %v)", want, seen)
		}
	}
}

func TestBBR2ProbeRTTVisits(t *testing.T) {
	s := sim.New(4)
	p := path(s, 50, 375000, 0.030)
	cc := NewV2()
	snd := transport.NewSender(1, p, cc)
	snd.Start()
	visits := 0
	var tick func()
	tick = func() {
		if cc.Mode() == "probe_rtt" {
			visits++
		}
		if s.Now() < 35 {
			s.After(0.01, tick)
		}
	}
	s.After(0.01, tick)
	s.Run(35)
	if visits == 0 {
		t.Fatal("probe_rtt never visited in 35 s")
	}
}

// TestBBR2LearnsInflightHi drives the flow into a shallow buffer:
// persistent loss must make the inflight_hi bound finite and keep it
// near the path's capacity rather than growing without bound.
func TestBBR2LearnsInflightHi(t *testing.T) {
	s := sim.New(5)
	bdp := 50.0 * 1e6 / 8 * 0.030
	p := path(s, 50, int(bdp/4), 0.030) // quarter-BDP buffer: loss is inevitable
	cc := NewV2()
	snd := transport.NewSender(1, p, cc)
	snd.Start()
	s.Run(30)
	hi := cc.InflightHi()
	if math.IsInf(hi, 1) {
		t.Fatal("inflight_hi still infinite after 30 s on a shallow buffer")
	}
	if hi > 4*bdp {
		t.Fatalf("inflight_hi %.0f bytes: not bounding (bdp %.0f)", hi, bdp)
	}
	if hi < 4*1200 {
		t.Fatalf("inflight_hi %.0f below the 4-packet floor", hi)
	}
}

// TestBBR2BoundsQueue mirrors the bbr test: on a deep (4-BDP) buffer
// the cwnd gain must keep the standing queue near one BDP, not fill
// the buffer like a loss-based controller.
func TestBBR2BoundsQueue(t *testing.T) {
	s := sim.New(6)
	p := path(s, 50, 750000, 0.030)
	snd := transport.NewSender(1, p, NewV2())
	snd.RecordRTT = true
	snd.Start()
	s.Run(60)
	n := len(snd.RTTSamples())
	p95 := stats.Percentile(snd.RTTSamples()[n/4:], 95)
	if p95 > 0.085 {
		t.Fatalf("95th RTT %.1f ms: bbr2 should not fill a 4-BDP buffer", p95*1000)
	}
}

// TestBBR2LossCapsThroughputLessThanCubicStarves checks the loss
// response is proportional, not collapse: on a 2%-random-loss link the
// controller should still move a usable share of the link.
func TestBBR2ToleratesRandomLoss(t *testing.T) {
	s := sim.New(7)
	p := path(s, 50, 375000, 0.030)
	p.Link.LossProb = 0.005
	snd := transport.NewSender(1, p, NewV2())
	snd.Start()
	var mark int64
	s.At(10, func() { mark = snd.AckedBytes() })
	s.Run(40)
	tput := float64(snd.AckedBytes()-mark) * 8 / 30 / 1e6
	if tput < 15 {
		t.Fatalf("bbr2 throughput %.1f Mbps under 0.5%% loss: collapsed", tput)
	}
}
