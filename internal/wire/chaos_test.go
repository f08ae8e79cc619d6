package wire_test

import (
	"math/rand"
	"testing"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/chaos"
	"pccproteus/internal/core"
	"pccproteus/internal/engine"
	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/transport"
)

// TestChaosBlackoutSurvivalWire is the acceptance-criterion gate for the
// engine's survival machinery: 40 ms RTT, 20 Mbps, 2 s full blackout —
// each Proteus mode must re-attain >= 80% of its pre-blackout throughput
// within 3 s of healing.
func TestChaosBlackoutSurvivalWire(t *testing.T) {
	modes := map[string]func() transport.Controller{
		"proteus-p": func() transport.Controller { return core.NewProteusP(rand.New(rand.NewSource(11))) },
		"proteus-s": func() transport.Controller { return core.NewProteusS(rand.New(rand.NewSource(12))) },
		"proteus-h": func() transport.Controller {
			c, _ := core.NewProteusH(rand.New(rand.NewSource(13)))
			return c
		},
	}
	for name, factory := range modes {
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := simRun(t, 5, factory(), 20, 150_000, 0.020, 0,
				&chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.KindBlackout, At: 6, Dur: 2}}}, 13, 0)
			per := res.PerSecMbps
			pre := per[4]
			if per[5] > pre {
				pre = per[5] // best of seconds (4,6] before the cut
			}
			if pre < 0.5 {
				t.Fatalf("%s: implausible pre-blackout throughput %.2f (perSec=%v)", name, pre, per)
			}
			if res.Link.FaultDrop == 0 {
				t.Fatalf("%s: blackout destroyed nothing (link=%+v)", name, res.Link)
			}
			// Second (7,8] lies fully inside the blackout.
			if per[7] != 0 {
				t.Errorf("%s: %.2f Mbps acked through a blackout (perSec=%v)", name, per[7], per)
			}
			best := 0.0
			for _, v := range per[8:11] {
				if v > best {
					best = v
				}
			}
			if best < 0.8*pre {
				t.Errorf("%s: post-heal best %.2f < 80%% of pre %.2f (perSec=%v)", name, best, pre, per)
			}
			if res.Flow.WatchdogTrips != 1 || res.Flow.Recoveries != 1 {
				t.Errorf("%s: watchdog trips=%d recoveries=%d, want 1 each", name, res.Flow.WatchdogTrips, res.Flow.Recoveries)
			}
			if res.Flow.InOutage {
				t.Errorf("%s: still flagged in-outage at the end", name)
			}
		})
	}
}

// TestChaosOutageBoundedState steps a flow through a blackout and
// asserts the survival invariants at each stage: the watchdog trips,
// sender and receiver state stop growing during the outage, probes go
// out, and progress resumes after it.
func TestChaosOutageBoundedState(t *testing.T) {
	s := sim.New(3)
	lb, err := engine.NewSimLoopback(s,
		&netem.Path{Link: netem.NewLink(s, 16, 96_000, 0.020), AckDelay: 0.020}, fixedrate.New(8))
	if err != nil {
		t.Fatal(err)
	}
	plan := chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.KindBlackout, At: 1, Dur: 2.5}}}
	if err := lb.Install(nil, &plan, 5); err != nil {
		t.Fatal(err)
	}
	defer lb.Recv.Stop()
	defer lb.Snd.Stop()

	s.Run(2) // one second in
	st1 := lb.Flow.Stats()
	if !st1.InOutage || st1.WatchdogTrips != 1 {
		t.Fatalf("watchdog should have tripped: %+v", st1)
	}
	s.Run(3.5) // the blackout's last instant
	st2 := lb.Flow.Stats()
	if st2.UnackedRecs > st1.UnackedRecs+16 {
		t.Errorf("sender state grew during outage: %d -> %d records", st1.UnackedRecs, st2.UnackedRecs)
	}
	if st2.SentPkts != st1.SentPkts {
		t.Errorf("data went out during the outage: %d -> %d packets", st1.SentPkts, st2.SentPkts)
	}
	if rs := lb.Recv.Stats(); rs.Flows != 1 {
		t.Errorf("receiver flows during outage: %+v", rs)
	}
	if st2.ProbesSent == 0 {
		t.Error("no keep-alive probes during outage")
	}

	s.Run(4.7)
	st3 := lb.Flow.Stats()
	if st3.InOutage || st3.Recoveries != 1 {
		t.Fatalf("no recovery after heal: %+v", st3)
	}
	// Healed for 1.2 s less the probe that found it and one round trip.
	if mbps := float64(st3.AckedBytes-st2.AckedBytes) * 8 / 1.2 / 1e6; mbps < 7 {
		t.Errorf("%.2f Mbps acked after the heal, want the flow's 8", mbps)
	}
}

// TestChaosPeerRestartWire replays a peer-restart plan end to end: the
// path flushes what is in flight, the receiver discards its flow state,
// and the sender — whose cumulative ack just regressed to zero — must
// carry on at its rate with a receiver that knows only what came after.
func TestChaosPeerRestartWire(t *testing.T) {
	res := simRun(t, 9, fixedrate.New(8), 16, 96_000, 0.020, 0,
		&chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.KindPeerRestart, At: 2}}}, 4, 2.5)
	if res.Link.Flushed == 0 || res.Path.AckFlushed == 0 {
		t.Errorf("restart flushed nothing in flight (link=%+v path=%+v)", res.Link, res.Path)
	}
	// Receiver state was dropped: the one flow it holds has seen only the
	// packets delivered since, not the two seconds before.
	if res.Recv.Flows != 1 || res.Recv.Delivered != res.Link.Delivered {
		t.Errorf("receiver %+v after the restart, link delivered %d", res.Recv, res.Link.Delivered)
	}
	if res.Flow.LostPkts < res.Link.Flushed {
		t.Errorf("sender declared %d lost, %d were flushed", res.Flow.LostPkts, res.Link.Flushed)
	}
	// The measurement window sits entirely after the restart.
	if res.Mbps < 7.9 || res.Flow.InOutage {
		t.Errorf("flow did not survive the restart: %.2f Mbps after it (perSec=%v)", res.Mbps, res.PerSecMbps)
	}
}
