package wire_test

import (
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/chaos"
	"pccproteus/internal/core"
	"pccproteus/internal/engine"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// TestChaosBlackoutSurvivalWire is the acceptance-criterion gate in the
// real-UDP world: 40 ms RTT, 20 Mbps, 2 s full blackout — each Proteus
// mode must re-attain >= 80% of its pre-blackout throughput within 3 s
// of healing.
func TestChaosBlackoutSurvivalWire(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
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
			res, err := engine.RunShimLoopback(engine.ShimLoopbackConfig{
				CC: factory(),
				Shim: wire.ShimConfig{
					RateMbps: 20, QueueBytes: 150_000,
					Delay: 0.020, AckDelay: 0.020, Seed: 5,
				},
				Duration: 13,
				Chaos: &chaos.Plan{Faults: []chaos.Fault{
					{Kind: chaos.KindBlackout, At: 6, Dur: 2},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			per := res.PerSecMbps
			pre := per[4]
			if per[5] > pre {
				pre = per[5] // best of seconds (4,6] before the cut
			}
			if pre < 0.5 {
				t.Fatalf("%s: implausible pre-blackout throughput %.2f (perSec=%v)", name, pre, per)
			}
			if res.Shim.FaultDrop == 0 {
				t.Fatalf("%s: blackout destroyed nothing (shim=%+v)", name, res.Shim)
			}
			// Second (7,8] lies fully inside the blackout.
			if per[7] > 0.5 {
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
			if res.Flow.WatchdogTrips < 1 || res.Flow.Recoveries < 1 {
				t.Errorf("%s: watchdog trips=%d recoveries=%d, want >=1 each", name, res.Flow.WatchdogTrips, res.Flow.Recoveries)
			}
			if res.Flow.InOutage {
				t.Errorf("%s: still flagged in-outage at the end", name)
			}
		})
	}
}

// TestChaosOutageBoundedState drives a blackout against the manually
// wired datapath and asserts the survival invariants: no sender or
// receiver state growth and no goroutine growth during the outage, and
// resumed progress after it.
func TestChaosOutageBoundedState(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	recv, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Stop()
	snd, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Stop()
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	if err := snd.Start(); err != nil {
		t.Fatal(err)
	}
	shim, err := wire.NewShim(wire.ShimConfig{RateMbps: 16, QueueBytes: 96_000, Delay: 0.020, AckDelay: 0.020, Seed: 3},
		net.UDPAddrFromAddrPort(recv.Addrs()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := shim.Start(); err != nil {
		t.Fatal(err)
	}
	defer shim.Stop()
	fl, err := snd.AddFlow(engine.FlowConfig{Dst: shim.Addr().AddrPort(), CC: fixedrate.New(8)})
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(1 * time.Second)
	g0 := runtime.NumGoroutine()

	shim.SetFault(chaos.PathState{LinkDown: true, AckDown: true})
	time.Sleep(1 * time.Second)
	st1 := fl.Stats()
	if !st1.InOutage || st1.WatchdogTrips != 1 {
		t.Fatalf("watchdog should have tripped: %+v", st1)
	}
	time.Sleep(1500 * time.Millisecond)
	st2 := fl.Stats()
	g1 := runtime.NumGoroutine()
	if st2.UnackedRecs > st1.UnackedRecs+16 {
		t.Errorf("sender state grew during outage: %d -> %d records", st1.UnackedRecs, st2.UnackedRecs)
	}
	if rs := recv.Stats(); rs.Flows > 1 {
		t.Errorf("receiver grew flows during outage: %+v", rs)
	}
	if g1 > g0+2 {
		t.Errorf("goroutines grew during outage: %d -> %d", g0, g1)
	}
	if st2.ProbesSent == 0 {
		t.Error("no keep-alive probes during outage")
	}

	shim.SetFault(chaos.PathState{})
	time.Sleep(1200 * time.Millisecond)
	st3 := fl.Stats()
	if st3.InOutage || st3.Recoveries != 1 {
		t.Fatalf("no recovery after heal: %+v", st3)
	}
	if st3.AckedBytes <= st2.AckedBytes {
		t.Errorf("no progress after heal: acked %d -> %d", st2.AckedBytes, st3.AckedBytes)
	}
}

// TestChaosPeerRestartWire replays a peer-restart plan end to end: the
// shim flushes its in-flight queues, the receiver discards its flow
// state, and the flow must keep making progress afterwards.
func TestChaosPeerRestartWire(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	res, err := engine.RunShimLoopback(engine.ShimLoopbackConfig{
		CC: fixedrate.New(8),
		Shim: wire.ShimConfig{
			RateMbps: 16, QueueBytes: 96_000,
			Delay: 0.020, AckDelay: 0.020, Seed: 9,
		},
		Duration:    4,
		MeasureFrom: 2.5,
		Chaos: &chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.KindPeerRestart, At: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shim.Flushed == 0 && res.Shim.AckFlushed == 0 {
		t.Errorf("restart flushed nothing in flight (shim=%+v)", res.Shim)
	}
	// Post-restart progress: the measurement window sits entirely after
	// the restart.
	if res.Mbps < 4 {
		t.Errorf("flow did not survive the restart: %.2f Mbps post-restart (perSec=%v)", res.Mbps, res.PerSecMbps)
	}
}
