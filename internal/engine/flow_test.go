package engine

import (
	"net"
	"testing"
	"time"

	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// countingCC is a minimal controller that tallies its callbacks.
type countingCC struct {
	sends, acks, losses int
	rate, cwnd          float64
}

func (c *countingCC) Name() string                                { return "counting" }
func (c *countingCC) OnSend(now float64, p *transport.SentPacket) { c.sends++ }
func (c *countingCC) OnAck(transport.Ack)                         { c.acks++ }
func (c *countingCC) OnLoss(transport.Loss)                       { c.losses++ }
func (c *countingCC) PacingRate() float64                         { return c.rate }
func (c *countingCC) CWnd() float64                               { return c.cwnd }

// unitFlow is one sender flow on a socketless shard, driven directly
// through emit/onAck/pump in virtual time: the test owns the clock, so
// aging and watchdog timeouts cost no wall time. The recovery rules
// themselves are tested once, in internal/transport/recovery_test.go;
// what is checked here is the engine's driving of them — the SACK walk,
// the pump cadence, the atomics, the pacer re-anchor.
type unitFlow struct {
	sh *shard
	f  *flow
	s  *senderFlow
}

func newUnitFlow(t *testing.T, cc transport.Controller, limit int64) unitFlow {
	sh := newTestShard(t, Config{})
	s := newSenderFlow(FlowConfig{CC: cc, Limit: limit, Burst: transport.DefaultBurst, PacketSize: 1200})
	f := &flow{key: flowKey{addr: src(9000), id: 1}, snd: s}
	sh.flows[f.key] = f
	return unitFlow{sh, f, s}
}

func (u unitFlow) emit(now float64) { u.s.emit(u.sh, u.f, now, now, u.s.nextSize()) }

// ack applies one ack at virtual time now; the receiver is assumed to
// have seen the packet 5 ms earlier.
func (u unitFlow) ack(now float64, seq, cum int64, blocks ...wire.SackBlock) {
	u.s.onAck(u.sh, u.f, &wire.AckPacket{
		Seq: seq, CumAck: cum, Blocks: blocks, RecvAt: u.sh.clock.NanosAt(now - 0.005),
	}, now)
}

func TestSenderReorderedAcksNoSpuriousLoss(t *testing.T) {
	cc := &countingCC{rate: 1e6, cwnd: 1e9}
	u := newUnitFlow(t, cc, 0)
	for i := 0; i < 6; i++ {
		u.emit(0)
	}
	// SACK for 4..5 while 0..3 are outstanding: well past the dup-ack
	// threshold in sequence space, but the packets are young, so the
	// RACK time test must hold losses back.
	u.ack(0.002, 5, 0, wire.SackBlock{Start: 4, End: 6})
	if cc.losses != 0 {
		t.Fatalf("reordering within the time window produced %d losses", cc.losses)
	}
	if cc.acks != 2 {
		t.Fatalf("OnAck %d want 2 (seqs 4,5)", cc.acks)
	}
	// Late-arriving acks for the "missing" packets must land normally.
	u.ack(0.003, 3, 6)
	if cc.acks != 6 || cc.losses != 0 || u.s.book.Inflight() != 0 {
		t.Fatalf("after fill: acks=%d losses=%d inflight=%d", cc.acks, cc.losses, u.s.book.Inflight())
	}
}

func TestSenderRACKDeclaresOldGaps(t *testing.T) {
	cc := &countingCC{rate: 1e6, cwnd: 1e9}
	u := newUnitFlow(t, cc, 0)
	for i := 0; i < 6; i++ {
		u.emit(0)
	}
	u.ack(0.002, 5, 0, wire.SackBlock{Start: 3, End: 6})
	if cc.losses != 0 {
		t.Fatal("young gap declared lost")
	}
	// A second past srtt + reorder window, any ack retriggers detection.
	u.ack(1.0, 5, 0, wire.SackBlock{Start: 3, End: 6})
	if cc.losses != 3 {
		t.Fatalf("aged gap: %d losses want 3 (seqs 0,1,2)", cc.losses)
	}
	if p, b := u.s.lostPkts.Load(), u.s.lostBytes.Load(); p != 3 || b != 3600 {
		t.Fatalf("lost %d pkts / %d bytes", p, b)
	}
	if n := u.s.book.Inflight(); n != 0 {
		t.Fatalf("inflight %d want 0 after all packets resolved", n)
	}
}

// outageCC is a controller that records outage callbacks.
type outageCC struct {
	countingCC
	outages, recoveries int
	resumeRate          float64
}

func (c *outageCC) OnOutage(now float64) { c.outages++ }
func (c *outageCC) OnRecovery(now float64, rate float64) {
	c.recoveries++
	c.resumeRate = rate
}

// TestSenderWatchdogProbeLifecycle drives trip → probe → recovery
// through pump in virtual time: ack silence with data outstanding trips
// the watchdog, data freezes, probes bypass the controller on their
// quarter-second cadence, and the first delivered ack restores the
// rate the controller held at the last ack.
func TestSenderWatchdogProbeLifecycle(t *testing.T) {
	cc := &outageCC{countingCC: countingCC{rate: 2e6, cwnd: 1e9}}
	u := newUnitFlow(t, cc, 0)
	s := u.s
	u.emit(0)
	u.ack(0.01, 0, 1) // the rate at this ack, 2e6, is what recovery must restore
	// Keep pumping; acks never come back. The loss flood would drive a
	// real controller's rate down, which is what recovery must undo.
	now := 0.02
	for ; !s.outage.Load() && now < 5; now += 0.01 {
		s.pump(u.sh, u.f, now)
	}
	const wd = 0.5 // max(2·RTO, 0.5 s): one 10 ms RTT sample leaves the RTO at its 0.2 s floor
	if !s.outage.Load() || cc.outages != 1 || s.wdTrips.Load() != 1 {
		t.Fatalf("no trip by t=%.2f: outage=%v outages=%d", now, s.outage.Load(), cc.outages)
	}
	if silence := now - 0.01; silence < wd || silence > wd+0.05 {
		t.Fatalf("tripped after %.3f s of ack silence, want max(2·RTO, 0.5) = %.3f", silence, wd)
	}
	cc.rate = 1e5
	sends, inflight, tripProbes := cc.sends, s.book.Inflight(), s.probes.Load()
	for end := now + 1.0; now < end; now += 0.01 {
		s.pump(u.sh, u.f, now)
	}
	if cc.sends != sends || s.book.Inflight() > inflight {
		t.Fatalf("outage leaked into the controller: sends %d->%d inflight %d->%d", sends, cc.sends, inflight, s.book.Inflight())
	}
	// One probe on the trip itself, then one per quarter second.
	n := s.probes.Load()
	if tripProbes != 1 || n < 4 || n > 6 {
		t.Fatalf("%d probes (%d at the trip) over 1 s, want one per 0.25 s", n, tripProbes)
	}
	// The newest probe's ack ends the outage and restores the
	// pre-outage rate; the probe itself never reaches OnAck.
	acks := cc.acks
	recs := s.book.Records()
	probe := recs[len(recs)-1].Seq
	u.ack(now, probe, 0, wire.SackBlock{Start: probe, End: probe + 1})
	if s.outage.Load() || cc.recoveries != 1 || s.wdRecovs.Load() != 1 {
		t.Fatalf("recovery: outage=%v recoveries=%d/%d", s.outage.Load(), cc.recoveries, s.wdRecovs.Load())
	}
	if cc.resumeRate != 2e6 {
		t.Fatalf("resume rate %v want the pre-outage 2e6", cc.resumeRate)
	}
	if cc.acks != acks {
		t.Fatalf("probe ack reached OnAck: acks %d->%d", acks, cc.acks)
	}
	// Pacing re-anchors at the recovery instant (no catch-up burst for
	// the dead time), then data flows again.
	cc.rate = cc.resumeRate
	if s.pump(u.sh, u.f, now); cc.sends != sends {
		t.Fatal("recovery released a catch-up burst")
	}
	if s.pump(u.sh, u.f, now+0.05); cc.sends == sends {
		t.Fatal("data sending did not resume after recovery")
	}
}

// A pushed-back or shed flow's ack silence is explained: it must not
// read as a path outage when emission resumes.
func TestWatchdogIgnoresExplainedSilence(t *testing.T) {
	cc := &outageCC{countingCC: countingCC{rate: 2e6, cwnd: 1e9}}
	u := newUnitFlow(t, cc, 0)
	u.emit(0)
	u.s.paused = true
	for now := 0.01; now < 3; now += 0.01 {
		u.s.pump(u.sh, u.f, now)
	}
	u.s.paused = false
	u.s.pump(u.sh, u.f, 3)
	u.s.pump(u.sh, u.f, 3.02)
	if cc.outages != 0 || u.s.outage.Load() {
		t.Fatalf("shed pause tripped the watchdog: outages=%d", cc.outages)
	}
}

// A wheel deadline that is already due must not cost the pass its
// socket read: Go's RawConn.Read returns i/o timeout on an expired
// deadline without issuing the syscall, so a shard that found a due
// timer on every pass used to stop draining acks altogether.
func TestDueTimerStillReadsSocket(t *testing.T) {
	eng, err := New(Config{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop() // never started: the test turns the loop by hand
	sh := eng.shards[0]
	c, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(sh.local))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 40
	for i := int64(0); i < n; i++ {
		if _, err := c.Write(dataPkt(t, 7, i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// A wheel whose current slot lies in the future fires nothing, so
	// the armed deadline below stays due on every pass.
	sh.wh.init(sh.clock.Now() + 60)
	due := &flow{key: flowKey{addr: src(1), id: 99}, rcv: &recvFlow{highest: -1}}
	sh.wh.arm(due, sh.clock.Now()-1)
	for pass := 0; pass < 10*n && sh.ctr.rxPkts.Load() < n; pass++ {
		if !sh.pass() {
			t.Fatal("shard stopped")
		}
		if !due.armed {
			t.Fatal("the due timer fired: the scenario is not the one under test")
		}
		time.Sleep(50 * time.Microsecond) // loopback delivery is normally synchronous; be lenient
	}
	if got := sh.ctr.rxPkts.Load(); got != n {
		t.Fatalf("read %d of %d queued datagrams with a timer always due", got, n)
	}
}
