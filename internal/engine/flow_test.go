package engine

import (
	"math"
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
	f := &flow{addr: src(9000), id: 1, snd: s}
	sh.insert(f)
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
	probe := s.book.Next() - 1
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
	// Loopback delivery is synchronous: all n datagrams sit in the socket
	// before the first pass. A wheel whose current slot lies in the
	// future fires nothing, so the armed deadline below stays due on
	// every pass.
	sh.wh.init(sh.clock.Now() + 60)
	due := &flow{addr: src(1), id: 99, rcv: &recvFlow{highest: -1}}
	sh.wh.arm(due, sh.clock.Now()-1)
	for pass := 0; pass < 10*n && sh.ctr.rxPkts.Load() < n; pass++ {
		if !sh.pass() {
			t.Fatal("shard stopped")
		}
		if !due.armed {
			t.Fatal("the due timer fired: the scenario is not the one under test")
		}
	}
	if got := sh.ctr.rxPkts.Load(); got != n {
		t.Fatalf("read %d of %d queued datagrams with a timer always due", got, n)
	}
}

// sent decodes and drains the data packets the shard has queued.
func (u unitFlow) sent(t *testing.T) []wire.DataHeader {
	t.Helper()
	var out []wire.DataHeader
	for _, p := range u.sh.txq {
		h, err := wire.DecodeData(p)
		if err != nil || h.Flow != u.f.id {
			t.Fatalf("queued packet: %+v err=%v", h, err)
		}
		out = append(out, h)
	}
	u.sh.flushTx()
	return out
}

// run services the flow every step seconds over [from, to) and returns
// what it queued, in order.
func (u unitFlow) run(t *testing.T, from, to, step float64) []wire.DataHeader {
	t.Helper()
	var out []wire.DataHeader
	for now := from; now < to; now += step {
		u.sh.service(u.f, now)
		out = append(out, u.sent(t)...)
	}
	return out
}

// The push bit marks exactly the packet that launches a finite
// transfer's last byte — and the replacement that launches it again
// after a loss re-credit; an unlimited flow never sets it.
func TestPushBitMarksTransferEnd(t *testing.T) {
	u := newUnitFlow(t, &countingCC{rate: 12e6, cwnd: 1e9}, 30*1200)
	hs := u.run(t, 0, 0.02, 0.001)
	if len(hs) != 30 {
		t.Fatalf("finite flow queued %d packets, want 30", len(hs))
	}
	for i, h := range hs {
		if h.Seq != int64(i) || h.Push != (i == 29) {
			t.Fatalf("packet %d: seq=%d push=%v; only the last may carry the bit", i, h.Seq, h.Push)
		}
	}
	// Seq 10 is lost: everything else is SACKed, and once the gap has
	// aged the book declares it and re-credits its bytes.
	u.ack(0.02, 29, 10, wire.SackBlock{Start: 11, End: 30})
	u.ack(1.0, 29, 10, wire.SackBlock{Start: 11, End: 30})
	if u.s.lostPkts.Load() != 1 {
		t.Fatalf("lost %d packets, want seq 10 alone", u.s.lostPkts.Load())
	}
	hs = u.run(t, 1.0, 1.01, 0.001)
	if len(hs) != 1 || hs[0].Seq != 30 || !hs[0].Push {
		t.Fatalf("after the loss: %+v, want one pushed replacement, seq 30", hs)
	}

	un := newUnitFlow(t, &countingCC{rate: 12e6, cwnd: 1e9}, 0)
	for _, h := range un.run(t, 0, 0.02, 0.001) {
		if h.Push {
			t.Fatalf("unlimited flow pushed seq %d", h.Seq)
		}
	}
}

// feedInOrder dispatches data seq 0…n-1 of flow 7 to a fresh receiver
// shard, one packet per 100 µs, the last one pushed or not, and returns
// the shard, the acks queued by then and the time of the last packet.
func feedInOrder(t *testing.T, n int64, push bool) (*shard, int, float64) {
	t.Helper()
	sh := newTestShard(t, Config{})
	sh.wh.init(0)
	now := 0.0
	buf := make([]byte, 2048)
	for seq := int64(0); seq < n; seq++ {
		now = float64(seq) * 100e-6
		sh.dispatch(src(1000), wire.EncodeDataV2(buf, wire.DataHeader{
			Seq: seq, SentAt: 1, Flow: 7, Push: push && seq == n-1,
		}, 1200), now)
	}
	return sh, len(sh.txq), now
}

// The receiver acks a pushed packet in the same onData call, so the
// tail of a finite transfer waits for neither the coalescing count nor
// the delayed-ack timer; the rest of the flow coalesces as before.
func TestPushedPacketAckedAtOnce(t *testing.T) {
	sh, acks, last := feedInOrder(t, 30, true)
	// 4 while the flow is young (Cum ≤ restartCumFloor), one per ackEvery
	// after that (seq 7, 11, … 27), and the pushed seq 29.
	if acks != 4+6+1 {
		t.Fatalf("%d acks for 30 in-order packets, want 11", acks)
	}
	var a wire.AckPacket
	if err := wire.DecodeAck(sh.txq[acks-1], &a); err != nil || a.Seq != 29 || a.CumAck != 30 {
		t.Fatalf("final ack %+v err=%v, want seq 29 cum 30 from the pushed packet's own dispatch", a, err)
	}
	// The delayed-ack timer armed mid-flow still fires, and finds nothing.
	sh.fireNow = last + 2*delayedAckTO
	sh.wh.advance(sh.fireNow, sh.fireFn)
	if len(sh.txq) != acks {
		t.Fatalf("delayed-ack timer sent %d more acks after the pushed one", len(sh.txq)-acks)
	}

	// Without the bit the tail is the timer's: seq 28–29 sit unacked
	// until delayedAckTO has passed.
	sh, acks, last = feedInOrder(t, 30, false)
	if acks != 4+6 {
		t.Fatalf("%d acks without a push, want 10 and a deferred tail", acks)
	}
	sh.fireNow = last + 2*delayedAckTO
	sh.wh.advance(sh.fireNow, sh.fireFn)
	if len(sh.txq) != acks+1 {
		t.Fatalf("delayed-ack timer flushed %d acks, want the one deferred tail", len(sh.txq)-acks)
	}
}

// A loop that wakes every 1.1 ms — what a sub-millisecond read deadline
// costs on an idle Go process — must still deliver the controller's
// rate: the bucket holds everything a late wake let accrue, and the
// stamps stay on the n/rate grid however the wakes fall. (Two trains of
// depth hold 0.8 ms at this rate: 73 %.)
func TestPacedTrainKeepsRateAcrossLateWakes(t *testing.T) {
	const rate, span = 12e6, 0.100
	u := newUnitFlow(t, &countingCC{rate: rate, cwnd: 1e12}, 0)
	hs := u.run(t, 0, span, 1.1e-3)
	if got := float64(len(hs) * 1200); got < 0.97*rate*span || got > rate*span+4800 {
		t.Fatalf("delivered %.0f bytes in %.0f ms of 1.1 ms wakes, want ≥ 97%% of %.0f", got, span*1e3, rate*span)
	}
	for i := 1; i < len(hs); i++ {
		gap := u.sh.clock.SecondsSince(hs[i].SentAt) - u.sh.clock.SecondsSince(hs[i-1].SentAt)
		if math.Abs(gap-1200/rate) > 1e-6 {
			t.Fatalf("stamp %d follows stamp %d by %.1f µs, want the 100 µs grid", i, i-1, gap*1e6)
		}
	}
}

// A new flow's bucket holds its first train, so its first service sends
// Burst packets; a bucket emptied by Reset (outage over, BUSY) sends
// nothing until tokens accrue.
func TestFirstTrainCredit(t *testing.T) {
	u := newUnitFlow(t, &countingCC{rate: 12e6, cwnd: 1e9}, 0)
	u.sh.service(u.f, 0)
	if hs := u.sent(t); len(hs) != transport.DefaultBurst {
		t.Fatalf("first service queued %d packets, want Burst=%d", len(hs), transport.DefaultBurst)
	}
	u.s.pacer.Reset(0.01)
	u.sh.service(u.f, 0.01)
	if hs := u.sent(t); len(hs) != 0 {
		t.Fatalf("service right after Reset queued %d packets, want none", len(hs))
	}
}

// ackPkt encodes the version-2 ack a receiver would send for flow id.
func ackPkt(id uint32, seq, cum, recvAt int64) []byte {
	a := wire.AckPacket{Seq: seq, CumAck: cum, RecvAt: recvAt, Flow: id}
	return a.EncodeV2(make([]byte, wire.MaxAckLen))
}

// A finite sender leaves its shard with the ack that completes it: the
// table entry and the admission slot are free at once, the handle keeps
// working, and what the wheel still holds for it is inert.
func TestCompletedSenderReclaimed(t *testing.T) {
	sh := newTestShard(t, Config{MaxFlowsPerShard: 1})
	add := func() (*Flow, error) {
		return sh.eng.AddFlow(FlowConfig{
			Dst: src(9000), CC: &FixedRateCC{Rate: 12e6}, Limit: 2400, PacketSize: 1200,
		})
	}
	fl, err := add()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := add(); err == nil {
		t.Fatal("second flow admitted past MaxFlowsPerShard: 1 while the first is live")
	}
	// Taken in by hand: admit() would read the wall clock.
	f := sh.admitQ[0]
	sh.admitQ = nil
	sh.insert(f)
	sh.service(f, 0)
	if len(sh.txq) != 2 || !f.armed {
		t.Fatalf("first service: %d packets queued, armed=%v; want both packets and a wheel entry", len(sh.txq), f.armed)
	}
	sh.flushTx()

	sh.dispatch(src(9000), ackPkt(fl.ID(), 1, 2, sh.clock.NanosAt(0.001)), 0.002)
	select {
	case <-fl.Done():
	default:
		t.Fatal("Done not closed by the completing ack")
	}
	if sh.nFlows.Load() != 0 || sh.eng.senders.Load() != 0 || sh.wh.armed != 0 {
		t.Fatalf("after completion: %d flows, %d admission slots, %d armed timers; want all 0",
			sh.nFlows.Load(), sh.eng.senders.Load(), sh.wh.armed)
	}
	if st := fl.Stats(); st.AckedBytes != 2400 || st.SentPkts != 2 {
		t.Fatalf("handle stats after reclaim: %+v", st)
	}
	// The wheel still holds the entry armed by the first service.
	sh.fireNow = 1
	sh.wh.advance(1, sh.fireFn)
	if len(sh.txq) != 0 || sh.nFlows.Load() != 0 || f.armed {
		t.Fatalf("stale wheel entry was live: %d packets, %d flows, armed=%v", len(sh.txq), sh.nFlows.Load(), f.armed)
	}
	// A straggling duplicate of the last ack names no flow any more.
	sh.dispatch(src(9000), ackPkt(fl.ID(), 1, 2, sh.clock.NanosAt(0.001)), 1)
	if got := sh.ctr.badAcks.Load(); got != 1 {
		t.Fatalf("badAcks=%d for an ack after reclaim, want 1", got)
	}
	if _, err := add(); err != nil {
		t.Fatalf("the freed admission slot was not reused: %v", err)
	}
}

// The per-packet counters reach Flow.Stats on the 10 ms tick — not per
// packet — and once more when the flow leaves its shard.
func TestStatsPublishedOnTickAndDrop(t *testing.T) {
	h := newHotpathHarness(400)
	s, fl := h.f.snd, &Flow{s: h.f.snd}
	stores, last := 0, int64(0)
	for i := 0; i < 100; i++ { // 100 steps of 1 ms
		h.step()
		if v := fl.Stats().AckedPkts; v != last {
			stores++
			last = v
		}
	}
	if stores < 9 || stores > 11 || last == 0 {
		t.Fatalf("AckedPkts changed %d times in 100 ms (last %d), want once per 10 ms tick", stores, last)
	}
	if s.nAckedPkts == last || s.nSentPkts == fl.Stats().SentPkts {
		t.Fatalf("nothing sent or acked since the last tick: the flow is not cycling")
	}
	h.sndShard.dropFlow(h.f)
	if st := fl.Stats(); st.AckedPkts != s.nAckedPkts || st.AckedBytes != s.nAckedBytes ||
		st.SentPkts != s.nSentPkts || st.SentBytes != s.nSentBytes ||
		st.UnackedRecs != s.book.Len() || st.SRTT == 0 {
		t.Fatalf("stats after the drop %+v, loop totals sent %d/%d acked %d/%d book %d",
			st, s.nSentPkts, s.nSentBytes, s.nAckedPkts, s.nAckedBytes, s.book.Len())
	}
}

// enqueue must get a shard out of the read it is parked in — or about
// to park in — instead of leaving the flow to wait out the deadline.
// Both orders are covered by the mechanism, not by timing: enqueue
// raises admitWake before it pulls the read deadline into the past,
// parkRead checks it after pushing the deadline out.
func TestEnqueueWakesParkedShard(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop() // never started: the test turns the loop by hand
	sh := eng.shards[0]
	newFlow := func(id uint32) *flow {
		s := newSenderFlow(FlowConfig{CC: &FixedRateCC{Rate: 1e6}, Burst: transport.DefaultBurst, PacketSize: 1200})
		s.paused = true // admitted, never sending: the socket stays quiet
		return &flow{addr: src(9000), id: id, snd: s}
	}
	// A read far longer than the test's own timeout: it returns only if
	// woken.
	const park = time.Hour
	read := func() chan int {
		got := make(chan int, 1)
		go func() { got <- sh.port.readBatch(park) }()
		return got
	}
	await := func(what string, got chan int) {
		t.Helper()
		select {
		case n := <-got:
			if n != 0 {
				t.Fatalf("%s: readBatch returned %d, want 0 (woken, nothing read)", what, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the shard stayed parked", what)
		}
	}

	// enqueue first: the shard's own deadline write comes second and
	// would bury the wake, but for the flag.
	sh.enqueue(newFlow(1))
	if !sh.admitWake.Load() {
		t.Fatal("enqueue left admitWake clear")
	}
	await("enqueue before the park", read())
	sh.admit()
	if sh.admitWake.Load() || sh.nFlows.Load() != 1 {
		t.Fatalf("admit: admitWake=%v flows=%d, want the flag cleared and the flow taken in", sh.admitWake.Load(), sh.nFlows.Load())
	}

	// enqueue racing the park, either order.
	for id := uint32(2); id < 10; id++ {
		got := read()
		sh.enqueue(newFlow(id))
		await("enqueue racing the park", got)
		sh.admit()
	}
	if sh.nFlows.Load() != 9 {
		t.Fatalf("%d flows admitted, want 9", sh.nFlows.Load())
	}
}
