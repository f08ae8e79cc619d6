package engine

import (
	"net/netip"
	"testing"

	"pccproteus/internal/wire"
)

// The sender seen from outside: an engine flow pointed at a receiver
// written against the wire formats alone — the test reads the flow's
// datagrams off its shard's in-memory port and composes every ack by
// hand — so what is pinned is the bytes on the wire, not two halves of
// one implementation agreeing with each other. The shard runs on a
// virtual clock the test advances, so the RTO and the watchdog cost no
// wall time and fire exactly when they are due. A receiver shard's
// final ack is pinned the same way, with the test as its senders.

// handPeerAddr is the hand-written receiver's address.
var handPeerAddr = src(9000)

// handPeer is one sender flow on a shard whose port is the test: what
// the shard sends lands in out, what the test pushes the shard reads on
// its next turn.
type handPeer struct {
	t    *testing.T
	now  float64
	port *memPort
	eng  *Engine
	cc   *outageCC
	fl   *Flow
	out  [][]byte // datagrams the shard sent that the test has not read
}

// newHandShard builds a one-shard engine of cfg whose port is the test,
// on the virtual clock *now: what the shard writes goes to send, what
// the test pushes the shard reads on its next turn.
func newHandShard(cfg Config, now *float64, send func(dst netip.AddrPort, b []byte)) (*Engine, *memPort) {
	eng := &Engine{cfg: cfg.withDefaults(), done: make(chan struct{}), started: true}
	sh := newShard(eng, 0)
	port := newMemPort(sh, wire.VirtualClock(func() float64 { return *now }))
	port.send = send
	sh.attach(port, src(40001))
	sh.wh.init(*now)
	eng.shards = []*shard{sh}
	return eng, port
}

// newHandPeer adds a flow of limit bytes (0: unlimited) of 1200 B
// packets and turns the shard once at time 0: its first train is out.
func newHandPeer(t *testing.T, limit int64) *handPeer {
	t.Helper()
	p := &handPeer{t: t, cc: &outageCC{countingCC: countingCC{rate: 2e6, cwnd: 1e9}}}
	p.eng, p.port = newHandShard(Config{}, &p.now, func(_ netip.AddrPort, b []byte) {
		p.out = append(p.out, append([]byte(nil), b...))
	})
	var err error
	p.fl, err = p.eng.AddFlow(FlowConfig{Dst: handPeerAddr, CC: p.cc, Limit: limit, PacketSize: 1200})
	if err != nil {
		t.Fatal(err)
	}
	p.port.turn()
	return p
}

// step advances the clock one wheel slot and turns the shard.
func (p *handPeer) step() {
	p.now += wheelGran
	p.port.turn()
}

// run steps the shard for d seconds.
func (p *handPeer) run(d float64) {
	for end := p.now + d; p.now < end; {
		p.step()
	}
}

// next reads the flow's next datagram, a data packet, stepping the shard
// until there is one; it fails the test after wait seconds.
func (p *handPeer) next(wait float64) (wire.DataHeader, int) {
	p.t.Helper()
	for end := p.now + wait; len(p.out) == 0; p.step() {
		if p.now >= end {
			p.t.Fatalf("no data packet within %v s (flow %+v)", wait, p.fl.Stats())
		}
	}
	b := p.out[0]
	p.out = p.out[1:]
	h, err := wire.DecodeData(b)
	if err != nil || h.Flow != p.fl.ID() {
		p.t.Fatalf("bad data packet: %+v err=%v want flow %d", h, err, p.fl.ID())
	}
	return h, len(b)
}

// ack answers packet h the way a receiver that saw it 1 ms ago would.
func (p *handPeer) ack(h wire.DataHeader, cum int64, blocks ...wire.SackBlock) {
	a := wire.AckPacket{
		Seq: h.Seq, SentAtEcho: h.SentAt, RecvAt: p.port.clk.NanosAt(p.now - 0.001),
		CumAck: cum, Blocks: blocks, Flow: h.Flow,
	}
	var buf [wire.MaxAckLen]byte
	p.port.push(handPeerAddr, a.Encode(buf[:]))
}

// eventually steps the shard until cond holds, for up to two seconds.
func (p *handPeer) eventually(what string, cond func() bool) {
	p.t.Helper()
	for end := p.now + 2; !cond(); p.step() {
		if p.now >= end {
			p.t.Fatalf("timed out waiting for %s (flow %+v, engine %+v)", what, p.fl.Stats(), p.eng.Stats())
		}
	}
}

func TestSenderDuplicateAckCountedOnce(t *testing.T) {
	// Two packets, the second never acked: a flow that completes leaves
	// its shard, and an ack for it is then counted as bad, not dispatched.
	p := newHandPeer(t, 2400)
	h, n := p.next(1)
	if h.Seq != 0 || n != 1200 {
		t.Fatalf("first packet seq=%d len=%d, want 0/1200", h.Seq, n)
	}
	p.ack(h, 1)
	p.ack(h, 1) // the same ack again
	p.eventually("both acks dispatched", func() bool { return p.eng.Stats().RxPkts == 2 })
	if got := p.cc.acks; got != 1 {
		t.Fatalf("OnAck called %d times for a duplicated ack, want 1", got)
	}
	// Flow stats are published on the sender's 10 ms tick: wait for the
	// ack to show, then for the ticks a second count would have shown in.
	p.eventually("the ack in the flow's stats", func() bool { return p.fl.Stats().AckedPkts > 0 })
	p.run(0.030)
	if st := p.fl.Stats(); st.AckedPkts != 1 || st.AckedBytes != 1200 || st.LostPkts != 0 {
		t.Fatalf("flow stats %+v, want 1 packet / 1200 bytes acked", st)
	}
}

func TestSenderFiniteTransferCompletes(t *testing.T) {
	p := newHandPeer(t, 3000)
	var last wire.DataHeader
	for i, want := range []int{1200, 1200, 600} {
		h, n := p.next(1)
		if h.Seq != int64(i) || n != want {
			t.Fatalf("packet %d: seq=%d len=%d, want len %d", i, h.Seq, n, want)
		}
		last = h
	}
	done := func() bool {
		select {
		case <-p.fl.Done():
			return true
		default:
			return false
		}
	}
	if done() {
		t.Fatal("done before anything was acked")
	}
	p.ack(last, 3)
	p.eventually("the completion channel closed at Limit", done)
	if st := p.fl.Stats(); st.SentPkts != 3 || st.AckedBytes != 3000 {
		t.Fatalf("flow stats %+v, want 3 packets sent, 3000 bytes acked", st)
	}
}

// With acks never coming, the RTO — one second before any RTT sample —
// is the backstop: the packet is declared lost and, the transfer being
// finite, its bytes go out again under a new sequence number.
func TestSenderRTOBackstop(t *testing.T) {
	p := newHandPeer(t, 1200)
	p.next(1)
	start := p.now
	if h, n := p.next(3); h.Seq != 1 || n != 1200 {
		t.Fatalf("replacement seq=%d len=%d, want 1/1200", h.Seq, n)
	}
	if d := p.now - start; d < 1.0 {
		t.Fatalf("declared lost after %.4f s, before the 1 s initial RTO", d)
	}
	if st := p.fl.Stats(); st.LostPkts != 1 || p.cc.losses != 1 {
		t.Fatalf("flow stats %+v, OnLoss=%d; want exactly one loss", st, p.cc.losses)
	}
}

// TestSenderWatchdogProbesOnTheWire: ack silence with data outstanding
// trips the watchdog; from then on only header-only probes leave the
// shard, unseen by the controller; the first probe's ack ends the
// outage and hands the controller its pre-outage rate.
func TestSenderWatchdogProbesOnTheWire(t *testing.T) {
	p := newHandPeer(t, 0)
	for i := int64(1); i <= 20; i++ { // a healthy start: RTT samples, a last-good rate
		h, _ := p.next(1)
		p.ack(h, h.Seq+1)
	}
	p.eventually("watchdog trip", func() bool { return p.fl.Stats().InOutage }) // silence from here on
	if p.cc.outages != 1 {
		t.Fatalf("OnOutage called %d times, want 1", p.cc.outages)
	}
	sends := p.cc.sends
	var probe wire.DataHeader
	for n := 0; n != wire.DataHeaderLen; { // skip the data sent before the trip
		probe, n = p.next(1)
	}
	p.ack(probe, 0, wire.SackBlock{Start: probe.Seq, End: probe.Seq + 1})
	p.eventually("recovery", func() bool { return p.fl.Stats().Recoveries == 1 })
	st := p.fl.Stats()
	if st.InOutage || st.ProbesSent == 0 || st.WatchdogTrips != 1 {
		t.Fatalf("after the probe's ack: %+v", st)
	}
	if p.cc.recoveries != 1 || p.cc.resumeRate != 2e6 {
		t.Fatalf("OnRecovery ×%d with resume rate %v, want once at the pre-outage 2e6", p.cc.recoveries, p.cc.resumeRate)
	}
	if h, n := p.next(1); n != 1200 || h.Seq <= probe.Seq {
		t.Fatalf("after recovery got seq=%d len=%d, want fresh full-size data", h.Seq, n)
	}
	if p.cc.sends <= sends {
		t.Fatal("controller saw no OnSend after recovery")
	}
}

// A receiver flow evicted under cap pressure gets one final cumulative
// ack, so a sender whose last packets raced the eviction learns what
// landed before it rebinds — instead of discovering the gap by RTO
// afterward. The senders are the test, one source port each.
func TestReceiverEvictionFlushesFinalAck(t *testing.T) {
	now := 0.0
	acks := map[netip.AddrPort][]wire.AckPacket{}
	eng, port := newHandShard(Config{MaxFlowsPerShard: 1}, &now, func(dst netip.AddrPort, b []byte) {
		var a wire.AckPacket
		if err := wire.DecodeAck(b, &a); err != nil {
			t.Fatalf("the receiver sent %d bytes that are not an ack: %v", len(b), err)
		}
		acks[dst] = append(acks[dst], a)
	})
	var buf [256]byte
	send := func(from netip.AddrPort, seq, sentAt int64) {
		now += 0.001
		port.push(from, wire.EncodeData(buf[:], wire.DataHeader{Seq: seq, SentAt: sentAt}, wire.DataHeaderLen))
		port.turn()
	}
	a, b, a2 := src(5001), src(5002), src(5003)

	// Flow A receives 0,1,2 then 4 — a gap at 3, so its state is cum=3
	// with SACK {4,5}. Nonzero SentAt: regular acks echo it, the eviction
	// flush sends zero — that is how the test tells them apart.
	for _, seq := range []int64{0, 1, 2, 4} {
		send(a, seq, 12345)
	}
	if n := len(acks[a]); n == 0 || acks[a][n-1].Seq != 4 || acks[a][n-1].SentAtEcho != 12345 {
		t.Fatalf("regular acks to A: %+v, want the last for seq 4", acks[a])
	}
	regular := len(acks[a])

	// B's first packet exceeds MaxFlowsPerShard=1 and evicts A, which
	// gets the final ack: SentAtEcho 0, cum 3, SACK {4,5}.
	send(b, 0, 12345)
	if len(acks[a]) != regular+1 {
		t.Fatalf("%d acks to A after the eviction, want the one final ack", len(acks[a])-regular)
	}
	fin := acks[a][regular]
	if fin.SentAtEcho != 0 || fin.CumAck != 3 || fin.Seq != 4 {
		t.Fatalf("final ack echo=%d cum=%d seq=%d want echo=0 cum=3 seq=4", fin.SentAtEcho, fin.CumAck, fin.Seq)
	}
	if len(fin.Blocks) != 1 || fin.Blocks[0] != (wire.SackBlock{Start: 4, End: 5}) {
		t.Fatalf("final ack blocks=%+v want [{4 5}]", fin.Blocks)
	}
	if st := eng.Stats(); st.Evicted != 1 || st.Flows != 1 {
		t.Fatalf("evicted=%d flows=%d", st.Evicted, st.Flows)
	}

	// A rebinding (same behavior as a restarted sender) gets fresh flow
	// state: its next packet is acked from cum zero, not stale state.
	send(a2, 0, 777)
	if n := len(acks[a2]); n != 1 || acks[a2][0].CumAck != 1 || acks[a2][0].SentAtEcho != 777 {
		t.Fatalf("rebind acks %+v want one with cum=1 echo=777", acks[a2])
	}
}
