package wire_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pccproteus/internal/engine"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// The sender seen from outside: an engine flow pointed at a receiver
// written against the wire formats alone — a bare UDP socket whose acks
// the test composes by hand — so what is pinned is the bytes on the
// wire, not two halves of one implementation agreeing with each other.
// (The state machine's timing — RACK windows, the RTO ladder, watchdog
// and probe cadence — is pinned in virtual time in internal/engine.)

// peerCC tallies controller callbacks; they run on the shard goroutine.
type peerCC struct {
	sends, acks, losses, outages, recoveries atomic.Int64
	resumeRate                               atomic.Int64
}

func (c *peerCC) Name() string                          { return "peer-test" }
func (c *peerCC) OnSend(float64, *transport.SentPacket) { c.sends.Add(1) }
func (c *peerCC) OnAck(transport.Ack)                   { c.acks.Add(1) }
func (c *peerCC) OnLoss(transport.Loss)                 { c.losses.Add(1) }
func (c *peerCC) PacingRate() float64                   { return 2e6 }
func (c *peerCC) CWnd() float64                         { return 1e9 }
func (c *peerCC) OnOutage(float64)                      { c.outages.Add(1) }
func (c *peerCC) OnRecovery(_ float64, resumeRate float64) {
	c.recoveries.Add(1)
	c.resumeRate.Store(int64(resumeRate))
}

type handPeer struct {
	t    *testing.T
	conn *net.UDPConn
	snd  *engine.Engine
	cc   *peerCC
	fl   *engine.Flow
	buf  [2048]byte
}

func newHandPeer(t *testing.T, limit int64) *handPeer {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadBuffer(1 << 21)
	snd, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(snd.Stop)
	if err := snd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &handPeer{t: t, conn: conn, snd: snd, cc: &peerCC{}}
	p.fl, err = snd.AddFlow(engine.FlowConfig{
		Dst: conn.LocalAddr().(*net.UDPAddr).AddrPort(), CC: p.cc, Limit: limit, PacketSize: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// next reads one data packet, failing the test after wait.
func (p *handPeer) next(wait time.Duration) (wire.DataHeader, int) {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(wait))
	n, err := p.conn.Read(p.buf[:])
	if err != nil {
		p.t.Fatalf("no data packet within %v: %v (flow %+v)", wait, err, p.fl.Stats())
	}
	h, err := wire.DecodeData(p.buf[:n])
	if err != nil || h.Flow != p.fl.ID() {
		p.t.Fatalf("bad data packet: %+v err=%v want flow %d", h, err, p.fl.ID())
	}
	return h, n
}

// ack answers packet h the way a receiver that saw it 1 ms ago would.
func (p *handPeer) ack(h wire.DataHeader, cum int64, blocks ...wire.SackBlock) {
	p.t.Helper()
	a := wire.AckPacket{
		Seq: h.Seq, SentAtEcho: h.SentAt, RecvAt: time.Now().Add(-time.Millisecond).UnixNano(),
		CumAck: cum, Blocks: blocks, Flow: h.Flow,
	}
	var buf [wire.MaxAckLen]byte
	if _, err := p.conn.WriteToUDPAddrPort(a.EncodeV2(buf[:]), p.snd.Addrs()[0]); err != nil {
		p.t.Fatal(err)
	}
}

// eventually polls cond for up to two seconds.
func (p *handPeer) eventually(what string, cond func() bool) {
	p.t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			p.t.Fatalf("timed out waiting for %s (flow %+v, engine %+v)", what, p.fl.Stats(), p.snd.Stats())
		}
	}
}

func TestSenderDuplicateAckCountedOnce(t *testing.T) {
	// Two packets, the second never acked: a flow that completes leaves
	// its shard, and an ack for it is then counted as bad, not dispatched.
	p := newHandPeer(t, 2400)
	h, n := p.next(time.Second)
	if h.Seq != 0 || n != 1200 {
		t.Fatalf("first packet seq=%d len=%d, want 0/1200", h.Seq, n)
	}
	p.ack(h, 1)
	p.ack(h, 1) // the same ack again
	p.eventually("both acks dispatched", func() bool { return p.snd.Stats().RxPkts == 2 })
	if got := p.cc.acks.Load(); got != 1 {
		t.Fatalf("OnAck called %d times for a duplicated ack, want 1", got)
	}
	// Flow stats are published on the sender's 10 ms tick: wait for the
	// ack to show, then for the ticks a second count would have shown in.
	p.eventually("the ack in the flow's stats", func() bool { return p.fl.Stats().AckedPkts > 0 })
	time.Sleep(30 * time.Millisecond)
	if st := p.fl.Stats(); st.AckedPkts != 1 || st.AckedBytes != 1200 || st.LostPkts != 0 {
		t.Fatalf("flow stats %+v, want 1 packet / 1200 bytes acked", st)
	}
}

func TestSenderFiniteTransferCompletes(t *testing.T) {
	p := newHandPeer(t, 3000)
	var last wire.DataHeader
	for i, want := range []int{1200, 1200, 600} {
		h, n := p.next(time.Second)
		if h.Seq != int64(i) || n != want {
			t.Fatalf("packet %d: seq=%d len=%d, want len %d", i, h.Seq, n, want)
		}
		last = h
	}
	select {
	case <-p.fl.Done():
		t.Fatal("done before anything was acked")
	default:
	}
	p.ack(last, 3)
	select {
	case <-p.fl.Done():
	case <-time.After(2 * time.Second):
		t.Fatalf("completion channel not closed at Limit: %+v", p.fl.Stats())
	}
	if st := p.fl.Stats(); st.SentPkts != 3 || st.AckedBytes != 3000 {
		t.Fatalf("flow stats %+v, want 3 packets sent, 3000 bytes acked", st)
	}
}

// With acks never coming, the RTO — one second before any RTT sample —
// is the backstop: the packet is declared lost and, the transfer being
// finite, its bytes go out again under a new sequence number.
func TestSenderRTOBackstop(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	p := newHandPeer(t, 1200)
	start := time.Now()
	p.next(time.Second)
	if h, n := p.next(3 * time.Second); h.Seq != 1 || n != 1200 {
		t.Fatalf("replacement seq=%d len=%d, want 1/1200", h.Seq, n)
	}
	if d := time.Since(start); d < 900*time.Millisecond {
		t.Fatalf("declared lost after %v, before the 1 s initial RTO", d)
	}
	if st := p.fl.Stats(); st.LostPkts != 1 || p.cc.losses.Load() != 1 {
		t.Fatalf("flow stats %+v, OnLoss=%d; want exactly one loss", st, p.cc.losses.Load())
	}
}

// TestSenderWatchdogProbeLifecycle: ack silence with data outstanding
// trips the watchdog; from then on only header-only probes leave the
// socket, unseen by the controller; the first probe's ack ends the
// outage and hands the controller its pre-outage rate.
func TestSenderWatchdogProbeLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	p := newHandPeer(t, 0)
	for i := int64(1); i <= 20; i++ { // a healthy start: RTT samples, a last-good rate
		h, _ := p.next(time.Second)
		p.ack(h, h.Seq+1)
	}
	p.eventually("watchdog trip", func() bool { return p.fl.Stats().InOutage }) // silence from here on
	if p.cc.outages.Load() != 1 {
		t.Fatalf("OnOutage called %d times, want 1", p.cc.outages.Load())
	}
	sends := p.cc.sends.Load()
	var probe wire.DataHeader
	for n := 0; n != wire.DataHeaderLenV2; { // skip the data sent before the trip
		probe, n = p.next(time.Second)
	}
	p.ack(probe, 0, wire.SackBlock{Start: probe.Seq, End: probe.Seq + 1})
	p.eventually("recovery", func() bool { return p.fl.Stats().Recoveries == 1 })
	st := p.fl.Stats()
	if st.InOutage || st.ProbesSent == 0 || st.WatchdogTrips != 1 {
		t.Fatalf("after the probe's ack: %+v", st)
	}
	if p.cc.recoveries.Load() != 1 || p.cc.resumeRate.Load() != 2e6 {
		t.Fatalf("OnRecovery ×%d with resume rate %d, want once at the pre-outage 2e6", p.cc.recoveries.Load(), p.cc.resumeRate.Load())
	}
	if h, n := p.next(time.Second); n != 1200 || h.Seq <= probe.Seq {
		t.Fatalf("after recovery got seq=%d len=%d, want fresh full-size data", h.Seq, n)
	}
	if got := p.cc.sends.Load(); got <= sends {
		t.Fatal("controller saw no OnSend after recovery")
	}
}
