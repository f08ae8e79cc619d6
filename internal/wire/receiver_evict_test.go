package wire_test

import (
	"net"
	"testing"
	"time"

	"pccproteus/internal/engine"
	. "pccproteus/internal/wire"
)

// A flow evicted under cap pressure gets one final cumulative ack, so a
// sender whose last packets raced the eviction learns what landed
// before it rebinds — instead of discovering the gap by RTO afterward.
func TestReceiverEvictionFlushesFinalAck(t *testing.T) {
	recv, err := engine.New(engine.Config{MaxFlowsPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Stop()
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}

	dial := func() *net.UDPConn {
		c, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(recv.Addrs()[0]))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	connA := dial()
	defer connA.Close()
	connB := dial()
	defer connB.Close()

	// Flow A receives 0,1,2 then 4 — a gap at 3, so its state is
	// cum=3 with SACK {4,5}.
	var buf [256]byte
	send := func(c *net.UDPConn, seq int64) {
		// Nonzero SentAt: regular acks echo it, the eviction flush sends
		// zero — that is how the test tells them apart.
		pkt := EncodeData(buf[:], DataHeader{Seq: seq, SentAt: 12345}, DataHeaderLen)
		if _, err := c.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	for _, seq := range []int64{0, 1, 2, 4} {
		send(connA, seq)
	}

	// Drain A's regular acks until the one for seq 4 arrives, proving
	// the receiver has processed everything before B triggers eviction.
	rbuf := make([]byte, MaxAckLen)
	var a AckPacket
	deadline := time.Now().Add(5 * time.Second)
	for {
		connA.SetReadDeadline(deadline)
		n, err := connA.Read(rbuf)
		if err != nil {
			t.Fatalf("waiting for regular acks: %v", err)
		}
		if DecodeAck(rbuf[:n], &a) == nil && a.Seq == 4 {
			break
		}
	}

	// B's first packet exceeds MaxFlowsPerShard=1 and evicts A.
	send(connB, 0)

	// A must now receive the final ack: SentAtEcho 0, cum 3, SACK {4,5}.
	for {
		connA.SetReadDeadline(deadline)
		n, err := connA.Read(rbuf)
		if err != nil {
			t.Fatalf("final ack never arrived: %v (stats %+v)", err, recv.Stats())
		}
		if DecodeAck(rbuf[:n], &a) != nil || a.SentAtEcho != 0 {
			continue
		}
		if a.CumAck != 3 || a.Seq != 4 {
			t.Fatalf("final ack cum=%d seq=%d want cum=3 seq=4", a.CumAck, a.Seq)
		}
		if len(a.Blocks) != 1 || a.Blocks[0] != (SackBlock{4, 5}) {
			t.Fatalf("final ack blocks=%+v want [{4 5}]", a.Blocks)
		}
		break
	}

	st := recv.Stats()
	if st.Evicted != 1 || st.Flows != 1 {
		t.Fatalf("evicted=%d flows=%d", st.Evicted, st.Flows)
	}

	// A rebinding (same behavior as a restarted sender) gets fresh flow
	// state: its next packet is acked from cum zero, not stale state.
	connA2 := dial()
	defer connA2.Close()
	pkt := EncodeData(buf[:], DataHeader{Seq: 0, SentAt: 777}, DataHeaderLen)
	if _, err := connA2.Write(pkt); err != nil {
		t.Fatal(err)
	}
	connA2.SetReadDeadline(deadline)
	n, err := connA2.Read(rbuf)
	if err != nil {
		t.Fatalf("rebind ack: %v", err)
	}
	if err := DecodeAck(rbuf[:n], &a); err != nil {
		t.Fatal(err)
	}
	if a.CumAck != 1 || a.SentAtEcho != 777 {
		t.Fatalf("rebind ack cum=%d echo=%d want cum=1 echo=777", a.CumAck, a.SentAtEcho)
	}
}
