package wire

import (
	"math"
	"testing"
)

func TestDataPacketRoundtrip(t *testing.T) {
	buf := make([]byte, 1500)
	h := DataHeader{Seq: 123456789, SentAt: 1710000000123456789}
	pkt := EncodeData(buf, h, 1200)
	if len(pkt) != 1200 {
		t.Fatalf("packet length %d want 1200", len(pkt))
	}
	got, err := DecodeData(pkt)
	if err != nil || got != h {
		t.Fatalf("roundtrip: got %+v err=%v want %+v", got, err, h)
	}
	if PacketType(pkt) != typeData {
		t.Fatal("PacketType should classify as data")
	}
	// Malformed inputs must be rejected with the matching error.
	if _, err := DecodeData(pkt[:DataHeaderLen-1]); err != ErrTruncated {
		t.Fatalf("short packet: err=%v want ErrTruncated", err)
	}
	bad := append([]byte(nil), pkt...)
	bad[1] = wireVersionV2 + 1
	if _, err := DecodeData(bad); err != ErrBadVersion {
		t.Fatalf("wrong version: err=%v want ErrBadVersion", err)
	}
	if _, err := DecodeData(append([]byte{typeAck, 1, 2, 3}, make([]byte, DataHeaderLen)...)); err != ErrBadType {
		t.Fatalf("ack as data: err=%v want ErrBadType", err)
	}
	if _, err := DecodeData(make([]byte, MaxDataLen+1)); err != ErrTruncated && err != ErrBadType {
		// A giant junk buffer fails on type first; a giant valid header
		// must fail on size.
		t.Fatalf("junk: err=%v", err)
	}
	huge := make([]byte, MaxDataLen+1)
	copy(huge, pkt[:DataHeaderLen])
	if _, err := DecodeData(huge); err != ErrOversized {
		t.Fatalf("oversized: err=%v want ErrOversized", err)
	}
	neg := append([]byte(nil), pkt...)
	neg[2] |= 0x80 // negative seq
	if _, err := DecodeData(neg); err != ErrInconsistent {
		t.Fatalf("negative seq: err=%v want ErrInconsistent", err)
	}
}

func TestAckPacketRoundtrip(t *testing.T) {
	var buf [MaxAckLen]byte
	a := AckPacket{
		Seq: 42, SentAtEcho: 111, RecvAt: 222, CumAck: 40,
		Blocks: []SackBlock{{41, 43}, {45, 50}},
	}
	pkt := a.Encode(buf[:])
	if len(pkt) != AckFixedLen+2*16 {
		t.Fatalf("ack length %d", len(pkt))
	}
	if PacketType(pkt) != typeAck {
		t.Fatal("PacketType should classify as ack")
	}
	var got AckPacket
	if err := DecodeAck(pkt, &got); err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if got.Seq != 42 || got.SentAtEcho != 111 || got.RecvAt != 222 || got.CumAck != 40 {
		t.Fatalf("fixed fields: %+v", got)
	}
	if len(got.Blocks) != 2 || got.Blocks[0] != (SackBlock{41, 43}) || got.Blocks[1] != (SackBlock{45, 50}) {
		t.Fatalf("blocks: %+v", got.Blocks)
	}
	// Decoding reuses Blocks without allocating once capacity exists.
	if err := DecodeAck(pkt, &got); err != nil || len(got.Blocks) != 2 {
		t.Fatalf("re-decode failed: %v", err)
	}
}

func TestAckPacketBlockOverflowKeepsHighest(t *testing.T) {
	var buf [MaxAckLen]byte
	a := AckPacket{
		Blocks: []SackBlock{{1, 2}, {4, 5}, {7, 8}, {10, 11}, {13, 14}, {16, 20}},
	}
	pkt := a.Encode(buf[:])
	var got AckPacket
	if err := DecodeAck(pkt, &got); err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if len(got.Blocks) != MaxSackBlocks {
		t.Fatalf("got %d blocks want %d", len(got.Blocks), MaxSackBlocks)
	}
	// The highest blocks must survive — RACK keys off the top sequence.
	if got.Blocks[MaxSackBlocks-1] != (SackBlock{16, 20}) || got.Blocks[0] != (SackBlock{7, 8}) {
		t.Fatalf("wrong blocks kept: %+v", got.Blocks)
	}
}

func TestDecodeAckRejectsMalformed(t *testing.T) {
	var buf [MaxAckLen]byte
	mk := func(a AckPacket) []byte {
		return append([]byte(nil), a.Encode(buf[:])...)
	}
	base := AckPacket{Seq: 9, CumAck: 5, Blocks: []SackBlock{{7, 9}}}
	cases := []struct {
		name string
		pkt  []byte
		want error
	}{
		{"truncated header", []byte{typeAck, 0}, ErrTruncated},
		{"wrong type", mkData(), ErrBadType},
		{"block count over max", withByte(mk(base), 1, MaxSackBlocks+1), ErrInconsistent},
		{"declares more blocks than present", withByte(mk(base), 1, 2), ErrTruncated},
		{"trailing junk", append(mk(base), 0xff), ErrOversized},
		{"negative cum ack", withByte(mk(base), 26, 0x80), ErrInconsistent},
		{"empty sack block", mk(AckPacket{CumAck: 5, Blocks: []SackBlock{{7, 7}}}), ErrInconsistent},
		{"inverted sack block", mk(AckPacket{CumAck: 5, Blocks: []SackBlock{{9, 7}}}), ErrInconsistent},
		{"sack below cum ack", mk(AckPacket{CumAck: 5, Blocks: []SackBlock{{3, 4}}}), ErrInconsistent},
		{"overlapping sack blocks", mk(AckPacket{CumAck: 0, Blocks: []SackBlock{{2, 6}, {4, 8}}}), ErrInconsistent},
		{"descending sack blocks", mk(AckPacket{CumAck: 0, Blocks: []SackBlock{{8, 10}, {2, 4}}}), ErrInconsistent},
	}
	for _, tc := range cases {
		var got AckPacket
		got.Blocks = append(got.Blocks, SackBlock{1, 2}) // stale state to clear
		if err := DecodeAck(tc.pkt, &got); err != tc.want {
			t.Errorf("%s: err=%v want %v", tc.name, err, tc.want)
		} else if len(got.Blocks) != 0 {
			t.Errorf("%s: rejected decode left %d stale blocks", tc.name, len(got.Blocks))
		}
	}
	// A valid ack still decodes after all that.
	var got AckPacket
	if err := DecodeAck(mk(base), &got); err != nil {
		t.Fatalf("valid ack rejected: %v", err)
	}
}

func mkData() []byte {
	var buf [64]byte
	return append([]byte(nil), EncodeData(buf[:], DataHeader{Seq: 1}, 40)...)
}

func withByte(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

func TestMixSeed(t *testing.T) {
	if MixSeed(42, 7) != MixSeed(42, 7) {
		t.Fatal("not deterministic")
	}
	if MixSeed(42, 7) == MixSeed(42, 8) || MixSeed(42, 7) == MixSeed(43, 7) {
		t.Fatal("streams not decorrelated")
	}
	for s := int64(0); s < 100; s++ {
		if v := MixSeed(s, s*31); v <= 0 {
			t.Fatalf("MixSeed(%d) = %d, want positive", s, v)
		}
	}
}

func TestDataPacketV2Roundtrip(t *testing.T) {
	buf := make([]byte, 1500)
	h := DataHeader{Seq: 987654321, SentAt: 1710000000123456789, Flow: 0xdeadbeef}
	pkt := EncodeDataV2(buf, h, 1200)
	got, err := DecodeData(pkt)
	if err != nil || got != h {
		t.Fatalf("v2 roundtrip: got %+v err=%v want %+v", got, err, h)
	}
	if PacketType(pkt) != typeData {
		t.Fatal("PacketType should classify v2 as data")
	}
	// The v2 arrival stamp lands at its shifted offset.
	if !StampArrival(pkt, 42) {
		t.Fatal("StampArrival should accept a v2 data packet")
	}
	got, err = DecodeData(pkt)
	if err != nil || got.Arrival != 42 || got.Flow != h.Flow {
		t.Fatalf("v2 stamp: got %+v err=%v", got, err)
	}
	// A v2 header shorter than DataHeaderLenV2 is truncated, not junk.
	if _, err := DecodeData(pkt[:DataHeaderLenV2-1]); err != ErrTruncated {
		t.Fatalf("short v2: err=%v want ErrTruncated", err)
	}
}

// The push bit rides the version byte of a version-2 header: it
// round-trips, survives a shim's arrival stamp, and is the only bit
// beside the version number a decoder accepts.
func TestDataPacketPushBit(t *testing.T) {
	buf := make([]byte, 1500)
	for _, push := range []bool{false, true} {
		h := DataHeader{Seq: 29, SentAt: 1710000000123456789, Flow: 7, Push: push}
		pkt := EncodeDataV2(buf, h, 1200)
		got, err := DecodeData(pkt)
		if err != nil || got != h {
			t.Fatalf("push=%v roundtrip: got %+v err=%v want %+v", push, got, err, h)
		}
		if PacketType(pkt) != typeData {
			t.Fatalf("push=%v: PacketType %q", push, PacketType(pkt))
		}
		// A finite flow through a shim must not lose its last arrival stamp.
		if !StampArrival(pkt, 42) {
			t.Fatalf("push=%v: StampArrival refused the packet", push)
		}
		h.Arrival = 42
		if got, err = DecodeData(pkt); err != nil || got != h {
			t.Fatalf("push=%v after stamp: got %+v err=%v want %+v", push, got, err, h)
		}
	}
	flagged := EncodeDataV2(buf, DataHeader{Flow: 7, Push: true}, 1200)
	if _, err := DecodeData(flagged[:DataHeaderLenV2-1]); err != ErrTruncated {
		t.Fatalf("short flagged v2: err=%v want ErrTruncated", err)
	}
	// Every other bit of the version byte is reserved, with or without
	// the push bit, and version 1 has no flags at all.
	for _, v := range []byte{0x42, 0x22, 0x12, 0x0a, 0x06, 0x03, 0xc2, 0x83, 0x81, 0x80, 0x00} {
		pkt := EncodeDataV2(buf, DataHeader{Flow: 7}, 1200)
		pkt[1] = v
		if _, err := DecodeData(pkt); err != ErrBadVersion {
			t.Errorf("version byte %#02x: err=%v want ErrBadVersion", v, err)
		}
	}
	v1 := EncodeData(buf, DataHeader{Seq: 1, Push: true}, 1200)
	if got, err := DecodeData(v1); err != nil || got.Push || v1[1] != wireVersion {
		t.Fatalf("version 1 must ignore Push: byte %#02x got %+v err=%v", v1[1], got, err)
	}
}

func TestAckPacketV2Roundtrip(t *testing.T) {
	var buf [MaxAckLen]byte
	a := AckPacket{Seq: 7, SentAtEcho: 11, RecvAt: 13, CumAck: 5, Flow: 31337,
		Blocks: []SackBlock{{Start: 8, End: 10}, {Start: 12, End: 15}}}
	pkt := a.EncodeV2(buf[:])
	if len(pkt) != AckFixedLenV2+2*16 {
		t.Fatalf("v2 ack length %d want %d", len(pkt), AckFixedLenV2+2*16)
	}
	if PacketType(pkt) != typeAck {
		t.Fatal("PacketType should classify a v2 ack as ack")
	}
	var out AckPacket
	if err := DecodeAck(pkt, &out); err != nil {
		t.Fatalf("v2 ack decode: %v", err)
	}
	if out.Seq != a.Seq || out.SentAtEcho != a.SentAtEcho || out.RecvAt != a.RecvAt ||
		out.CumAck != a.CumAck || out.Flow != a.Flow || len(out.Blocks) != 2 ||
		out.Blocks[0] != a.Blocks[0] || out.Blocks[1] != a.Blocks[1] {
		t.Fatalf("v2 ack roundtrip: got %+v want %+v", out, a)
	}
	// A v1 decode into the same struct must clear the stale Flow.
	var buf1 [MaxAckLen]byte
	v1 := AckPacket{Seq: 1, CumAck: 1}
	pkt1 := v1.Encode(buf1[:])
	if err := DecodeAck(pkt1, &out); err != nil || out.Flow != 0 {
		t.Fatalf("v1 after v2: err=%v flow=%d want 0", err, out.Flow)
	}
	// Truncated and inconsistent v2 acks are rejected.
	if err := DecodeAck(pkt[:AckFixedLenV2-1], &out); err != ErrTruncated {
		t.Fatalf("short v2 ack: err=%v want ErrTruncated", err)
	}
	if err := DecodeAck(pkt[:AckFixedLenV2], &out); err != ErrTruncated {
		t.Fatalf("v2 ack missing blocks: err=%v want ErrTruncated", err)
	}
}

func TestPacerAccrualAndDelay(t *testing.T) {
	p := Pacer{Cap: 12000}
	p.Reset(0)
	p.Advance(0.001, 1e6) // 1 MB/s for 1 ms = 1000 bytes
	if p.Take(1200) {
		t.Fatal("took more tokens than accrued")
	}
	if d := p.Delay(1200, 1e6); math.Abs(d-200e-6) > 1e-9 {
		t.Fatalf("delay %.9f want 200µs", d)
	}
	p.Advance(0.002, 1e6)
	if !p.Take(1200) {
		t.Fatal("tokens should be available after 2 ms")
	}
	// The bucket caps accumulation: a long sleep cannot build an
	// unbounded burst.
	p.Advance(10, 1e6)
	if p.tokens != p.Cap {
		t.Fatalf("tokens %.0f want cap %.0f", p.tokens, p.Cap)
	}
	// Infinite/huge rates disable pacing entirely.
	p2 := Pacer{Cap: 5000}
	p2.Advance(0, math.Inf(1))
	if !p2.Take(4999) || p2.Delay(5000, math.Inf(1)) != 0 {
		t.Fatal("infinite rate should fill the bucket and never delay")
	}
	// Time never runs backwards through the bucket.
	p3 := Pacer{Cap: 5000}
	p3.Reset(1)
	p3.Advance(0.5, 1e6)
	if p3.tokens != 0 {
		t.Fatalf("backwards advance accrued %v tokens", p3.tokens)
	}
}

// The bucket is as deep as Depth seconds of the pacing rate when that
// is more than Cap: a wake 1.1 ms late at 12 MB/s finds all 13200 bytes,
// not the 9600 two trains would hold. Unpaced, Cap is the whole depth.
func TestPacerDepthInTime(t *testing.T) {
	p := Pacer{Cap: 9600, Depth: 2.5e-3}
	p.Reset(0)
	p.Advance(0.0011, 12e6)
	if math.Abs(p.tokens-13200) > 1e-6 {
		t.Fatalf("tokens %.1f after a 1.1 ms sleep, want all 13200 accrued", p.tokens)
	}
	p.Advance(1, 12e6)
	if p.tokens != 30000 {
		t.Fatalf("tokens %.0f after a long sleep, want 2.5 ms of the rate = 30000", p.tokens)
	}
	p.Advance(2, 1e6) // 2.5 ms of a slow rate is less than Cap: Cap is the floor
	if p.tokens != 9600 {
		t.Fatalf("tokens %.0f at 1 MB/s, want Cap 9600", p.tokens)
	}
	p.Advance(3, math.Inf(1))
	if p.tokens != 9600 {
		t.Fatalf("tokens %.0f unpaced, want Cap 9600", p.tokens)
	}
	// The timeline's re-anchor threshold follows the same depth: a pause
	// the bucket can absorb keeps the stamps on the grid, a longer one
	// re-anchors them at now.
	for _, c := range []struct{ depth, pause, want float64 }{
		{1.0, 1.0, 0.12}, // 1 s < 1.0 + schedSlack: next stamp one packet after the first
		{0, 1.0, 1.0},    // Cap/rate = 0.12 s: re-anchored
	} {
		q := Pacer{Cap: 1200, Depth: c.depth}
		q.Prime(1200)
		q.Advance(0, 1e4)
		q.TakeStamped(0, 1e4, 1200)
		q.Advance(c.pause, 1e4)
		got, ok := q.TakeStamped(c.pause, 1e4, 1200)
		if !ok || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("depth %v: stamp %.3f ok=%v after a %v s pause, want %.3f", c.depth, got, ok, c.pause, c.want)
		}
	}
}

// A bucket that has never advanced keeps what Prime put in it; Reset —
// an outage, a push-back — earns nothing, and neither does priming a
// bucket already in use.
func TestPacerPrime(t *testing.T) {
	p := Pacer{Cap: 9600}
	p.Prime(4800)
	p.Advance(5, 12e6) // the first advance anchors the clock, accrues nothing
	if p.tokens != 4800 {
		t.Fatalf("tokens %.0f at the first advance, want the primed 4800", p.tokens)
	}
	p.Reset(6)
	p.Prime(4800)
	p.Advance(6, 12e6)
	if p.tokens != 0 {
		t.Fatalf("tokens %.0f after Reset, want 0", p.tokens)
	}
}

func TestBusyPacketRoundtrip(t *testing.T) {
	var buf [BusyLen]byte
	cases := []BusyPacket{
		{Flow: 7, RetryAfterMillis: 250},
		{Flow: 12 | FlowClassScavenger, RetryAfterMillis: 1, Shed: true},
		{Flow: 0, RetryAfterMillis: MaxBusyRetryMillis},
	}
	for _, bp := range cases {
		pkt := EncodeBusy(buf[:], bp)
		if len(pkt) != BusyLen {
			t.Fatalf("encoded length %d want %d", len(pkt), BusyLen)
		}
		if PacketType(pkt) != typeBusy {
			t.Fatal("PacketType should classify as busy")
		}
		got, err := DecodeBusy(pkt)
		if err != nil || got != bp {
			t.Fatalf("roundtrip: got %+v err=%v want %+v", got, err, bp)
		}
	}
	// The encoder clamps out-of-range hints into the decodable range.
	if got, err := DecodeBusy(EncodeBusy(buf[:], BusyPacket{RetryAfterMillis: 0})); err != nil || got.RetryAfterMillis != 1 {
		t.Fatalf("zero hint not clamped: %+v err=%v", got, err)
	}
	if got, err := DecodeBusy(EncodeBusy(buf[:], BusyPacket{RetryAfterMillis: 1 << 30})); err != nil || got.RetryAfterMillis != MaxBusyRetryMillis {
		t.Fatalf("huge hint not clamped: %+v err=%v", got, err)
	}
}

func TestDecodeBusyRejectsMalformed(t *testing.T) {
	var buf [BusyLen]byte
	good := EncodeBusy(buf[:], BusyPacket{Flow: 5, RetryAfterMillis: 100})
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		pkt  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", good[:BusyLen-1], ErrTruncated},
		{"long", append(append([]byte(nil), good...), 0), ErrOversized},
		{"wrong type", mut(func(b []byte) { b[0] = typeAck }), ErrBadType},
		{"bad version", mut(func(b []byte) { b[1] = 99 }), ErrBadVersion},
		{"zero retry", mut(func(b []byte) { b[6], b[7], b[8], b[9] = 0, 0, 0, 0 }), ErrInconsistent},
		{"huge retry", mut(func(b []byte) { b[6] = 0xff }), ErrInconsistent},
		{"unknown flags", mut(func(b []byte) { b[10] = 0x82 }), ErrInconsistent},
	}
	for _, c := range cases {
		if _, err := DecodeBusy(c.pkt); err != c.want {
			t.Errorf("%s: err=%v want %v", c.name, err, c.want)
		}
	}
}

func TestScavengerID(t *testing.T) {
	if ScavengerID(1) || ScavengerID(0) {
		t.Fatal("plain ids must not be scavenger")
	}
	if !ScavengerID(1 | FlowClassScavenger) {
		t.Fatal("class bit not detected")
	}
}
