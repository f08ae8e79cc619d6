package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeData proves the data codec never panics and that every
// accepted packet re-encodes to the same header bytes.
func FuzzDecodeData(f *testing.F) {
	var buf [1500]byte
	f.Add(append([]byte(nil), EncodeData(buf[:], DataHeader{Seq: 7, SentAt: 1e18, Arrival: 2e18}, 1200)...))
	f.Add(append([]byte(nil), EncodeData(buf[:], DataHeader{}, DataHeaderLen)...))
	f.Add(append([]byte(nil), EncodeDataV2(buf[:], DataHeader{Seq: 29, SentAt: 1e18, Flow: 7, Push: true}, 1200)...))
	f.Add([]byte{})
	f.Add([]byte{typeData})
	f.Add([]byte{typeData, wireVersion})
	f.Add(bytes.Repeat([]byte{0xff}, DataHeaderLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeData(b)
		if err != nil {
			return
		}
		if h.Seq < 0 || h.SentAt < 0 || h.Arrival < 0 {
			t.Fatalf("accepted negative stamps: %+v", h)
		}
		// Round-trip: re-encoding the decoded header in the input's
		// version must reproduce its header bytes exactly, flag included.
		out := make([]byte, len(b))
		copy(out, b)
		hdr := DataHeaderLen
		if b[1] == wireVersion {
			if h.Push || h.Flow != 0 {
				t.Fatalf("version 1 decoded with v2 fields: %+v", h)
			}
			EncodeData(out, h, len(b))
		} else {
			hdr = DataHeaderLenV2
			EncodeDataV2(out, h, len(b))
		}
		if !bytes.Equal(out[:hdr], b[:hdr]) {
			t.Fatalf("header round-trip mismatch:\n in %x\nout %x", b[:hdr], out[:hdr])
		}
	})
}

// FuzzDecodeAck proves the ack codec never panics, that accepted acks
// satisfy the documented SACK invariants, and that rejected input
// leaves no stale blocks behind.
func FuzzDecodeAck(f *testing.F) {
	var buf [MaxAckLen]byte
	good := AckPacket{Seq: 42, SentAtEcho: 1, RecvAt: 2, CumAck: 40,
		Blocks: []SackBlock{{41, 43}, {45, 50}}}
	f.Add(append([]byte(nil), good.Encode(buf[:])...))
	f.Add(append([]byte(nil), (&AckPacket{}).Encode(buf[:])...))
	f.Add([]byte{})
	f.Add([]byte{typeAck, 0})
	f.Add(bytes.Repeat([]byte{0xff}, MaxAckLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		var a AckPacket
		a.Blocks = append(a.Blocks, SackBlock{1, 2}) // stale state
		if err := DecodeAck(b, &a); err != nil {
			if len(a.Blocks) != 0 {
				t.Fatalf("rejected decode left %d stale blocks", len(a.Blocks))
			}
			return
		}
		if a.Seq < 0 || a.SentAtEcho < 0 || a.RecvAt < 0 || a.CumAck < 0 {
			t.Fatalf("accepted negative fields: %+v", a)
		}
		prev := a.CumAck
		for _, bl := range a.Blocks {
			if bl.Start >= bl.End || bl.Start < prev {
				t.Fatalf("accepted inconsistent blocks: cum=%d %+v", a.CumAck, a.Blocks)
			}
			prev = bl.End
		}
		// Round-trip: re-encoding must reproduce the input exactly
		// (the decoder enforces an exact length, so this is total).
		out := a.Encode(buf[:])
		if !bytes.Equal(out, b) {
			t.Fatalf("ack round-trip mismatch:\n in %x\nout %x", b, out)
		}
	})
}

// FuzzDecodeFetch proves the fetch-request codec never panics and that
// every accepted request re-encodes byte-identically (the packet is all
// header, so the round trip is total).
func FuzzDecodeFetch(f *testing.F) {
	var buf [FetchLen]byte
	f.Add(append([]byte(nil), EncodeFetch(buf[:], FetchHeader{ObjID: 7, Seg: 3, Nonce: 9, SentAt: 1e18})...))
	f.Add(append([]byte(nil), EncodeFetch(buf[:], FetchHeader{Meta: true})...))
	f.Add([]byte{})
	f.Add([]byte{typeFetch, wireVersion})
	f.Add(bytes.Repeat([]byte{0xff}, FetchLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeFetch(b)
		if err != nil {
			return
		}
		if h.Seg < 0 || h.Nonce < 0 || h.SentAt < 0 {
			t.Fatalf("accepted negative fields: %+v", h)
		}
		out := EncodeFetch(buf[:], h)
		if !bytes.Equal(out, b) {
			t.Fatalf("fetch round-trip mismatch:\n in %x\nout %x", b, out)
		}
	})
}

// FuzzDecodeSegment proves the segment codec never panics, that every
// accepted segment satisfies the documented invariants (consistent
// geometry, exact payload length, verified CRC), and that accepted
// packets re-encode byte-identically.
func FuzzDecodeSegment(f *testing.F) {
	var buf [2048]byte
	f.Add(append([]byte(nil), EncodeSegment(buf[:], SegmentHeader{
		Nonce: 1, SentAtEcho: 2, Arrival: 3, TotalSegs: 4, ObjSize: 4000, Seg: 2,
	}, bytes.Repeat([]byte{0xab}, 1000))...))
	f.Add(append([]byte(nil), EncodeSegment(buf[:], SegmentHeader{
		Meta: true, TotalSegs: 1, ObjSize: 10,
	}, bytes.Repeat([]byte{0x11}, DigestLen))...))
	f.Add(append([]byte(nil), EncodeSegment(buf[:], SegmentHeader{TotalSegs: 1}, nil)...))
	f.Add([]byte{})
	f.Add([]byte{typeSegment, wireVersion})
	f.Add(bytes.Repeat([]byte{0xff}, SegmentHeaderLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, err := DecodeSegment(b)
		if err != nil {
			return
		}
		if h.Nonce < 0 || h.SentAtEcho < 0 || h.Arrival < 0 ||
			h.TotalSegs <= 0 || h.ObjSize < 0 || h.Seg < 0 {
			t.Fatalf("accepted negative/zero fields: %+v", h)
		}
		if len(payload) != len(b)-SegmentHeaderLen {
			t.Fatalf("payload length %d for %d-byte packet", len(payload), len(b))
		}
		if h.Meta && (len(payload) != DigestLen || h.Seg != 0) {
			t.Fatalf("accepted inconsistent meta: %+v len=%d", h, len(payload))
		}
		if !h.Meta && h.Seg >= h.TotalSegs {
			t.Fatalf("accepted seg %d of %d", h.Seg, h.TotalSegs)
		}
		out := make([]byte, len(b))
		EncodeSegment(out, h, payload)
		if !bytes.Equal(out, b) {
			t.Fatalf("segment round-trip mismatch:\n in %x\nout %x", b, out)
		}
	})
}

// FuzzDecodeBusy proves the overload push-back codec never panics and
// that every accepted frame re-encodes byte-identically (fixed-length,
// all header, so the round trip is total).
func FuzzDecodeBusy(f *testing.F) {
	var buf [BusyLen]byte
	f.Add(append([]byte(nil), EncodeBusy(buf[:], BusyPacket{Flow: 9, RetryAfterMillis: 250})...))
	f.Add(append([]byte(nil), EncodeBusy(buf[:], BusyPacket{Flow: 3 | FlowClassScavenger, RetryAfterMillis: MaxBusyRetryMillis, Shed: true})...))
	f.Add([]byte{})
	f.Add([]byte{typeBusy, 1})
	f.Add(bytes.Repeat([]byte{0xff}, BusyLen))
	f.Fuzz(func(t *testing.T, b []byte) {
		bp, err := DecodeBusy(b)
		if err != nil {
			return
		}
		if bp.RetryAfterMillis < 1 || bp.RetryAfterMillis > MaxBusyRetryMillis {
			t.Fatalf("accepted out-of-range retry: %+v", bp)
		}
		out := EncodeBusy(buf[:], bp)
		if !bytes.Equal(out, b) {
			t.Fatalf("busy round-trip mismatch:\n in %x\nout %x", b, out)
		}
	})
}
