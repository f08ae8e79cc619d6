package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestFetchPacketRoundtrip(t *testing.T) {
	var buf [FetchLen]byte
	cases := []FetchHeader{
		{},
		{ObjID: 0xdeadbeefcafef00d, Seg: 42, Nonce: 7, SentAt: 1_700_000_000_000_000_000},
		{ObjID: 1, Meta: true, Nonce: 999, SentAt: 5},
		{ObjID: ^uint64(0), Seg: 1<<62 - 1, Nonce: 1<<62 - 1, SentAt: 1<<62 - 1},
	}
	for _, h := range cases {
		pkt := EncodeFetch(buf[:], h)
		if len(pkt) != FetchLen {
			t.Fatalf("encoded length %d", len(pkt))
		}
		got, err := DecodeFetch(pkt)
		if err != nil {
			t.Fatalf("decode %+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("roundtrip mismatch: sent %+v got %+v", h, got)
		}
	}
}

func TestDecodeFetchRejectsMalformed(t *testing.T) {
	var buf [FetchLen + 8]byte
	good := EncodeFetch(buf[:], FetchHeader{ObjID: 9, Seg: 3, Nonce: 11, SentAt: 13})

	check := func(name string, b []byte, want error) {
		t.Helper()
		if _, err := DecodeFetch(b); !errors.Is(err, want) {
			t.Fatalf("%s: err=%v want %v", name, err, want)
		}
	}
	check("empty", nil, ErrTruncated)
	check("truncated", good[:FetchLen-1], ErrTruncated)
	check("oversized", buf[:FetchLen+1], ErrOversized)

	mut := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	check("bad type", mut(func(b []byte) { b[0] = typeData }), ErrBadType)
	check("bad version", mut(func(b []byte) { b[1] = wireVersion + 1 }), ErrBadVersion)
	check("undefined flag", mut(func(b []byte) { b[2] = 0x80 }), ErrInconsistent)
	check("negative seg", mut(func(b []byte) { b[3+8] = 0x80 }), ErrInconsistent)
	check("negative nonce", mut(func(b []byte) { b[19] = 0x80 }), ErrInconsistent)
	check("negative stamp", mut(func(b []byte) { b[27] = 0x80 }), ErrInconsistent)
}

func TestSegmentPacketRoundtrip(t *testing.T) {
	var buf [MaxDataLen]byte
	payload := bytes.Repeat([]byte{0xa5, 0x5a, 0x01}, 400)
	h := SegmentHeader{
		Nonce: 77, SentAtEcho: 123456789, Arrival: 987654321,
		ObjID: 0x0123456789abcdef, TotalSegs: 100, ObjSize: 100 * 1200, Seg: 42,
	}
	pkt := EncodeSegment(buf[:], h, payload)
	if len(pkt) != SegmentHeaderLen+len(payload) {
		t.Fatalf("encoded length %d", len(pkt))
	}
	got, p, err := DecodeSegment(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header mismatch: sent %+v got %+v", h, got)
	}
	if !bytes.Equal(p, payload) {
		t.Fatalf("payload mismatch")
	}
	// StampArrival must rewrite the arrival slot of a segment as it does
	// for data.
	StampArrival(pkt, 42424242)
	got2, _, err := DecodeSegment(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Arrival != 42424242 {
		t.Fatalf("StampArrival wrote %d", got2.Arrival)
	}
}

func TestSegmentMetaRoundtrip(t *testing.T) {
	var buf [1500]byte
	digest := bytes.Repeat([]byte{0xcd}, DigestLen)
	h := SegmentHeader{Nonce: 5, Meta: true, ObjID: 3, TotalSegs: 9, ObjSize: 8 * 1433}
	pkt := EncodeSegment(buf[:], h, digest)
	got, p, err := DecodeSegment(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Meta || !bytes.Equal(p, digest) {
		t.Fatalf("meta roundtrip: %+v", got)
	}
}

func TestDecodeSegmentRejectsMalformed(t *testing.T) {
	var buf [1500]byte
	payload := bytes.Repeat([]byte{7}, 256)
	good := EncodeSegment(buf[:], SegmentHeader{
		Nonce: 1, TotalSegs: 10, ObjSize: 2560, Seg: 4,
	}, payload)

	check := func(name string, b []byte, want error) {
		t.Helper()
		if _, _, err := DecodeSegment(b); !errors.Is(err, want) {
			t.Fatalf("%s: err=%v want %v", name, err, want)
		}
	}
	mut := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	check("empty", nil, ErrTruncated)
	check("truncated header", good[:SegmentHeaderLen-1], ErrTruncated)
	check("bad type", mut(func(b []byte) { b[0] = typeAck }), ErrBadType)
	check("bad version", mut(func(b []byte) { b[1] = 0 }), ErrBadVersion)
	check("undefined flag", mut(func(b []byte) { b[26] = 0x02 }), ErrInconsistent)
	check("zero totalSegs", mut(func(b []byte) {
		binary.BigEndian.PutUint64(b[35:], 0)
	}), ErrInconsistent)
	check("seg past geometry", mut(func(b []byte) {
		binary.BigEndian.PutUint64(b[51:], 10)
	}), ErrInconsistent)
	check("length mismatch", good[:len(good)-1], ErrInconsistent)
	check("flipped payload bit", mut(func(b []byte) {
		b[SegmentHeaderLen] ^= 0x01
	}), ErrChecksum)
	check("flipped crc", mut(func(b []byte) { b[63] ^= 0x01 }), ErrChecksum)

	// Meta responses must carry exactly a digest for segment zero.
	meta := EncodeSegment(buf[:], SegmentHeader{Meta: true, TotalSegs: 1, ObjSize: 1},
		bytes.Repeat([]byte{1}, DigestLen))
	if _, _, err := DecodeSegment(meta); err != nil {
		t.Fatalf("well-formed meta rejected: %v", err)
	}
	badMeta := EncodeSegment(buf[:], SegmentHeader{Meta: true, TotalSegs: 1, ObjSize: 1},
		bytes.Repeat([]byte{1}, DigestLen-1))
	check("short meta digest", badMeta, ErrInconsistent)
}
