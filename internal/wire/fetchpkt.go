package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// This file is the codec for the segmented bulk-fetch protocol
// (internal/fetch): a request/response pair layered on the same wire
// conventions as the data/ack pair. A FETCH names one segment of one
// object; the server answers with a SEGMENT carrying that segment's
// bytes. The transfer's congestion control lives entirely at the
// fetcher, which paces FETCH requests so that the *responses* arrive at
// the controller's target rate — receiver-driven transport in the
// style of NDN interest/data exchanges.
//
// Fetch packet (fixed FetchLen bytes):
//
//	off len field
//	0   1   type     (0x46 'F')
//	1   1   version
//	2   1   flags    (bit0 = metadata request: answer with the object's
//	            geometry and whole-object digest instead of a segment)
//	3   8   objID    (FNV-1a 64 of the object name)
//	11  8   segIndex (requested segment; ignored for metadata)
//	19  8   nonce    (monotonic per fetcher, echoed in the response — the
//	            retransmit queue is keyed on nonces, so a re-request of
//	            the same segment is distinguishable from its original)
//	27  8   sentAt   (fetcher-clock wall nanos of the request's
//	            *scheduled* send time under the token-bucket pacer)
//
// Segment packet (SegmentHeaderLen bytes of header + payload). The
// arrival stamp sits at a fixed offset, so the impairment shim's
// StampArrival hook works on segments as on data packets:
//
//	off len field
//	0   1   type     (0x53 'S')
//	1   1   version
//	2   8   nonce    (echoed from the request)
//	10  8   sentAt   (echoed request scheduled-send stamp; with the
//	            arrival stamp this gives the fetcher a per-segment RTT
//	            on its own clock, exactly like the ack path)
//	18  8   arrival  (0 from the server; stamped by the shim)
//	26  1   flags    (bit0 = metadata response: the payload is the
//	            whole-object SHA-256 digest)
//	27  8   objID
//	35  8   totalSegs (object geometry, carried on every response so a
//	            fetcher can start without a completed metadata exchange)
//	43  8   objSize   (object length in bytes)
//	51  8   segIndex
//	59  4   segSize  (payload length; redundant with the datagram
//	            length, cross-checked by the decoder)
//	63  4   crc32c   (Castagnoli CRC of the payload — the per-segment
//	            integrity check; the whole-object SHA-256 from the
//	            metadata response is the end-to-end check)
//	67  ... payload
const (
	typeFetch   = 0x46
	typeSegment = 0x53

	// FetchLen is the exact size of a fetch request packet.
	FetchLen = 35
	// SegmentHeaderLen is the segment-packet header size in bytes.
	SegmentHeaderLen = 67
	// SegSize is the segment payload size, a protocol constant both
	// ends share: a full segment response is exactly one 1500-byte MTU
	// on the wire, which keeps sim and wire byte accounting aligned.
	SegSize = 1500 - SegmentHeaderLen
	// DigestLen is the whole-object digest size (SHA-256).
	DigestLen = 32

	fetchFlagMeta = 0x01
)

// ErrChecksum is returned when a segment's payload fails its CRC — the
// bytes traversed the path but arrived damaged.
var ErrChecksum = errors.New("wire: segment checksum mismatch")

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64 via hash/crc32's SSE4.2/CRC32 paths).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FetchHeader is the decoded form of a fetch request.
type FetchHeader struct {
	ObjID  uint64
	Seg    int64
	Nonce  int64
	SentAt int64 // wall nanos, scheduled send time
	Meta   bool
}

// EncodeFetch writes a fetch request into buf (len >= FetchLen) and
// returns the packet slice.
func EncodeFetch(buf []byte, h FetchHeader) []byte {
	buf[0] = typeFetch
	buf[1] = wireVersion
	buf[2] = 0
	if h.Meta {
		buf[2] = fetchFlagMeta
	}
	binary.BigEndian.PutUint64(buf[3:], h.ObjID)
	binary.BigEndian.PutUint64(buf[11:], uint64(h.Seg))
	binary.BigEndian.PutUint64(buf[19:], uint64(h.Nonce))
	binary.BigEndian.PutUint64(buf[27:], uint64(h.SentAt))
	return buf[:FetchLen]
}

// DecodeFetch parses a fetch request. It returns a nil error only for a
// well-formed request: exact length, correct type and version, no
// undefined flags, and non-negative sequence fields.
func DecodeFetch(b []byte) (FetchHeader, error) {
	if len(b) < FetchLen {
		return FetchHeader{}, ErrTruncated
	}
	if b[0] != typeFetch {
		return FetchHeader{}, ErrBadType
	}
	if b[1] != wireVersion {
		return FetchHeader{}, ErrBadVersion
	}
	if len(b) > FetchLen {
		return FetchHeader{}, ErrOversized
	}
	if b[2]&^fetchFlagMeta != 0 {
		return FetchHeader{}, ErrInconsistent
	}
	h := FetchHeader{
		Meta:   b[2]&fetchFlagMeta != 0,
		ObjID:  binary.BigEndian.Uint64(b[3:]),
		Seg:    int64(binary.BigEndian.Uint64(b[11:])),
		Nonce:  int64(binary.BigEndian.Uint64(b[19:])),
		SentAt: int64(binary.BigEndian.Uint64(b[27:])),
	}
	if h.Seg < 0 || h.Nonce < 0 || h.SentAt < 0 {
		return FetchHeader{}, ErrInconsistent
	}
	return h, nil
}

// SegmentHeader is the decoded header of a segment response. The
// payload is returned separately by DecodeSegment.
type SegmentHeader struct {
	Nonce      int64
	SentAtEcho int64 // wall nanos echoed from the request
	Arrival    int64 // emulated arrival wall nanos; 0 when no shim stamped it
	Meta       bool
	ObjID      uint64
	TotalSegs  int64
	ObjSize    int64
	Seg        int64
}

// EncodeSegment writes a segment response (header + payload + CRC) into
// buf, which must have len >= SegmentHeaderLen+len(payload), and
// returns the packet slice.
func EncodeSegment(buf []byte, h SegmentHeader, payload []byte) []byte {
	buf[0] = typeSegment
	buf[1] = wireVersion
	binary.BigEndian.PutUint64(buf[2:], uint64(h.Nonce))
	binary.BigEndian.PutUint64(buf[10:], uint64(h.SentAtEcho))
	binary.BigEndian.PutUint64(buf[18:], uint64(h.Arrival))
	buf[26] = 0
	if h.Meta {
		buf[26] = fetchFlagMeta
	}
	binary.BigEndian.PutUint64(buf[27:], h.ObjID)
	binary.BigEndian.PutUint64(buf[35:], uint64(h.TotalSegs))
	binary.BigEndian.PutUint64(buf[43:], uint64(h.ObjSize))
	binary.BigEndian.PutUint64(buf[51:], uint64(h.Seg))
	binary.BigEndian.PutUint32(buf[59:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[63:], crc32.Checksum(payload, crcTable))
	copy(buf[SegmentHeaderLen:], payload)
	return buf[:SegmentHeaderLen+len(payload)]
}

// DecodeSegment parses a segment response and returns its header and a
// view of the payload (aliasing b — callers that retain it must copy).
// It returns a nil error only for a well-formed segment: correct type
// and version bytes, no undefined flags, a declared payload length
// matching the datagram, internally consistent geometry, and a payload
// CRC that verifies. ErrChecksum otherwise — counted separately from
// structural corruption because it means the path, not the peer, broke
// the bytes; the header, which passed every structural check, is
// returned with it so the damage can be charged to the fetch it names.
func DecodeSegment(b []byte) (SegmentHeader, []byte, error) {
	if len(b) < SegmentHeaderLen {
		return SegmentHeader{}, nil, ErrTruncated
	}
	if b[0] != typeSegment {
		return SegmentHeader{}, nil, ErrBadType
	}
	if b[1] != wireVersion {
		return SegmentHeader{}, nil, ErrBadVersion
	}
	if len(b) > MaxDataLen {
		return SegmentHeader{}, nil, ErrOversized
	}
	if b[26]&^fetchFlagMeta != 0 {
		return SegmentHeader{}, nil, ErrInconsistent
	}
	h := SegmentHeader{
		Nonce:      int64(binary.BigEndian.Uint64(b[2:])),
		SentAtEcho: int64(binary.BigEndian.Uint64(b[10:])),
		Arrival:    int64(binary.BigEndian.Uint64(b[18:])),
		Meta:       b[26]&fetchFlagMeta != 0,
		ObjID:      binary.BigEndian.Uint64(b[27:]),
		TotalSegs:  int64(binary.BigEndian.Uint64(b[35:])),
		ObjSize:    int64(binary.BigEndian.Uint64(b[43:])),
		Seg:        int64(binary.BigEndian.Uint64(b[51:])),
	}
	segSize := int(binary.BigEndian.Uint32(b[59:]))
	if h.Nonce < 0 || h.SentAtEcho < 0 || h.Arrival < 0 ||
		h.TotalSegs <= 0 || h.ObjSize < 0 || h.Seg < 0 {
		return SegmentHeader{}, nil, ErrInconsistent
	}
	if segSize != len(b)-SegmentHeaderLen {
		return SegmentHeader{}, nil, ErrInconsistent
	}
	if h.Meta {
		if segSize != DigestLen || h.Seg != 0 {
			return SegmentHeader{}, nil, ErrInconsistent
		}
	} else if h.Seg >= h.TotalSegs {
		return SegmentHeader{}, nil, ErrInconsistent
	}
	payload := b[SegmentHeaderLen:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(b[63:]) {
		return h, nil, ErrChecksum
	}
	return h, payload, nil
}
