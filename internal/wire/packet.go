package wire

import (
	"encoding/binary"
	"errors"
)

// Codec errors. Decoders return these instead of panicking or silently
// accepting garbage: a corrupted datagram off the network must be a
// countable error, never a crash and never a bogus ack view.
var (
	// ErrTruncated is returned for input shorter than its header (or,
	// for acks, shorter than its declared SACK blocks) requires.
	ErrTruncated = errors.New("wire: truncated packet")
	// ErrOversized is returned for input longer than the format allows.
	ErrOversized = errors.New("wire: oversized packet")
	// ErrBadType is returned when the type byte is not the expected one.
	ErrBadType = errors.New("wire: wrong packet type")
	// ErrBadVersion is returned for an unknown wire version.
	ErrBadVersion = errors.New("wire: unknown wire version")
	// ErrInconsistent is returned when the fields decode but contradict
	// each other — e.g. SACK ranges below the cumulative ack, empty or
	// overlapping blocks, or negative sequence numbers.
	ErrInconsistent = errors.New("wire: inconsistent packet fields")
)

// Wire format. All integers are big-endian.
//
// Data packet (DataHeaderLen bytes of header, padded with payload to the
// configured packet size so serialization cost on the emulated
// bottleneck matches the sim's MTU accounting). The flow ID lets many
// flows multiplex one socket, where source address alone cannot demux:
//
//	off len field
//	0   1   type   (0x50 'P')
//	1   1   version (2), high bit = push
//	2   4   flow
//	6   8   seq
//	14  8   sentAt  (sender-clock nanos of the packet's *scheduled*
//	            send time under the token-bucket pacer — at most one
//	            bucket's worth behind the actual emission instant)
//	22  8   arrival (wall nanos; 0 from the sender, stamped by the
//	            impairment shim with the packet's emulated arrival
//	            time so endpoints measure the emulated path's timing,
//	            not the host scheduler's delivery jitter)
//
// The push bit marks the packet that completes a finite transfer: the
// receiver cannot otherwise tell it from one more mid-flow packet, and
// would hold its ack for the coalescing count or the delayed-ack timer.
// Only the sender of a finite flow sets it, on the packet that launches
// the transfer's last byte (a replacement for a lost packet launches it
// again); the receiver acks a pushed packet at once. It must not mark a
// train that merely ends window-gated — a one-packet window would then
// force an ack per packet and undo coalescing. Every other bit of the
// version byte is reserved and rejected.
//
// Ack packet (AckFixedLen + 16 bytes per SACK block):
//
//	off len field
//	0   1   type   (0x42 'B')
//	1   1   number of SACK blocks (0..MaxSackBlocks)
//	2   4   flow    (echoed from the data packet)
//	6   8   seq     (the data packet that triggered this ack)
//	14  8   sentAt  (echoed from that data packet)
//	22  8   recvAt  (wall nanos at the receiver)
//	30  8   cumAck  (every seq < cumAck has been received)
//	38  16n SACK blocks: [start,end) pairs above cumAck, highest last
//
// Busy packet (type 0x59 'Y', BusyLen bytes, fixed length): the
// receiver-side overload control frame. Sent instead of creating (or
// while dropping) flow state when the receiving host is under
// pressure, so a refused sender backs off with jittered exponential
// retry instead of hammering a socket that cannot serve it:
//
//	off len field
//	0   1   type   (0x59 'Y')
//	1   1   version (1)
//	2   4   flow    (the flow being refused or shed)
//	6   4   retry-after hint, milliseconds (1..MaxBusyRetryMillis)
//	10  1   flags   (bit 0: shed — existing flow state was dropped,
//	            not just a new admission refused)
const (
	typeData = 0x50
	typeAck  = 0x42
	typeBusy = 0x59

	// wireVersion is the version byte of FETCH, SEGMENT and BUSY frames;
	// data frames carry dataVersion.
	wireVersion = 1
	dataVersion = 2
	// dataFlagPush is the one flag bit of the data header's version byte.
	dataFlagPush = 0x80

	// DataHeaderLen is the data-packet header size in bytes.
	DataHeaderLen = 30
	// DataHeaderLenV2 is DataHeaderLen under its former name.
	DataHeaderLenV2 = DataHeaderLen
	// AckFixedLen is the fixed portion of an ack packet.
	AckFixedLen = 38
	// MaxSackBlocks bounds the SACK blocks carried per ack.
	MaxSackBlocks = 4
	// MaxAckLen is the largest possible ack packet.
	MaxAckLen = AckFixedLen + 16*MaxSackBlocks
	// MaxDataLen is the largest acceptable data packet: the maximum
	// UDP payload over IPv4 (65535 − 20 IP − 8 UDP).
	MaxDataLen = 65507
	// BusyLen is the exact length of a busy (overload push-back) packet.
	BusyLen = 11
	// MaxBusyRetryMillis bounds the retry-after hint a busy packet may
	// carry (one minute): anything larger is a corrupt or hostile frame,
	// not a plausible overload horizon.
	MaxBusyRetryMillis = 60_000
)

// FlowClassScavenger is the flow-ID class bit: the engine sets the top
// bit of the 32-bit wire flow ID on scavenger-class flows, so the
// *receiving* host can apply the paper's utility ordering under its own
// overload — shed scavengers first — without any extra header bytes.
// Engine flow allocation counts up from 1, so the bit is unambiguous
// until 2³¹ flows.
const FlowClassScavenger uint32 = 1 << 31

// ScavengerID reports whether a wire flow ID carries the scavenger
// class bit.
func ScavengerID(id uint32) bool { return id&FlowClassScavenger != 0 }

// DataHeader is the decoded header of a data packet.
type DataHeader struct {
	Seq     int64
	SentAt  int64  // wall nanos
	Arrival int64  // emulated arrival wall nanos; 0 when no shim stamped it
	Flow    uint32 // engine flow ID
	Push    bool   // last packet of a finite transfer, ack now
}

// EncodeData writes a data packet of exactly size bytes into buf
// (which must have len >= size >= DataHeaderLen) and returns the
// packet slice. Bytes past the header are left as-is: they are
// padding, and reusing the buffer avoids per-packet clearing cost.
func EncodeData(buf []byte, h DataHeader, size int) []byte {
	buf[0] = typeData
	buf[1] = dataVersion
	if h.Push {
		buf[1] |= dataFlagPush
	}
	binary.BigEndian.PutUint32(buf[2:], h.Flow)
	binary.BigEndian.PutUint64(buf[6:], uint64(h.Seq))
	binary.BigEndian.PutUint64(buf[14:], uint64(h.SentAt))
	binary.BigEndian.PutUint64(buf[22:], uint64(h.Arrival))
	return buf[:size]
}

// StampArrival rewrites the arrival field of an encoded data or
// segment packet in place — the impairment shim's hook. It reports
// false when b is neither.
func StampArrival(b []byte, nanos int64) bool {
	switch {
	case len(b) >= DataHeaderLen && b[0] == typeData && b[1]&^dataFlagPush == dataVersion:
		binary.BigEndian.PutUint64(b[22:], uint64(nanos))
		return true
	case len(b) >= SegmentHeaderLen && b[0] == typeSegment && b[1] == wireVersion:
		binary.BigEndian.PutUint64(b[18:], uint64(nanos))
		return true
	}
	return false
}

// DecodeData parses a data packet. It returns a nil error only for a
// well-formed data packet: correct type and version bytes, a length
// within [header, MaxDataLen], and non-negative stamps.
func DecodeData(b []byte) (h DataHeader, err error) {
	if len(b) < DataHeaderLen {
		return h, ErrTruncated
	}
	if b[0] != typeData {
		return h, ErrBadType
	}
	if len(b) > MaxDataLen {
		return h, ErrOversized
	}
	if b[1]&^dataFlagPush != dataVersion {
		return h, ErrBadVersion
	}
	// Decoded field by field into the result: DataHeader has more fields
	// than the compiler keeps in registers, and building it as a value
	// to copy out costs the per-packet path three times as much.
	h.Push = b[1]&dataFlagPush != 0
	h.Flow = binary.BigEndian.Uint32(b[2:])
	h.Seq = int64(binary.BigEndian.Uint64(b[6:]))
	h.SentAt = int64(binary.BigEndian.Uint64(b[14:]))
	h.Arrival = int64(binary.BigEndian.Uint64(b[22:]))
	if h.Seq < 0 || h.SentAt < 0 || h.Arrival < 0 {
		return DataHeader{}, ErrInconsistent
	}
	return h, nil
}

// SackBlock is one contiguous received range [Start, End).
type SackBlock struct {
	Start, End int64
}

// AckPacket is the decoded form of an ack. Blocks is reused across
// decodes of the same AckPacket value to keep the receive loop
// allocation-free.
type AckPacket struct {
	Seq        int64 // triggering data seq
	SentAtEcho int64 // wall nanos echoed from the data packet
	RecvAt     int64 // wall nanos at the receiver
	CumAck     int64
	Flow       uint32 // engine flow ID echoed from the data packet
	Blocks     []SackBlock
}

// Encode writes the ack into buf (len >= MaxAckLen) and returns the
// packet slice. At most MaxSackBlocks blocks are written; when more
// are present the highest blocks win, because the sender's RACK loss
// detection keys off the highest SACKed sequence.
func (a *AckPacket) Encode(buf []byte) []byte {
	blocks := a.Blocks
	if len(blocks) > MaxSackBlocks {
		blocks = blocks[len(blocks)-MaxSackBlocks:]
	}
	buf[0] = typeAck
	buf[1] = byte(len(blocks))
	binary.BigEndian.PutUint32(buf[2:], a.Flow)
	binary.BigEndian.PutUint64(buf[6:], uint64(a.Seq))
	binary.BigEndian.PutUint64(buf[14:], uint64(a.SentAtEcho))
	binary.BigEndian.PutUint64(buf[22:], uint64(a.RecvAt))
	binary.BigEndian.PutUint64(buf[30:], uint64(a.CumAck))
	off := AckFixedLen
	for _, bl := range blocks {
		binary.BigEndian.PutUint64(buf[off:], uint64(bl.Start))
		binary.BigEndian.PutUint64(buf[off+8:], uint64(bl.End))
		off += 16
	}
	return buf[:off]
}

// DecodeAck parses an ack packet into a, reusing a.Blocks. It returns a
// nil error only for a well-formed ack: exact length for the declared
// block count, non-negative sequence fields, and SACK blocks that are
// non-empty, strictly ascending, non-overlapping, and entirely above
// the cumulative ack. A malformed ack leaves a with zero blocks and
// flow ID so a caller that ignores the error cannot act on stale
// ranges from a previous decode.
func DecodeAck(b []byte, a *AckPacket) error {
	a.Blocks = a.Blocks[:0]
	a.Flow = 0
	if len(b) < AckFixedLen {
		return ErrTruncated
	}
	if b[0] != typeAck {
		return ErrBadType
	}
	n := int(b[1])
	if n > MaxSackBlocks {
		return ErrInconsistent
	}
	if len(b) < AckFixedLen+16*n {
		return ErrTruncated
	}
	if len(b) > AckFixedLen+16*n {
		return ErrOversized
	}
	a.Seq = int64(binary.BigEndian.Uint64(b[6:]))
	a.SentAtEcho = int64(binary.BigEndian.Uint64(b[14:]))
	a.RecvAt = int64(binary.BigEndian.Uint64(b[22:]))
	a.CumAck = int64(binary.BigEndian.Uint64(b[30:]))
	if a.Seq < 0 || a.SentAtEcho < 0 || a.RecvAt < 0 || a.CumAck < 0 {
		return ErrInconsistent
	}
	off := AckFixedLen
	prevEnd := a.CumAck
	for i := 0; i < n; i++ {
		bl := SackBlock{
			Start: int64(binary.BigEndian.Uint64(b[off:])),
			End:   int64(binary.BigEndian.Uint64(b[off+8:])),
		}
		if bl.Start >= bl.End || bl.Start < prevEnd {
			a.Blocks = a.Blocks[:0]
			return ErrInconsistent
		}
		prevEnd = bl.End
		a.Blocks = append(a.Blocks, bl)
		off += 16
	}
	a.Flow = binary.BigEndian.Uint32(b[2:])
	return nil
}

// Covers reports whether seq falls in one of the ack's SACK blocks.
func (a *AckPacket) Covers(seq int64) bool {
	for _, bl := range a.Blocks {
		if seq >= bl.Start && seq < bl.End {
			return true
		}
	}
	return false
}

// BusyPacket is the decoded form of an overload push-back frame.
type BusyPacket struct {
	// Flow is the wire flow ID being refused or shed (class bit intact).
	Flow uint32
	// RetryAfterMillis is the receiver's back-off hint; the sender
	// treats it as the base of a jittered exponential schedule.
	RetryAfterMillis uint32
	// Shed marks that existing flow state was dropped (not merely a new
	// admission refused), so the sender should also expect its
	// in-flight window to die.
	Shed bool
}

const busyFlagShed = 0x01

// EncodeBusy writes a busy packet into buf (len >= BusyLen) and
// returns the packet slice. The retry hint is clamped into
// [1, MaxBusyRetryMillis] so an encoded frame is always decodable.
func EncodeBusy(buf []byte, bp BusyPacket) []byte {
	retry := bp.RetryAfterMillis
	if retry < 1 {
		retry = 1
	}
	if retry > MaxBusyRetryMillis {
		retry = MaxBusyRetryMillis
	}
	buf[0] = typeBusy
	buf[1] = wireVersion
	binary.BigEndian.PutUint32(buf[2:], bp.Flow)
	binary.BigEndian.PutUint32(buf[6:], retry)
	flags := byte(0)
	if bp.Shed {
		flags |= busyFlagShed
	}
	buf[10] = flags
	return buf[:BusyLen]
}

// DecodeBusy parses a busy packet. It returns a nil error only for a
// well-formed frame: exact length, known type/version, a retry hint in
// [1, MaxBusyRetryMillis], and no unknown flag bits — an overload
// frame is a demand to stop sending, so a corrupt one must be
// countable garbage, never an accidental flow pause.
func DecodeBusy(b []byte) (BusyPacket, error) {
	if len(b) < BusyLen {
		return BusyPacket{}, ErrTruncated
	}
	if b[0] != typeBusy {
		return BusyPacket{}, ErrBadType
	}
	if len(b) > BusyLen {
		return BusyPacket{}, ErrOversized
	}
	if b[1] != wireVersion {
		return BusyPacket{}, ErrBadVersion
	}
	retry := binary.BigEndian.Uint32(b[6:])
	if retry < 1 || retry > MaxBusyRetryMillis {
		return BusyPacket{}, ErrInconsistent
	}
	if b[10]&^busyFlagShed != 0 {
		return BusyPacket{}, ErrInconsistent
	}
	return BusyPacket{
		Flow:             binary.BigEndian.Uint32(b[2:]),
		RetryAfterMillis: retry,
		Shed:             b[10]&busyFlagShed != 0,
	}, nil
}

// PacketType classifies a raw datagram for the shim's proxy loop
// without a full decode: 'P' for data, 'A' for acks, 'F' for fetch
// requests, 'S' for segments, 'Y' for busy (overload push-back), 0 for
// junk.
func PacketType(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	switch b[0] {
	case typeData, typeFetch, typeSegment, typeBusy:
		return b[0]
	case typeAck:
		return 'A'
	}
	return 0
}
