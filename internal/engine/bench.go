package engine

import (
	"math"
	"net/netip"
	"testing"

	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// FixedRateCC is a minimal controller pinned at a constant pacing
// rate — the measurement load for datapath benchmarks, where
// controller adaptation would only add noise. Win, when set, bounds
// the bytes in flight so an over-offered flow stays ack-clocked
// instead of accumulating an unbounded unacked list.
type FixedRateCC struct {
	Rate float64 // bytes/sec
	Win  float64 // bytes in flight; 0 = unbounded
}

func (c *FixedRateCC) Name() string                                  { return "fixed-rate" }
func (c *FixedRateCC) OnSend(now float64, pkt *transport.SentPacket) {}
func (c *FixedRateCC) OnAck(ack transport.Ack)                       {}
func (c *FixedRateCC) OnLoss(loss transport.Loss)                    {}
func (c *FixedRateCC) PacingRate() float64                           { return c.Rate }

func (c *FixedRateCC) CWnd() float64 {
	if c.Win > 0 {
		return c.Win
	}
	return math.Inf(1)
}

// hotpathHarness wires one sender flow and one receiver flow through
// two socketless shards, shuttling packets in memory. It exercises
// the full per-packet path — pump/emit, codec encode, flow-table
// dispatch, AckTracker, ack encode, ack dispatch, RACK bookkeeping,
// wheel re-arm — with no syscalls, which is exactly the surface the
// zero-allocation gate covers.
type hotpathHarness struct {
	sndShard *shard
	rcvShard *shard
	f        *flow
	now      float64
	sndAddr  netip.AddrPort
	rcvAddr  netip.AddrPort
	carry    [][]byte // reused staging for in-memory packet transfer
}

func newHotpathHarness(packetSize int) *hotpathHarness {
	// BatchSize must exceed any one step's packet output: on a
	// socketless shard, queueTx's batch-full auto-flush would rewind
	// (= drop) the staged packets before step() can hand them over.
	eng := &Engine{cfg: Config{BatchSize: 4096}.withDefaults(), clock: wire.NewClock(), done: make(chan struct{})}
	h := &hotpathHarness{
		sndShard: newShard(eng, 0, nil),
		rcvShard: newShard(eng, 1, nil),
		sndAddr:  netip.MustParseAddrPort("127.0.0.1:40001"),
		rcvAddr:  netip.MustParseAddrPort("127.0.0.1:40002"),
		// Mid-slot: on a boundary, rounding would decide which slot a
		// step's timers land in, and which slot slices grow would drift.
		now: wheelGran / 2,
	}
	// Unbounded pacing (rate above MaxFiniteRate refills the bucket on
	// every Advance) with a window bound: the flow is ack-clocked, so
	// inflight — and with it the book the ack path walks — stays pinned
	// at 64 packets instead of growing without limit.
	h.f = &flow{addr: h.rcvAddr, id: 1, snd: newSenderFlow(FlowConfig{
		CC:         &FixedRateCC{Rate: 1e12, Win: float64(64 * packetSize)},
		Burst:      transport.DefaultBurst,
		PacketSize: packetSize,
	})}
	h.sndShard.insert(h.f)
	h.sndShard.service(h.f, 0) // first service arms the wheel
	return h
}

// RunHotpathBench measures the full in-memory per-packet engine path
// (pump, encode, dispatch, ack tracking, ack processing, wheel
// re-arm) — the allocs/op gate for the zero-allocation claim.
// Exported for the benchmark harness.
func RunHotpathBench(b *testing.B) {
	h := newHotpathHarness(400)
	// Warm past a full wheel revolution so every slot's entry slice has
	// reached steady capacity (2 slots per 1ms step, 512 slots).
	for i := 0; i < 600; i++ {
		h.step()
	}
	b.ReportAllocs()
	b.SetBytes(400)
	b.ResetTimer()
	for n := 0; n < b.N; {
		n += h.step()
	}
}

// step emits up to burst packets, delivers them to the receiver
// shard, and feeds the acks back — one full round of the per-packet
// hot path. Returns the number of data packets cycled.
func (h *hotpathHarness) step() int {
	h.now += 0.001
	// Drive the wheels exactly like the shard loop does: fires re-arm
	// and their entries drain, so slot slices stay bounded. (Calling
	// service directly would leave every re-arm's entry behind.)
	h.sndShard.fireNow = h.now
	h.sndShard.wh.advance(h.now, h.sndShard.fireFn)
	h.rcvShard.fireNow = h.now
	h.rcvShard.wh.advance(h.now, h.rcvShard.fireFn)
	n := len(h.sndShard.txq)
	// Move data packets to the receiver shard: dispatch reads the bytes
	// synchronously and writes only the receiver's arena, so the sender's
	// can be rewound before they are read.
	h.carry = append(h.carry[:0], h.sndShard.txq...)
	h.sndShard.resetTx()
	for _, p := range h.carry {
		h.rcvShard.dispatch(h.sndAddr, p, h.now)
	}
	// Acks flow back into the sender shard.
	h.carry = append(h.carry[:0], h.rcvShard.txq...)
	h.rcvShard.resetTx()
	for _, p := range h.carry {
		h.sndShard.dispatch(h.rcvAddr, p, h.now)
	}
	return n
}
