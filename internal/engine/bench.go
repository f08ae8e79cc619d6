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
// two shards on in-memory ports that write into each other's inbox,
// stepping the clock by hand. It exercises the full per-packet path —
// pump/emit, codec encode, flow-table dispatch, AckTracker, ack encode,
// ack dispatch, RACK bookkeeping, wheel re-arm — with no syscalls, which
// is exactly the surface the zero-allocation gate covers.
type hotpathHarness struct {
	sndShard, rcvShard *shard
	snd, rcv           *memPort
	f                  *flow
	now                float64
	rcvAddr            netip.AddrPort
}

func newHotpathHarness(packetSize int) *hotpathHarness {
	eng := &Engine{cfg: Config{}.withDefaults(), done: make(chan struct{})}
	h := &hotpathHarness{
		sndShard: newShard(eng, 0),
		rcvShard: newShard(eng, 1),
		rcvAddr:  netip.MustParseAddrPort("127.0.0.1:40002"),
		// Mid-slot: on a boundary, rounding would decide which slot a
		// step's timers land in, and which slot slices grow would drift.
		now: wheelGran / 2,
	}
	clk := wire.VirtualClock(func() float64 { return h.now })
	sndAddr := netip.MustParseAddrPort("127.0.0.1:40001")
	h.snd, h.rcv = newMemPort(h.sndShard, clk), newMemPort(h.rcvShard, clk)
	h.snd.send = func(_ netip.AddrPort, b []byte) { h.rcv.push(sndAddr, b) }
	h.rcv.send = func(_ netip.AddrPort, b []byte) { h.snd.push(h.rcvAddr, b) }
	h.sndShard.attach(h.snd, sndAddr)
	h.rcvShard.attach(h.rcv, h.rcvAddr)
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

// step advances the clock a millisecond and runs each shard's loop until
// it would sleep: the sender's timers fire and its window goes out, the
// receiver acks it, the acks reopen the window — one full round of the
// per-packet hot path. Returns the number of data packets sent.
func (h *hotpathHarness) step() int {
	h.now += 0.001
	sent := h.sndShard.ctr.txPkts.Load()
	h.snd.turn()
	h.rcv.turn()
	h.snd.turn()
	return int(h.sndShard.ctr.txPkts.Load() - sent)
}
