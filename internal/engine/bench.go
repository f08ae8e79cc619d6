package engine

import (
	"net/netip"
	"testing"

	"pccproteus/internal/cc/fixedrate"
	"pccproteus/internal/wire"
)

// FixedRateCC is fixedrate.Controller, the measurement load for datapath
// benchmarks, where controller adaptation would only add noise.
type FixedRateCC = fixedrate.Controller

// scavFixedRate is FixedRateCC under a scavenger's name: the "-s" suffix
// makes overload.ClassOf class its flows scavengers. It is the scavenger
// load of RunOverload and of the overload tests.
type scavFixedRate struct{ FixedRateCC }

// Name implements transport.Controller.
func (*scavFixedRate) Name() string { return "fixedrate-s" }

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
		// step's timers land in, and the steps would drift between them.
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
	// Warm until the record ring and the SACK scratch have grown to the
	// flow's window; the measured steps then allocate nothing.
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
	sent := h.sndShard.st.TxPkts
	h.snd.turn()
	h.rcv.turn()
	h.snd.turn()
	return int(h.sndShard.st.TxPkts - sent)
}

// RunFetchCoreBench measures the steady-state per-segment fetch path
// against serve, a stateless server (Config.OnFetch) of object objID:
// request selection and record bookkeeping in the fetch flow, FETCH
// encode and decode, serve's SEGMENT encode, SEGMENT decode with CRC
// verify, and in-order delivery with the running SHA-256. SetBytes is
// the segment payload, so the report's MB/s column is the single-core
// goodput ceiling of the protocol machinery (no sockets, no pacing).
// Exported for the benchmark harness.
func RunFetchCoreBench(b *testing.B, serve func(wire.FetchHeader, []byte) []byte, objID uint64) {
	newFetch := func() *FetchFlow {
		ff, err := newFetchFlow(FetchConfig{
			// An uncontended controller: rate and window never gate, so the
			// measured cost is the fetch machinery itself.
			ObjID: objID, CC: &FixedRateCC{Rate: 125e6},
			OnData: func(seg int64, payload []byte) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		return ff
	}
	ff := newFetch()
	reqBuf := make([]byte, wire.FetchLen)
	segBuf := make([]byte, maxPacket)
	now := 0.0

	b.ReportAllocs()
	b.SetBytes(wire.SegSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-5
		req, ok := ff.issue(now, now)
		if !ok {
			b.Fatal("fetch refused to issue with an uncontended controller")
		}
		req.SentAt = int64(now * 1e9)
		h, err := wire.DecodeFetch(wire.EncodeFetch(reqBuf, req))
		if err != nil {
			b.Fatal(err)
		}
		resp := serve(h, segBuf)
		if resp == nil {
			b.Fatal("server refused a valid request")
		}
		sh, payload, err := wire.DecodeSegment(resp)
		if err != nil {
			b.Fatal(err)
		}
		ff.onResponse(sh, payload, now, now)
		if ff.complete() {
			if !ff.verified {
				b.Fatal("object failed verification")
			}
			ff = newFetch()
		}
	}
}
