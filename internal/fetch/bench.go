package fetch

import (
	"bytes"
	"math/rand"
	"testing"

	"pccproteus/internal/engine"
	"pccproteus/internal/wire"
)

// RunFetchBench measures the steady-state per-segment fetch path: request
// selection and record bookkeeping in the core, FETCH encode, the store's
// lookup + SEGMENT encode with payload CRC, SEGMENT decode with CRC
// verify, and in-order delivery with the running SHA-256. SetBytes is the
// segment payload, so the report's MB/s column is the single-core goodput
// ceiling of the protocol machinery (no sockets, no pacing).
//
// Exported (rather than a regular Benchmark) for the benchmark harness.
func RunFetchBench(b *testing.B) {
	const objSegs = 512
	store := NewStore(0)
	data := make([]byte, objSegs*DefaultSegSize)
	rand.New(rand.NewSource(9)).Read(data)
	ids, err := store.Add(Source{Name: "bench", R: bytes.NewReader(data), Size: int64(len(data))})
	if err != nil {
		b.Fatal(err)
	}
	objID := ids[0]

	newCore := func() *Core {
		c, err := NewCore(Config{
			// An uncontended controller: rate and window never gate, so the
			// measured cost is the fetch machinery itself.
			ObjID: objID, CC: &engine.FixedRateCC{Rate: 125e6}, SegSize: store.SegSize,
			OnData: func(seg int64, payload []byte) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	core := newCore()
	reqBuf := make([]byte, wire.FetchLen)
	segBuf := make([]byte, wire.MaxDataLen)
	now := 0.0

	b.ReportAllocs()
	b.SetBytes(int64(store.SegSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-5
		req, ok := core.Issue(now, now)
		if !ok {
			b.Fatal("core refused to issue with an uncontended controller")
		}
		req.SentAt = int64(now * 1e9)
		h, err := wire.DecodeFetch(wire.EncodeFetch(reqBuf, req))
		if err != nil {
			b.Fatal(err)
		}
		resp := store.HandleFetch(h, segBuf)
		if resp == nil {
			b.Fatal("store refused a valid request")
		}
		sh, payload, err := wire.DecodeSegment(resp)
		if err != nil {
			b.Fatal(err)
		}
		core.OnResponse(Response{
			Nonce: sh.Nonce, Seg: sh.Seg, Meta: sh.Meta,
			TotalSegs: sh.TotalSegs, ObjSize: sh.ObjSize, Payload: payload,
		}, now, now)
		if core.Done() {
			if !core.Stats().Verified {
				b.Fatal("object failed verification")
			}
			core = newCore()
		}
	}
}
