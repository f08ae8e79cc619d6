package fetch

import (
	"bytes"
	"math/rand"
	"testing"

	"pccproteus/internal/engine"
	"pccproteus/internal/wire"
)

// RunFetchBench measures the steady-state per-segment fetch path
// (engine.RunFetchCoreBench) against a store serving one 512-segment
// object: the store's lookup and SEGMENT encode with payload CRC sit in
// the measured loop.
//
// Exported (rather than a regular Benchmark) for the benchmark harness.
func RunFetchBench(b *testing.B) {
	const objSegs = 512
	store := NewStore()
	data := make([]byte, objSegs*wire.SegSize)
	rand.New(rand.NewSource(9)).Read(data)
	ids, err := store.Add(Source{Name: "bench", R: bytes.NewReader(data), Size: int64(len(data))})
	if err != nil {
		b.Fatal(err)
	}
	engine.RunFetchCoreBench(b, store.HandleFetch, ids[0])
}
