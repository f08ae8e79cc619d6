package engine

import (
	"math/rand"
	"testing"
	"time"

	"pccproteus/internal/core"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// soakController builds stock Proteus-S controllers. Each flow gets its
// own rand.Rand — controllers run on shard goroutines and the shared
// global source would race.
func soakController(seed int64) func(i int) transport.Controller {
	return func(i int) transport.Controller {
		return core.NewProteusS(rand.New(rand.NewSource(wire.MixSeed(seed, int64(i)))))
	}
}

func runSoak(t *testing.T, flows int) {
	t.Helper()
	const limit = 4 << 10
	res, err := RunLoopback(LoopbackConfig{
		Flows:            flows,
		SenderShards:     2,
		RecvShards:       2,
		PacketSize:       400,
		LimitBytes:       limit,
		Duration:         120 * time.Second,
		Controller:       soakController(42),
		MaxFlowsPerShard: flows, // all receiver flows fit without eviction
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak %d flows: completed=%d elapsed=%v recv=%+v", flows, res.Completed, res.Elapsed, res.Recv)
	// Allow a sliver of stragglers: scavenger flows back off to the
	// rate floor under self-induced congestion, and the last few can
	// straddle the deadline.
	if min := flows * 99 / 100; res.Completed < min {
		t.Fatalf("completed %d/%d flows (need ≥%d)", res.Completed, flows, min)
	}
	if res.Recv.Evicted != 0 {
		t.Fatalf("receiver evicted %d flows during soak", res.Recv.Evicted)
	}
}

// TestSoak1k is the race-friendly soak: small enough for the race
// detector's overhead, large enough to exercise cross-shard admission,
// wheel pressure, and the batched socket path under real contention.
func TestSoak1k(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	runSoak(t, 1000)
}

// TestSoak10k runs ten thousand simultaneous Proteus-S flows across
// two sender and two receiver shards — the tentpole scale target.
func TestSoak10k(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	if raceEnabled {
		t.Skip("10k soak skipped under the race detector; TestSoak1k covers the racing surface")
	}
	runSoak(t, 10000)
}
