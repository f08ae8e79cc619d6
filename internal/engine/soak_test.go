package engine

import (
	"math/rand"
	"testing"
	"time"

	"pccproteus/internal/core"
	"pccproteus/internal/transport"
	"pccproteus/internal/wire"
)

// soakControllers builds stock Proteus-S controllers. Each flow gets its
// own rand.Rand — controllers run on shard goroutines and the shared
// global source would race.
func soakControllers(seed int64, flows int) []transport.Controller {
	cc := make([]transport.Controller, flows)
	for i := range cc {
		cc[i] = core.NewProteusS(rand.New(rand.NewSource(wire.MixSeed(seed, int64(i)))))
	}
	return cc
}

func runSoak(t *testing.T, flows int) {
	t.Helper()
	start := time.Now()
	_, completed, _, recv := loopbackFlows(t, Config{Shards: 2},
		Config{Shards: 2, MaxFlowsPerShard: flows}, // all receiver flows fit without eviction
		FlowConfig{PacketSize: 400, Limit: 4 << 10}, soakControllers(42, flows), 120*time.Second)
	t.Logf("soak %d flows: completed=%d elapsed=%v recv=%+v", flows, completed, time.Since(start), recv)
	// Allow a sliver of stragglers: scavenger flows back off to the
	// rate floor under self-induced congestion, and the last few can
	// straddle the deadline.
	if min := flows * 99 / 100; completed < min {
		t.Fatalf("completed %d/%d flows (need ≥%d)", completed, flows, min)
	}
	if recv.Evicted != 0 {
		t.Fatalf("receiver evicted %d flows during soak", recv.Evicted)
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
