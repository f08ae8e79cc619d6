package main

import (
	"runtime"
	"testing"

	"pccproteus/internal/engine"
)

// TestStartFlowsCapBeforeSpawn is the regression test for flow-cap
// enforcement order: an over-cap request must be rejected before the
// first flow is spawned, not discovered after N goroutine pairs and
// sockets already exist.
func TestStartFlowsCapBeforeSpawn(t *testing.T) {
	spawned := 0
	err := startFlows(11, 10, func(i int) error {
		spawned++
		return nil
	})
	if err == nil {
		t.Fatal("over-cap batch accepted")
	}
	if spawned != 0 {
		t.Fatalf("cap checked after spawn: %d flows started before rejection", spawned)
	}
	// At the cap is fine; zero cap means uncapped.
	if err := startFlows(10, 10, func(int) error { spawned++; return nil }); err != nil || spawned != 10 {
		t.Fatalf("at-cap batch rejected: err=%v spawned=%d", err, spawned)
	}
	if err := startFlows(500, 0, func(int) error { return nil }); err != nil {
		t.Fatalf("uncapped batch rejected: %v", err)
	}
	if err := startFlows(0, 10, func(int) error { return nil }); err == nil {
		t.Fatal("zero flows accepted")
	}
}

// TestFlowCapChurnLeaksNoGoroutines drives the real admission path —
// startFlows over engine.AddFlow — through repeated over-cap
// rejections and checks that a rejected round costs nothing: no
// goroutines, no admitted flows, no engine table slots.
func TestFlowCapChurnLeaksNoGoroutines(t *testing.T) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	dst := eng.Addrs()[0]
	spawn := func(int) error {
		_, err := eng.AddFlow(engine.FlowConfig{Dst: dst, CC: &engine.FixedRateCC{Rate: 1}})
		return err
	}

	runtime.GC()
	base := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		if err := startFlows(4, 3, spawn); err == nil {
			t.Fatal("over-cap round accepted")
		}
	}
	// AddFlow spawns nothing, so there is nothing to wait for.
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("goroutines grew under churn: %d -> %d", base, n)
	}
	if st := eng.Stats(); st.AdmittedPrimary != 0 || st.Flows != 0 {
		t.Fatalf("rejected rounds admitted flows: %+v", st)
	}
}

// TestEngineAddFlowCap checks the engine-level backstop: AddFlow
// rejects once Shards×MaxFlowsPerShard sender flows are admitted, and
// the rejection costs nothing (no shard state, no wire flow ID burn
// beyond the counter).
func TestEngineAddFlowCap(t *testing.T) {
	eng, err := engine.New(engine.Config{Shards: 2, MaxFlowsPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	dst := eng.Addrs()[0]
	for i := 0; i < 4; i++ {
		if _, err := eng.AddFlow(engine.FlowConfig{Dst: dst, CC: &engine.FixedRateCC{Rate: 1}}); err != nil {
			t.Fatalf("flow %d rejected below cap: %v", i, err)
		}
	}
	if _, err := eng.AddFlow(engine.FlowConfig{Dst: dst, CC: &engine.FixedRateCC{Rate: 1}}); err == nil {
		t.Fatal("flow beyond engine cap accepted")
	}
}
