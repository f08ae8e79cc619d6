package engine

import (
	"math"
	"runtime"
	"testing"
	"time"

	"pccproteus/internal/engine/enginetest"
	"pccproteus/internal/wire"
)

// A Loopback that refuses its second path returns the error and is
// stopped like any other: Stop ends both engines' loops and the first
// path's relay, and nothing of the Loopback is left running.
func TestLoopbackPathErrorCleansUp(t *testing.T) {
	n0, relays0 := enginetest.DatapathGoroutines()
	lb, err := NewLoopback(nil, Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := lb.Path(wire.ShimConfig{RateMbps: 20, Delay: 0.010, AckDelay: 0.010}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := lb.Path(wire.ShimConfig{RateMbps: math.NaN(), Delay: 0.010, AckDelay: 0.010}); err == nil {
		t.Fatal("a NaN rate was accepted")
	}
	if n, relays := enginetest.DatapathGoroutines(); n != n0+2 || relays != relays0+1 {
		t.Fatalf("%d engine goroutines and %d relays running, want %d and %d", n, relays, n0+2, relays0+1)
	}
	lb.Stop()
	// A loop that has signalled its exit may still be in the dump.
	n, relays := enginetest.DatapathGoroutines()
	for end := time.Now().Add(time.Second); (n != n0 || relays != relays0) && time.Now().Before(end); {
		runtime.Gosched()
		n, relays = enginetest.DatapathGoroutines()
	}
	if n != n0 || relays != relays0 {
		t.Fatalf("after Stop: %d engine goroutines and %d relays, want %d and %d", n, relays, n0, relays0)
	}
}
