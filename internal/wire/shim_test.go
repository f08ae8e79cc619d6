package wire

import (
	"net"
	"testing"
	"time"
)

// TestShimCapacityIntegralAndUpdate drives the shim's time-varying
// capacity accounting directly: the capacity integral must track rate
// changes applied through Update.
func TestShimCapacityIntegralAndUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9} // discard
	sh, err := NewShim(ShimConfig{RateMbps: 10, QueueBytes: 1 << 16}, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Start(); err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()
	time.Sleep(300 * time.Millisecond)
	sh.Update(ShimUpdate{RateMbps: 20})
	time.Sleep(300 * time.Millisecond)
	got := sh.CapacityBytes()
	want := (10*0.3 + 20*0.3) * 1e6 / 8
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("capacity integral %.0f want ≈%.0f", got, want)
	}
	// Partial updates: zero rate keeps it, negative loss keeps it.
	sh.Update(ShimUpdate{LossProb: 0.5})
	sh.mu.Lock()
	rate, loss := sh.rate, sh.lossProb
	sh.mu.Unlock()
	if rate != 20e6/8 {
		t.Fatalf("rate changed by loss-only update: %v", rate)
	}
	if loss != 0.5 {
		t.Fatalf("loss %v want 0.5", loss)
	}
	sh.Update(ShimUpdate{LossProb: -1, ExtraDelay: 0.030})
	sh.mu.Lock()
	loss, delay := sh.lossProb, sh.delay
	sh.mu.Unlock()
	if loss != 0.5 {
		t.Fatalf("negative LossProb overwrote loss: %v", loss)
	}
	if delay != 0.030 {
		t.Fatalf("delay %v want base 0 + 0.030", delay)
	}
}

func TestShimRejectsBadConfig(t *testing.T) {
	dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	if _, err := NewShim(ShimConfig{RateMbps: 0, QueueBytes: 100}, dst); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewShim(ShimConfig{RateMbps: 10, QueueBytes: 0}, dst); err == nil {
		t.Fatal("zero queue accepted")
	}
}
