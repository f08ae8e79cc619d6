package wire

import (
	"net"
	"testing"
)

func TestShimRejectsBadConfig(t *testing.T) {
	dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	if _, err := NewShim(ShimConfig{RateMbps: 0, QueueBytes: 100}, dst); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewShim(ShimConfig{RateMbps: 10, QueueBytes: 0}, dst); err == nil {
		t.Fatal("zero queue accepted")
	}
}
