package wire

// Pacer is a token bucket measured in bytes. A send loop advances it
// with the controller's current pacing rate, takes tokens per packet,
// and asks how long to sleep when the bucket runs dry. The burst
// capacity absorbs OS sleep granularity: a loop that oversleeps by a
// millisecond finds the accumulated tokens waiting and emits a train,
// keeping the average rate exact — the same mechanism as Linux's
// fq/pacing with GSO trains, and the real-time analog of the
// simulator's multi-packet pacing events. Cap must be set before first
// use.
type Pacer struct {
	tokens float64 // bytes available
	last   float64 // clock seconds of the previous advance
	Cap    float64 // max accumulated bytes
	inited bool
}

// Reset empties the bucket and re-anchors its clock.
func (p *Pacer) Reset(now float64) {
	p.tokens = 0
	p.last = now
	p.inited = true
}

// Advance accrues tokens for the elapsed time at rate bytes/sec. An
// infinite or non-positive rate fills the bucket: pacing is disabled
// and the window (or the app limit) is the only brake.
func (p *Pacer) Advance(now, rate float64) {
	if !p.inited {
		p.Reset(now)
	}
	dt := now - p.last
	if dt < 0 {
		dt = 0
	}
	p.last = now
	if rate <= 0 || rate > MaxFiniteRate {
		p.tokens = p.Cap
		return
	}
	p.tokens += dt * rate
	if p.tokens > p.Cap {
		p.tokens = p.Cap
	}
}

// Take consumes n bytes if available.
func (p *Pacer) Take(n int) bool {
	if p.tokens < float64(n) {
		return false
	}
	p.tokens -= float64(n)
	return true
}

// Delay returns the seconds until n bytes of tokens will have accrued
// at rate bytes/sec (0 when they already have).
func (p *Pacer) Delay(n int, rate float64) float64 {
	deficit := float64(n) - p.tokens
	if deficit <= 0 {
		return 0
	}
	if rate <= 0 || rate > MaxFiniteRate {
		return 0
	}
	return deficit / rate
}

// MaxFiniteRate is the bytes/sec above which pacing is treated as
// disabled (math.Inf would also work, but an explicit ceiling keeps
// the arithmetic finite). 125e9 B/s = 1 Tbps.
const MaxFiniteRate = 125e9
