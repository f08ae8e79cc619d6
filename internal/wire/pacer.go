package wire

// Pacer is a token bucket measured in bytes. A send loop advances it
// with the controller's current pacing rate, takes tokens per packet,
// and asks how long to sleep when the bucket runs dry. The bucket's
// depth absorbs OS sleep granularity: a loop that oversleeps by a
// millisecond finds the accumulated tokens waiting and emits a train,
// keeping the average rate exact — the same mechanism as Linux's
// fq/pacing with GSO trains (TSO autosizing gives a train about a
// millisecond of the pacing rate), and the real-time analog of the
// simulator's multi-packet pacing events. That only holds while the
// bucket is deeper than the oversleep, and an oversleep is a time, not a
// byte count: the bucket holds Cap bytes or Depth seconds of the pacing
// rate, whichever is more. Cap must be set before first use.
type Pacer struct {
	tokens float64 // bytes available
	last   float64 // clock seconds of the previous advance
	Cap    float64 // least bucket depth, bytes; the whole depth when unpaced
	Depth  float64 // bucket depth in seconds of a finite pacing rate
	inited bool

	// The scheduled-send timeline (TakeStamped).
	sched    float64
	anchored bool
}

// depth is the bytes the bucket holds at a finite rate. Compared by
// hand here and in Advance: the float min/max builtins, which must
// order NaN and −0, more than double Advance's cost.
func (p *Pacer) depth(rate float64) float64 {
	if d := rate * p.Depth; d > p.Cap {
		return d
	}
	return p.Cap
}

// Prime credits a bucket that has never advanced with n bytes, so a new
// flow's first train need not wait for tokens to accrue. Reset grants
// nothing: only a flow that has not sent yet is owed its first train.
func (p *Pacer) Prime(n int) {
	if !p.inited {
		p.tokens = float64(n)
	}
}

// Reset empties the bucket, re-anchors its clock and drops the
// scheduled-send timeline's anchor: whatever idled the flow (an outage,
// a push-back) earns no back-credit and no stale stamps.
func (p *Pacer) Reset(now float64) {
	p.tokens = 0
	p.last = now
	p.inited = true
	p.anchored = false
}

// Advance accrues tokens for the elapsed time at rate bytes/sec. An
// infinite or non-positive rate fills the bucket: pacing is disabled
// and the window (or the app limit) is the only brake.
func (p *Pacer) Advance(now, rate float64) {
	if !p.inited {
		p.last, p.inited = now, true // keeps what Prime credited
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
	if d := p.depth(rate); p.tokens > d {
		p.tokens = d
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

// schedSlack is how far past one bucket depth the scheduled-send
// timeline may trail the clock before it is re-anchored. Steady sending
// keeps the timeline within a bucket depth, so only a genuine stall
// re-anchors; rate changes never do.
const schedSlack = 0.25

// TakeStamped consumes n bytes if available and returns the packet's
// *scheduled* send time: a leaky-bucket timeline that advances by
// exactly n/rate per packet, so the timebase the peer and the
// impairment shim measure against is that of a perfectly paced sender
// no matter how wakes jitter — which is what the controllers' gradient
// regression needs. After an idle the timeline re-anchors at now (no
// back-credit: a catch-up burst never carries stamps from the dead
// time); with pacing disabled the stamp is simply now.
func (p *Pacer) TakeStamped(now, rate float64, n int) (virt float64, ok bool) {
	if !p.Take(n) {
		return 0, false
	}
	finite := rate > 0 && rate <= MaxFiniteRate
	if !finite || !p.anchored || now-p.sched > p.depth(rate)/rate+schedSlack {
		p.sched, p.anchored = now, true
	}
	if !finite {
		return now, true
	}
	virt = p.sched
	p.sched += float64(n) / rate
	return virt, true
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
