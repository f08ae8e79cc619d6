// Package wire is the vocabulary of the real-network datapath: the
// packet formats, pacing arithmetic, receive-side sequence tracking,
// clock and loopback shim that internal/engine (the one code path that
// puts a congestion-controlled flow on a UDP socket) and internal/fetch
// are built from. The controller code is byte-for-byte identical between
// the simulated transport and the engine, and an engine runs as well on
// an in-memory network in virtual time (engine.SimNet) as on sockets, so
// matched scenarios are cross-validated on one link model (see
// exp.WireParity and `proteusbench -wire`).
//
// The pieces:
//
//   - compact binary packet formats (packet.go, fetchpkt.go): data
//     packets carry a sequence number, a flow ID and a send timestamp;
//     acks carry a cumulative ack, up to four SACK-style blocks, and
//     echoed timestamps so the sender computes per-packet RTT and
//     one-way delay without clock agreement beyond the host's own; BUSY
//     frames push back under overload; FETCH/SEGMENT frames carry the
//     bulk-transfer protocol. Every decoder is strict and fuzzed.
//
//   - a token-bucket pacer (pacer.go) that converts a controller's
//     target rate into spaced multi-packet trains, absorbing OS timer
//     granularity the same way Linux pacing offloads do.
//
//   - an ack tracker (acktracker.go): cumulative ack plus sorted,
//     bounded SACK ranges — the receive-side state of one flow.
//
//   - an impairment shim (shim.go): an in-process UDP proxy that
//     emulates a static bottleneck (serialization at a configurable
//     rate, a tail-drop byte queue, propagation delay, seeded jitter and
//     random loss) on the loopback path, so `proteusd demo`, the -shim
//     flags and the fetch benchmark run on any machine without root or
//     tc/netem privileges.
//
//   - a clock (this file) mapping the host's monotonic clock — or a
//     simulator's — onto the float64-seconds timeline controllers
//     expect, and a pooled packet buffer (bufpool.go).
package wire

import "time"

// Clock is the float64-seconds timeline controllers expect, read off
// the host's monotonic clock (NewClock) or off a virtual time source
// (VirtualClock) — the engine's in-memory network hands its shards the
// simulator's. The zero value is not usable. All times produced by one
// Clock share its epoch, so they are small numbers (seconds since the
// flow started), matching the magnitude the simulator feeds controllers.
type Clock struct {
	epoch time.Time
	virt  func() float64 // nil: the host's clocks
}

// NewClock returns a host clock whose epoch is now.
func NewClock() Clock { return Clock{epoch: time.Now()} }

// VirtualClock returns a clock that reads now for its seconds; packet
// timestamps count nanoseconds from a fixed, comfortably positive epoch,
// so a stamp offset backwards (a clock-jump fault) stays a valid one.
func VirtualClock(now func() float64) Clock {
	return Clock{epoch: time.Unix(1<<30, 0), virt: now}
}

// Now returns seconds since the epoch.
func (c Clock) Now() float64 {
	if c.virt != nil {
		return c.virt()
	}
	return time.Since(c.epoch).Seconds()
}

// WallNanos returns the wall-clock timestamp placed into packets. Wall
// time is used on the wire (rather than the monotonic reading) so that
// two proteusd processes on one host share a timebase for one-way
// delay; RTT never crosses clock domains.
func (c Clock) WallNanos() int64 {
	if c.virt != nil {
		return c.NanosAt(c.virt())
	}
	return time.Now().UnixNano()
}

// SecondsSince converts a wall-clock packet timestamp into this
// clock's epoch-relative seconds.
func (c Clock) SecondsSince(wallNanos int64) float64 {
	return float64(wallNanos-c.epoch.UnixNano()) / 1e9
}

// NanosAt converts epoch-relative seconds back to a wall timestamp.
func (c Clock) NanosAt(sec float64) int64 {
	return c.epoch.UnixNano() + int64(sec*1e9)
}

// MixSeed derives an independent deterministic seed from (seed, n),
// using the same splitmix64-style finalizer as the experiment
// harness's per-trial seeding (exp.Options.seedFor): every wire
// component (shim jitter, shim loss, demo workloads) draws from its
// own stream so runs with the same -seed are reproducible and runs
// with different seeds are decorrelated. The result is always
// positive; a zero mix is remapped to 1 so it can seed math/rand.
func MixSeed(seed, n int64) int64 {
	x := uint64(n) + uint64(seed)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	s := int64(x)
	if s < 0 {
		s = -s
	}
	if s == 0 {
		s = 1
	}
	return s
}
