// Package netem emulates the network substrate the paper runs on: a
// serializing bottleneck link with a tail-drop byte queue, propagation
// delay and optional non-congestion random loss, plus the latency-noise
// models (per-packet jitter, latency spikes, bursty ACK release) that
// stand in for the paper's live-Internet WiFi paths.
//
// All timing is virtual, driven by a sim.Sim; all randomness comes from
// the simulation's seeded source, so every topology is deterministic.
package netem

import (
	"fmt"
	"math"
	"math/rand"

	"pccproteus/internal/sim"
	"pccproteus/internal/trace"
)

// MTU is the size in bytes of a full data packet on the wire. The paper's
// analysis (Appendix A) and Emulab setup use 1500-byte packets.
const MTU = 1500

// Packet is one data packet in flight. ACKs are modeled as scheduling
// callbacks rather than packets: the reverse path is never the
// bottleneck in any of the paper's scenarios.
type Packet struct {
	FlowID int
	Seq    int64
	Size   int     // bytes on the wire
	SentAt float64 // time the sender released it
	MI     int64   // monitor-interval tag for PCC-style senders, else 0
	// Payload is the datagram a packet carries when real bytes cross the
	// path (engine.SimNet); the simulated senders leave it nil. A
	// duplicated packet shares it with its copy. (A pointer, so that a
	// Packet stays one 64-byte cache line for the simulated senders.)
	Payload *[]byte

	// Position on a multi-hop Path and the receiver behind its last hop
	// (set by Path.Send).
	hop     int
	deliver func(p *Packet, arrival float64)
}

// Noise models additive, non-congestion latency (seconds). Implementations
// must be cheap: one sample per packet.
type Noise interface {
	Sample(rng *rand.Rand) float64
}

// NoNoise is the zero-latency noise model.
type NoNoise struct{}

// Sample returns 0.
func (NoNoise) Sample(*rand.Rand) float64 { return 0 }

// LognormalNoise draws lognormal extra latency: exp(N(Mu, Sigma²)) scaled
// so the median is Median seconds. A heavy right tail matches measured
// WiFi jitter (the paper: "typical RTT deviation is up to 5 ms but RTT
// occasionally spikes tens of milliseconds higher").
type LognormalNoise struct {
	Median float64 // median extra delay in seconds
	Sigma  float64 // shape; 0.5–1.0 is WiFi-like
}

// Sample draws one jitter value.
func (n LognormalNoise) Sample(rng *rand.Rand) float64 {
	if n.Median <= 0 {
		return 0
	}
	return n.Median * math.Exp(n.Sigma*rng.NormFloat64())
}

// SpikeNoise adds rare large latency spikes on top of a base model,
// emulating WiFi MAC-layer stalls.
type SpikeNoise struct {
	Base      Noise
	SpikeProb float64 // per-packet probability of a spike
	SpikeMin  float64 // seconds
	SpikeMax  float64 // seconds
}

// Sample draws base jitter plus an occasional spike.
func (n SpikeNoise) Sample(rng *rand.Rand) float64 {
	d := 0.0
	if n.Base != nil {
		d = n.Base.Sample(rng)
	}
	if n.SpikeProb > 0 && rng.Float64() < n.SpikeProb {
		d += n.SpikeMin + rng.Float64()*(n.SpikeMax-n.SpikeMin)
	}
	return d
}

// LinkStats aggregates link-level counters. Conservation laws (checked
// by the property tests): offered = Enqueued + Dropped + FaultDrop,
// and after the path drains Delivered + LostRandom + Corrupted +
// Flushed = Enqueued + Duplicated.
type LinkStats struct {
	Enqueued   int64 // packets accepted into the queue
	Dropped    int64 // packets tail-dropped
	LostRandom int64 // packets destroyed by random loss
	Delivered  int64 // packets handed to receivers
	SentBytes  int64 // bytes serialized onto the wire
	FaultDrop  int64 // packets destroyed by an injected blackout
	Corrupted  int64 // packets destroyed in flight by injected corruption
	Duplicated int64 // extra in-flight copies created by injected duplication
	Reordered  int64 // packets released out of order by injected reordering
	Flushed    int64 // in-flight packets discarded by a peer restart
}

// Link is a shared bottleneck: a FIFO byte queue drained at Rate, followed
// by a fixed propagation delay and optional per-packet jitter and random
// loss. Multiple senders share one Link; queue occupancy (and therefore
// latency) is global, which is what couples competing flows. Occupancy
// drops when it is read (Send, QueueBytes, Stats), not by a queued event.
type Link struct {
	Sim       *sim.Sim
	Rate      float64 // bytes per second
	QueueCap  int     // queue capacity in bytes (tail drop beyond this)
	PropDelay float64 // one-way propagation delay, seconds
	LossProb  float64 // random (non-congestion) loss probability
	Jitter    Noise   // extra forward latency per packet (nil = none)

	// Injected faults (driven by internal/chaos; all zero in a healthy
	// run, in which case they cost nothing — not even an RNG draw).
	Down         bool    // blackout: every offered packet is destroyed
	CorruptProb  float64 // per-packet probability of in-flight corruption
	DupProb      float64 // per-packet probability of a duplicate delivery
	ReorderProb  float64 // per-packet probability of out-of-order release
	ReorderDelay float64 // extra delay applied to reorder-selected packets

	queueBytes  int
	busyUntil   float64
	lastArrival float64
	epoch       uint64
	stats       LinkStats

	// A serialisation end only moves queueBytes and SentBytes: txEnds
	// books it for settle and no event runs. Arrivals follow lastArrival,
	// monotone: a sim.Lane, created on first Send so zero-value Links work.
	txEnds   sim.Ledger
	arrivals *sim.Lane
	arriveFn func(any) // l.arrive, bound once
	free     []*flight
	pktFree  []*Packet
}

// NewLink builds a bottleneck with rate in bits/sec converted from Mbps,
// capacity in bytes, and one-way propagation delay in seconds.
func NewLink(s *sim.Sim, rateMbps float64, queueCapBytes int, propDelay float64) *Link {
	l := &Link{Sim: s, QueueCap: queueCapBytes, PropDelay: propDelay}
	l.SetRate(rateMbps * 1e6 / 8)
	return l
}

// MinRate is the documented capacity floor in bytes per second: one MTU
// per second. Time-varying capacity models (pathmodel traces, adversary
// schedules, rate walks) can legitimately sample zero or negative
// capacity during a deep fade; SetRate clamps such steps here so the
// serializing queue keeps draining — however slowly — instead of
// dividing by zero or running the busy timeline backwards.
const MinRate = float64(MTU)

// SetRate sets the link capacity in bytes per second. Zero, negative,
// and NaN inputs are clamped to MinRate; +Inf is allowed (instantaneous
// serialization). Every time-varying capacity model must change the
// rate through this boundary rather than writing Rate directly.
func (l *Link) SetRate(bps float64) {
	if math.IsNaN(bps) || bps < MinRate {
		bps = MinRate
	}
	l.Rate = bps
}

// SetRateMbps is SetRate with the capacity given in Mbps.
func (l *Link) SetRateMbps(mbps float64) { l.SetRate(mbps * 1e6 / 8) }

// SetPropDelay sets the one-way propagation delay in seconds. Unlike a
// degenerate capacity — which has a natural floor — a NaN, infinite, or
// negative delay silently corrupts every arrival timestamp computed
// downstream, so the model boundary rejects it with an error instead of
// guessing.
func (l *Link) SetPropDelay(d float64) error {
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("netem: invalid propagation delay %v", d)
	}
	l.PropDelay = d
	return nil
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats {
	l.settle()
	return l.stats
}

// settle applies the serialisation ends that have come due. It runs
// wherever queueBytes or SentBytes is read, so both read exactly what an
// event at each packet's last byte would have left in them.
func (l *Link) settle() {
	sent := l.txEnds.Settle(l.Sim)
	l.queueBytes -= sent
	l.stats.SentBytes += int64(sent)
}

// Flush models a peer restart: every packet currently in flight (sent
// but not yet delivered) is discarded at its would-be delivery time and
// counted as Flushed. Queue-occupancy accounting is unaffected — the
// bytes still drain off the wire; only delivery is suppressed.
func (l *Link) Flush() { l.epoch++ }

// QueueBytes returns the current queue occupancy in bytes.
func (l *Link) QueueBytes() int {
	l.settle()
	return l.queueBytes
}

// QueueDelay returns the delay a packet enqueued now would wait before
// its own serialization begins.
func (l *Link) QueueDelay() float64 {
	d := l.busyUntil - l.Sim.Now()
	if d < 0 {
		return 0
	}
	return d
}

// Send enqueues pkt. It returns false (and counts a drop) if the queue is
// full. Otherwise deliver is invoked at the packet's arrival time unless
// the packet falls to random loss, in which case it silently vanishes —
// the sender must infer the loss, as on a real path.
//
// With a flight recorder attached to the simulation, the link emits a
// PacketDrop event for every tail drop and random loss (into the
// owning flow's ring) and a sampled QueueDepth event per enqueue (into
// the link's own ring, flow 0).
func (l *Link) Send(pkt *Packet, deliver func(p *Packet, arrival float64)) bool {
	rec := l.Sim.Trace()
	now := l.Sim.Now()
	l.settle()
	if l.Down {
		// Blackout: the packet is offered to a dead path and vanishes
		// before it reaches the queue, exactly as the wire shim drops
		// it before its virtual-timeline accounting. The sender gets
		// no synchronous feedback — loss is inferred by timeout.
		l.stats.FaultDrop++
		if rec.Enabled(trace.KindPacketDrop) {
			rec.Tracer(pkt.FlowID).PacketDrop(now, pkt.Seq, pkt.Size, l.queueBytes, "blackout")
		}
		return true
	}
	if l.queueBytes+pkt.Size > l.QueueCap {
		l.stats.Dropped++
		if rec.Enabled(trace.KindPacketDrop) {
			rec.Tracer(pkt.FlowID).PacketDrop(now, pkt.Seq, pkt.Size, l.queueBytes, "taildrop")
		}
		return false
	}
	l.queueBytes += pkt.Size
	l.stats.Enqueued++
	if rec.Enabled(trace.KindQueueDepth) {
		rec.Tracer(0).QueueDepth(now, l.queueBytes, l.QueueDelay(), l.Rate)
	}
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	txEnd := start + float64(pkt.Size)/l.Rate
	l.busyUntil = txEnd
	lost := l.LossProb > 0 && l.Sim.Rand().Float64() < l.LossProb
	jitter := 0.0
	if l.Jitter != nil {
		jitter = l.Jitter.Sample(l.Sim.Rand())
	}
	// Fault draws come after the legacy draws, each gated on its
	// probability, so a fault-free run consumes the RNG identically to
	// one built before faults existed and stays bit-reproducible.
	corrupt := l.CorruptProb > 0 && l.Sim.Rand().Float64() < l.CorruptProb
	dup := l.DupProb > 0 && l.Sim.Rand().Float64() < l.DupProb
	reorder := l.ReorderProb > 0 && l.Sim.Rand().Float64() < l.ReorderProb
	arrival := txEnd + l.PropDelay + jitter
	// Jitter models MAC-layer stalls (retransmissions, scheduling), which
	// block the head of the line: packets behind a delayed one are
	// delayed too, so delivery stays in order. Per-packet *reordering* by
	// tens of milliseconds is not something wired or WiFi links do, and
	// would manufacture phantom losses at the sender — unless an injected
	// reordering fault asks for exactly that, in which case the selected
	// packet is held ReorderDelay extra and released out of order (it
	// skips the clamp and does not advance the head-of-line marker).
	if reorder {
		l.stats.Reordered++
		arrival += l.ReorderDelay
	} else {
		if arrival < l.lastArrival {
			arrival = l.lastArrival
		}
		l.lastArrival = arrival
	}
	if l.arrivals == nil {
		l.arrivals, l.arriveFn = l.Sim.NewLane(), l.arrive
	}
	l.txEnds.Post(l.Sim, txEnd, pkt.Size)
	if lost {
		l.stats.LostRandom++
		if rec.Enabled(trace.KindPacketDrop) {
			rec.Tracer(pkt.FlowID).PacketDrop(now, pkt.Seq, pkt.Size, l.queueBytes, "random")
		}
		return true
	}
	l.arrivals.AtArg(arrival, l.arriveFn, l.newFlight(flight{pkt: pkt, fn: deliver, at: arrival, ep: l.epoch, corrupt: corrupt}))
	if dup {
		// A duplicate copy materializes in the network and arrives
		// alongside the original (dup of a corrupted packet arrives
		// clean — only the first copy was damaged). Counted at
		// creation so the conservation law Delivered + LostRandom +
		// Corrupted + Flushed = Enqueued + Duplicated holds even when
		// a restart flushes the copy. It is a packet of its own, so a
		// receiver is handed each *Packet exactly once.
		l.stats.Duplicated++
		cp := *pkt
		l.arrivals.AtArg(arrival, l.arriveFn, l.newFlight(flight{pkt: &cp, fn: deliver, at: arrival, ep: l.epoch, dup: true}))
	}
	return true
}

// flight is a packet between the queue and its arrival event, or a
// message on the reverse path of a Path that starts at this link.
// Flights and packets are recycled through the link and the lane
// callbacks are bound once, so a packet crosses the link and its ack
// returns without allocating.
type flight struct {
	pkt     *Packet
	fn      func(p *Packet, at float64) // deliver(pkt, arrival), or the ack's fn(pkt, stamp)
	at      float64
	ep      uint64
	corrupt bool
	dup     bool
}

func (l *Link) newFlight(v flight) *flight {
	var f *flight
	if n := len(l.free); n > 0 {
		f = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		f = new(flight)
	}
	*f = v
	return f
}

// land returns a flight to the pool and hands back what it carried.
func (l *Link) land(f *flight) flight {
	v := *f
	*f = flight{}
	l.free = append(l.free, f)
	return v
}

// NewPacket returns a zero Packet, reusing one given back through
// Release. Flows that start on the same link share the pool, so a short
// flow sends on the packets of the flows before it.
func (l *Link) NewPacket() *Packet {
	if n := len(l.pktFree); n > 0 {
		p := l.pktFree[n-1]
		l.pktFree = l.pktFree[:n-1]
		return p
	}
	return new(Packet)
}

// Release gives back a packet from NewPacket that nothing refers to any
// more: its ack has landed. (The link hands a receiver each packet
// exactly once, and a packet the network loses is simply never
// released.)
func (l *Link) Release(p *Packet) {
	*p = Packet{}
	l.pktFree = append(l.pktFree, p)
}

// arrive runs at a flight's arrival time.
func (l *Link) arrive(arg any) {
	v := l.land(arg.(*flight))
	pkt := v.pkt
	if v.ep != l.epoch {
		l.stats.Flushed++
		if rec := l.Sim.Trace(); !v.dup && rec.Enabled(trace.KindPacketDrop) {
			rec.Tracer(pkt.FlowID).PacketDrop(l.Sim.Now(), pkt.Seq, pkt.Size, l.QueueBytes(), "restart")
		}
		return
	}
	if v.corrupt {
		// The bytes traversed the link but arrive damaged; the
		// receiver's codec rejects them, so delivery never happens.
		l.stats.Corrupted++
		if rec := l.Sim.Trace(); rec.Enabled(trace.KindPacketDrop) {
			rec.Tracer(pkt.FlowID).PacketDrop(l.Sim.Now(), pkt.Seq, pkt.Size, l.QueueBytes(), "corrupt")
		}
		return
	}
	l.stats.Delivered++
	v.fn(pkt, v.at)
}

// AckBatcher models bursty ACK delivery caused by irregular MAC
// scheduling: "hold" windows open as a Poisson process; ACKs arriving
// during a hold are queued and released together when it closes. This is
// the phenomenon Proteus's per-ACK interval filter (§5) defends against.
type AckBatcher struct {
	Sim      *sim.Sim
	HoldRate float64 // hold windows per second (Poisson)
	HoldTime float64 // seconds each hold lasts

	holdUntil float64
	nextHold  float64
	seeded    bool
}

// Delay returns the extra delay to apply to an ACK arriving now.
func (b *AckBatcher) Delay() float64 {
	if b == nil || b.HoldRate <= 0 || b.HoldTime <= 0 {
		return 0
	}
	now := b.Sim.Now()
	if !b.seeded {
		b.nextHold = now + b.Sim.Rand().ExpFloat64()/b.HoldRate
		b.seeded = true
	}
	// Advance the hold process up to now.
	for b.nextHold <= now {
		b.holdUntil = b.nextHold + b.HoldTime
		b.nextHold += b.Sim.Rand().ExpFloat64() / b.HoldRate
	}
	if now < b.holdUntil {
		return b.holdUntil - now
	}
	return 0
}

// Path bundles the forward direction — one or more bottleneck links in
// series — with the uncongested return path an ACK takes. A single-link
// path (Hops empty) behaves exactly as it always has: base RTT =
// Link.PropDelay + AckDelay (+ one MTU serialization). With Hops set,
// packets delivered by Link are immediately offered to each hop in
// order, so queueing, serialization, loss, and faults apply per stage —
// the building block for dumbbell, parking-lot, and shared-uplink
// topologies (internal/campaign).
type Path struct {
	Link      *Link
	Hops      []*Link // downstream bottlenecks traversed after Link, in order
	AckDelay  float64 // reverse one-way delay, seconds
	AckJitter Noise
	Batcher   *AckBatcher

	// Injected faults (driven by internal/chaos).
	AckDown     bool    // reverse-path blackout: acks emitted now vanish
	StampOffset float64 // receiver clock-jump offset applied to arrival stamps

	lastAckArrival float64
	epoch          uint64
	stats          PathStats
	acks           *sim.Lane // returning acks, ordered by lastAckArrival
	ackLandFn      func(any) // p.ackLand, bound once
	forwardFn      func(q *Packet, arrival float64)
}

// PathStats counts reverse-path fault attribution.
type PathStats struct {
	AckDropped int64 // acks destroyed by an ack-path blackout
	AckFlushed int64 // in-flight acks discarded by a peer restart
}

// Stats returns a copy of the reverse-path counters.
func (p *Path) Stats() PathStats { return p.stats }

// Send offers pkt to the forward direction of the path. On a single-link
// path it is exactly Link.Send. With hops, the packet re-enters each
// downstream link at its previous-stage arrival time; deliver fires only
// after the last stage. The return value reports acceptance at the
// *first* queue — a downstream tail drop is invisible to the sender, as
// on a real multi-hop path, and is discovered via dup-ACKs or RTO.
func (p *Path) Send(pkt *Packet, deliver func(p *Packet, arrival float64)) bool {
	if len(p.Hops) == 0 {
		return p.Link.Send(pkt, deliver)
	}
	if p.forwardFn == nil {
		p.forwardFn = p.forward
	}
	pkt.hop, pkt.deliver = 0, deliver
	return p.Link.Send(pkt, p.forwardFn)
}

// forward runs when a packet arrives from the stage before Hops[q.hop]
// and offers it to that hop — or, past the last one, to the receiver.
// Now() == the arrival time at this stage; the hop's own queue,
// serialization, and prop delay take over from here. A downstream drop
// simply ends the chain. The packet carries its own position, so the
// chain is one bound callback however many packets are on the path.
func (p *Path) forward(q *Packet, arrival float64) {
	i := q.hop
	if i == len(p.Hops) {
		q.deliver(q, arrival)
		return
	}
	q.hop = i + 1
	p.Hops[i].Send(q, p.forwardFn)
}

// BottleneckRate returns the lowest link rate on the forward direction,
// in bytes/sec — the capacity the path can sustain end to end.
func (p *Path) BottleneckRate() float64 {
	r := p.Link.Rate
	for _, h := range p.Hops {
		if h.Rate < r {
			r = h.Rate
		}
	}
	return r
}

// Flush models a peer restart on the reverse path: acks already in
// flight toward the sender are discarded at their would-be arrival.
func (p *Path) Flush() { p.epoch++ }

// SendAck carries the ACK of pkt — or any receiver-to-sender message,
// such as a fetch request — emitted at sentAt across the reverse path
// and runs fn(pkt, stamp) when it lands; pkt and stamp are the
// message's payload and mean what the caller wants them to. An ack-path
// blackout destroys it at once; a restart (Flush) while it is in flight
// discards it at its would-be arrival. Like the forward direction, ACK
// jitter is head-of-line blocking and preserves order.
func (p *Path) SendAck(sentAt float64, fn func(pkt *Packet, stamp float64), pkt *Packet, stamp float64) {
	if p.AckDown {
		p.stats.AckDropped++
		return
	}
	d := p.AckDelay
	if p.AckJitter != nil {
		d += p.AckJitter.Sample(p.Link.Sim.Rand())
	}
	if p.Batcher != nil {
		d += p.Batcher.Delay()
	}
	at := sentAt + d
	if at < p.lastAckArrival {
		at = p.lastAckArrival
	}
	p.lastAckArrival = at
	if p.acks == nil {
		p.acks = p.Link.Sim.NewLane()
		p.ackLandFn = p.ackLand
	}
	p.acks.AtArg(at, p.ackLandFn, p.Link.newFlight(flight{pkt: pkt, fn: fn, at: stamp, ep: p.epoch}))
}

func (p *Path) ackLand(arg any) {
	v := p.Link.land(arg.(*flight))
	if v.ep != p.epoch {
		p.stats.AckFlushed++
		return
	}
	v.fn(v.pkt, v.at)
}

// BaseRTT returns the no-queue round-trip time of the path including one
// full-MTU serialization per forward link.
func (p *Path) BaseRTT() float64 {
	rtt := p.Link.PropDelay + p.AckDelay + float64(MTU)/p.Link.Rate
	for _, h := range p.Hops {
		rtt += h.PropDelay + float64(MTU)/h.Rate
	}
	return rtt
}

// BDP returns the bandwidth-delay product of the path in bytes,
// using the bottleneck (minimum) rate across the forward links.
func (p *Path) BDP() float64 { return p.BottleneckRate() * p.BaseRTT() }

// RateWalk drives a link's capacity as a bounded geometric random walk,
// emulating cellular (LTE-like) channels where the scheduler's per-user
// capacity swings on sub-second timescales (§7.2 names LTE as the
// high-fluctuation environment left to future work). Every Interval the
// rate is multiplied by a lognormal step and clamped to
// [MinFactor, MaxFactor]·Base.
type RateWalk struct {
	Sim      *sim.Sim
	Link     *Link
	Base     float64 // bytes/sec around which the walk moves
	Interval float64 // seconds between steps
	Sigma    float64 // per-step lognormal volatility
	MinFac   float64
	MaxFac   float64
}

// Start begins the walk; it reschedules itself for the life of the
// simulation.
func (w *RateWalk) Start() {
	if w.Base == 0 {
		w.Base = w.Link.Rate
	}
	if w.Interval <= 0 {
		w.Interval = 0.1
	}
	if w.MinFac == 0 {
		w.MinFac = 0.25
	}
	if w.MaxFac == 0 {
		w.MaxFac = 1.0
	}
	if w.Sigma == 0 {
		w.Sigma = 0.25
	}
	w.step()
}

func (w *RateWalk) step() {
	f := w.Link.Rate / w.Base * math.Exp(w.Sigma*w.Sim.Rand().NormFloat64())
	if f < w.MinFac {
		f = w.MinFac
	}
	if f > w.MaxFac {
		f = w.MaxFac
	}
	w.Link.SetRate(w.Base * f)
	w.Sim.After(w.Interval, w.step)
}
