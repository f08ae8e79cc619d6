package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"pccproteus/internal/chaos"
)

// readTimeout is the proxy loop's poll interval for shutdown.
const readTimeout = 50 * time.Millisecond

// IsTimeout reports whether a socket read ended on its deadline.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// IsClosed reports whether a socket call failed because the socket is
// closed.
func IsClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrClosed)
}

// ShimConfig parameterizes the emulated bottleneck the shim inserts
// into the loopback path. It deliberately mirrors netem.Link +
// netem.Path so a LinkSpec maps onto it field-for-field and matched
// sim/wire scenarios are comparable.
type ShimConfig struct {
	RateMbps   float64 // bottleneck capacity
	QueueBytes int     // tail-drop byte queue
	Delay      float64 // forward one-way propagation delay, seconds
	AckDelay   float64 // reverse-path delay applied to acks, seconds
	LossProb   float64 // random (non-congestion) loss probability

	// Lognormal forward jitter, as netem.LognormalNoise: extra
	// head-of-line latency with median JitterMedian seconds and shape
	// JitterSigma. Zero median disables it.
	JitterMedian float64
	JitterSigma  float64

	// Seed drives the shim's private RNG (loss, jitter) through
	// MixSeed, so impairments are reproducible run-to-run. Zero means
	// seed 1.
	Seed int64
}

// ShimStats aggregates the shim's counters, mirroring netem.LinkStats
// (including the fault-attribution counters, so a chaos plan replayed
// through both worlds can be compared category by category).
type ShimStats struct {
	Enqueued   int64 // bottleneck packets (data/segments) accepted into the queue
	Dropped    int64 // bottleneck packets tail-dropped
	LostRandom int64 // bottleneck packets destroyed by random loss
	Delivered  int64 // bottleneck packets forwarded to their endpoint
	AcksRelay  int64 // acks forwarded to the sender
	FetchRelay int64 // fetch requests forwarded to the server
	Overflow   int64 // packets lost to shim internal backlog (should be 0)
	SentBytes  int64 // bytes serialized through the emulated bottleneck

	FaultDrop    int64 // data packets destroyed by an injected blackout
	AckFaultDrop int64 // acks destroyed by a blackout or ack-path blackout
	Corrupted    int64 // data packets damaged in flight by injected corruption
	Duplicated   int64 // extra copies created by injected duplication
	Reordered    int64 // data packets released out of order
	Flushed      int64 // in-flight data packets discarded by a peer restart
	AckFlushed   int64 // in-flight acks discarded by a peer restart
}

// ShimUpdate is one timed impairment change, used to replay adversary
// schedules on the wire: at At seconds after Start, the shim adopts
// the given capacity, loss, extra forward delay, and queue size.
type ShimUpdate struct {
	At         float64
	RateMbps   float64
	LossProb   float64
	ExtraDelay float64 // added to the configured base Delay
	QueueBytes int
}

// forwardItem is one datagram scheduled for release at a deadline.
// Deadlines within one channel are nondecreasing by construction, so
// a single goroutine draining the channel in FIFO order preserves
// both timing and ordering without a timer heap. (Reorder-selected
// packets go to a separate channel precisely because their deadlines
// break this invariant for the main stream.) epoch stamps the restart
// epoch at enqueue: items from a flushed epoch are discarded at
// release.
// toSender selects the release destination: the learned dialing
// endpoint (a sender flow's acks, a fetcher's segments) instead of the
// configured dst.
type forwardItem struct {
	at       float64
	buf      []byte
	n        int
	epoch    uint64
	toSender bool
}

// Shim is a userspace netem: a UDP proxy that receives the sender's
// data stream, passes it through an emulated bottleneck (serialization
// at RateMbps into a tail-drop queue, then propagation delay, jitter
// and random loss), and forwards the survivors to the receiver. Acks
// travel back through the shim with a fixed reverse delay. Both
// endpoints talk to real sockets; only the impairments are emulated,
// which is what makes wire runs reproducible without root.
type Shim struct {
	conn *net.UDPConn
	dst  *net.UDPAddr // receiver

	clock Clock

	mu          sync.Mutex
	rate        float64 // bytes/sec
	queueCap    int
	delay       float64
	baseDelay   float64 // configured Delay, before Update extras
	ackDelay    float64
	lossProb    float64
	jitterMed   float64
	jitterSigma float64
	rng         *rand.Rand

	busyUntil   float64
	lastArrival float64
	inBase      float64 // sender→shim latency calibrated at the first packet
	inCal       bool
	lastAckOut  float64
	senderAddr  *net.UDPAddr
	stats       ShimStats
	fault       chaos.PathState // current injected fault state
	epoch       uint64          // restart epoch; bumped by Flush

	// Capacity integral for the wire-capacity invariant: capBytes
	// accumulates rate·dt across rate changes.
	capBytes  float64
	capSinceT float64

	dataCh    chan forwardItem
	ackCh     chan forwardItem
	reorderCh chan forwardItem

	bufPool *bufPool

	started  bool
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewShim opens the shim's socket on 127.0.0.1 and points it at the
// receiver address dst.
func NewShim(cfg ShimConfig, dst *net.UDPAddr) (*Shim, error) {
	if cfg.RateMbps <= 0 || cfg.QueueBytes <= 0 {
		return nil, errors.New("wire: shim needs positive rate and queue")
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	conn.SetReadBuffer(1 << 21)
	conn.SetWriteBuffer(1 << 21)
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	sh := &Shim{
		conn:        conn,
		dst:         dst,
		rate:        cfg.RateMbps * 1e6 / 8,
		queueCap:    cfg.QueueBytes,
		delay:       cfg.Delay,
		baseDelay:   cfg.Delay,
		ackDelay:    cfg.AckDelay,
		lossProb:    cfg.LossProb,
		jitterMed:   cfg.JitterMedian,
		jitterSigma: cfg.JitterSigma,
		rng:         rand.New(rand.NewSource(MixSeed(seed, 0x5153))),
		dataCh:      make(chan forwardItem, 1<<14),
		ackCh:       make(chan forwardItem, 1<<14),
		reorderCh:   make(chan forwardItem, 1<<12),
		bufPool:     packetBufs,
	}
	return sh, nil
}

// Addr returns the address senders should dial.
func (sh *Shim) Addr() *net.UDPAddr { return sh.conn.LocalAddr().(*net.UDPAddr) }

// Start launches the proxy loop and the two forwarder goroutines.
func (sh *Shim) Start() error {
	if sh.started {
		return errors.New("wire: shim already started")
	}
	sh.clock = NewClock()
	sh.capSinceT = 0
	sh.inBase, sh.inCal = 0, false
	sh.done = make(chan struct{})
	sh.started = true
	sh.wg.Add(4)
	go sh.readLoop()
	go sh.forwardData()
	go sh.forwardAcks()
	go sh.forwardReorder()
	return nil
}

// Stop closes the socket and terminates all goroutines.
func (sh *Shim) Stop() {
	sh.stopOnce.Do(func() {
		close(sh.done)
		sh.conn.Close()
	})
	sh.wg.Wait()
}

// Stats returns a snapshot of the shim's counters.
func (sh *Shim) Stats() ShimStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

// Update applies one impairment change immediately. Zero RateMbps or
// QueueBytes keep the current value; negative LossProb/ExtraDelay
// keep the current value (so partial updates compose).
func (sh *Shim) Update(u ShimUpdate) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := sh.clock.Now()
	sh.accrueCapacity(now)
	if u.RateMbps > 0 {
		sh.rate = u.RateMbps * 1e6 / 8
	}
	if u.QueueBytes > 0 {
		sh.queueCap = u.QueueBytes
	}
	if u.LossProb >= 0 {
		sh.lossProb = u.LossProb
	}
	if u.ExtraDelay >= 0 {
		sh.delay = sh.baseDelay + u.ExtraDelay
	}
}

// SetFault replaces the shim's injected fault state — the wire-world
// applier of a chaos plan (the sim-world twin is chaos.ApplySim
// setting the same fields on netem.Link/Path).
func (sh *Shim) SetFault(st chaos.PathState) {
	sh.mu.Lock()
	sh.fault = st
	sh.mu.Unlock()
}

// Flush models a peer restart: every datagram currently inside the
// emulated path (queued for release) is discarded at its release time
// and counted as Flushed/AckFlushed, mirroring netem's Link.Flush and
// Path.Flush.
func (sh *Shim) Flush() {
	sh.mu.Lock()
	sh.epoch++
	sh.mu.Unlock()
}

// CapacityBytes returns the integral of the (possibly time-varying)
// emulated capacity from Start until now, in bytes — the denominator
// of the wire-capacity invariant.
func (sh *Shim) CapacityBytes() float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.accrueCapacity(sh.clock.Now())
	return sh.capBytes
}

func (sh *Shim) accrueCapacity(now float64) {
	if now > sh.capSinceT {
		sh.capBytes += sh.rate * (now - sh.capSinceT)
		sh.capSinceT = now
	}
}

func (sh *Shim) readLoop() {
	defer sh.wg.Done()
	buf := sh.bufPool.Get()
	defer sh.bufPool.Put(buf)
	for {
		select {
		case <-sh.done:
			return
		default:
		}
		sh.conn.SetReadDeadline(time.Now().Add(readTimeout))
		n, src, err := sh.conn.ReadFromUDP(buf)
		if err != nil {
			if IsTimeout(err) {
				continue
			}
			if IsClosed(err) {
				return
			}
			// Transient socket errors (e.g. ICMP unreachable surfaced
			// while a peer restarts) must not kill the proxy loop.
			time.Sleep(time.Millisecond)
			continue
		}
		switch PacketType(buf[:n]) {
		case typeData:
			sh.handleBottleneck(buf, n, src, false)
		case typeSegment:
			sh.handleBottleneck(buf, n, src, true)
		case typeAck, typeBusy:
			// Busy frames ride the reverse path exactly like acks: raw
			// relay, no bottleneck emulation.
			sh.handleAck(buf, n)
		case typeFetch:
			sh.handleFetch(buf, n, src)
		}
	}
}

// handleBottleneck passes one data or segment packet through the
// emulated bottleneck.
//
// The bottleneck timeline is virtual: it is computed from the packet's
// own send stamp, normalized by the sender→shim latency observed on
// the very first packet, rather than from the shim's (scheduler-
// jittered) receive time. That makes the emulated arrival of every
// packet a deterministic function of when the sender scheduled it —
// the same property the simulator's netem.Link has — so the endpoints'
// RTT samples carry the emulated path's queueing dynamics and none of
// the host's wakeup noise. The calibration is locked at the first
// packet on purpose: a running minimum keeps drifting as rarer
// scheduling luck is observed, and each step of that drift reads as an
// RTT trend to the controller's gradient regression, while a constant
// that is a fraction of a millisecond off merely shifts every RTT by
// the same amount. Physical forwarding still happens at the scheduled
// wall time; only measurement uses the virtual stamps.
// In fetch mode the same virtual bottleneck carries SEGMENT responses
// in the server→fetcher direction (seg=true): a segment echoes its
// request's scheduled-send stamp at the data packet's sentAt offset, so
// the virtual timeline is a deterministic function of the *fetcher's*
// pacing schedule, with the request's reverse trip and the server's
// turnaround absorbed into the first-packet calibration as constants.
func (sh *Shim) handleBottleneck(buf []byte, n int, src *net.UDPAddr, seg bool) {
	var sentNanos int64
	if seg {
		if n < SegmentHeaderLen || buf[1] != wireVersion {
			return
		}
		sentNanos = int64(binary.BigEndian.Uint64(buf[10:]))
	} else {
		h, err := DecodeData(buf[:n])
		if err != nil {
			return
		}
		sentNanos = h.SentAt
	}
	sh.mu.Lock()
	if !seg && (sh.senderAddr == nil || !sh.senderAddr.IP.Equal(src.IP) || sh.senderAddr.Port != src.Port) {
		sh.senderAddr = src // learn/refresh the sender's return address
	}
	if sh.fault.LinkDown {
		// Blackout destroys the packet before any queue or capacity
		// accounting — the same attribution point as netem.Link.Send.
		sh.stats.FaultDrop++
		sh.mu.Unlock()
		return
	}
	now := sh.clock.Now()
	sh.accrueCapacity(now)
	sentAt := sh.clock.SecondsSince(sentNanos)
	if !sh.inCal {
		sh.inBase = now - sentAt
		sh.inCal = true
	}
	start := sentAt + sh.inBase
	// The tail-drop decision is taken on the virtual timeline as well:
	// the bytes queued ahead of this packet are exactly the work the
	// bottleneck still owes when the packet arrives, (busyUntil −
	// arrival)·rate. Accounting drops physically (enqueue on receipt,
	// release on a wall-clock timer) would jitter *which* packets of an
	// overloaded interval die, and at deep overload the controller's
	// hi/lo probe comparisons are decided by precisely that loss
	// attribution — the simulator's deterministic tail drop is part of
	// the behavior under test.
	if backlog := (sh.busyUntil - start) * sh.rate; backlog > 0 && int(backlog)+n > sh.queueCap {
		sh.stats.Dropped++
		sh.mu.Unlock()
		return
	}
	sh.stats.Enqueued++
	if sh.busyUntil > start {
		start = sh.busyUntil
	}
	txEnd := start + float64(n)/sh.rate
	sh.busyUntil = txEnd
	lost := sh.lossProb > 0 && sh.rng.Float64() < sh.lossProb
	jitter := 0.0
	if sh.jitterMed > 0 {
		jitter = sh.jitterMed * math.Exp(sh.jitterSigma*sh.rng.NormFloat64())
	}
	// Fault draws follow the legacy draws, each gated on its
	// probability, matching the draw order in netem.Link.Send.
	corrupt := sh.fault.CorruptProb > 0 && sh.rng.Float64() < sh.fault.CorruptProb
	dup := sh.fault.DupProb > 0 && sh.rng.Float64() < sh.fault.DupProb
	reorder := sh.fault.ReorderProb > 0 && sh.rng.Float64() < sh.fault.ReorderProb
	arrival := txEnd + sh.delay + jitter
	ch := sh.dataCh
	// Jitter is head-of-line blocking, exactly as in netem.Link:
	// delivery order is preserved, which also keeps the forwarder's
	// single-goroutine FIFO release correct. A reorder-selected packet
	// is the deliberate exception: it is held ReorderDelay extra,
	// bypasses the clamp, and releases on its own channel so it can
	// overtake — or be overtaken by — the main stream.
	if reorder {
		sh.stats.Reordered++
		arrival += sh.fault.ReorderDelay
		ch = sh.reorderCh
	} else {
		if arrival < sh.lastArrival {
			arrival = sh.lastArrival
		}
		sh.lastArrival = arrival
	}
	sh.stats.SentBytes += int64(n)
	if lost {
		sh.stats.LostRandom++
		sh.mu.Unlock()
		return
	}
	// A receiver clock jump shifts the stamped arrival the endpoints
	// measure with, not the physical forwarding time.
	stamp := sh.clock.NanosAt(arrival + sh.fault.ClockOffset)
	b := sh.bufPool.Get()
	copy(b, buf[:n])
	if corrupt {
		// Deterministic mangle: version byte plus the tail byte. The
		// packet still traverses and is forwarded — the receiver's
		// hardened codec is what rejects it, exercising the survival
		// path end-to-end (netem, with no codec in the loop, destroys
		// the packet at delivery instead; attribution matches).
		sh.stats.Corrupted++
		b[1] ^= 0xa5
		b[n-1] ^= 0xff
	} else {
		StampArrival(b[:n], stamp)
	}
	if !sh.enqueue(ch, forwardItem{at: arrival, buf: b, n: n, epoch: sh.epoch, toSender: seg}) {
		sh.bufPool.Put(b)
	}
	if dup {
		// The duplicate copy arrives clean alongside the original
		// (only the first copy was damaged), as in netem.
		sh.stats.Duplicated++
		b2 := sh.bufPool.Get()
		copy(b2, buf[:n])
		StampArrival(b2[:n], stamp)
		if !sh.enqueue(ch, forwardItem{at: arrival, buf: b2, n: n, epoch: sh.epoch, toSender: seg}) {
			sh.bufPool.Put(b2)
		}
	}
	sh.mu.Unlock()
}

// handleFetch relays a fetch request to the server after the
// reverse-path delay — requests are the fetch protocol's mirror image
// of acks: small control datagrams whose congestion effects are modeled
// as a fixed delay, while the segment responses they elicit pay the
// emulated bottleneck. The request's source is the learned dialing
// endpoint, so segments and any cohabiting ack traffic return to the
// fetcher.
func (sh *Shim) handleFetch(buf []byte, n int, src *net.UDPAddr) {
	sh.mu.Lock()
	if sh.senderAddr == nil || !sh.senderAddr.IP.Equal(src.IP) || sh.senderAddr.Port != src.Port {
		sh.senderAddr = src
	}
	if sh.fault.LinkDown || sh.fault.AckDown {
		sh.stats.AckFaultDrop++
		sh.mu.Unlock()
		return
	}
	now := sh.clock.Now()
	out := now + sh.ackDelay
	if out < sh.lastAckOut {
		out = sh.lastAckOut
	}
	sh.lastAckOut = out
	b := sh.bufPool.Get()
	copy(b, buf[:n])
	if !sh.enqueue(sh.ackCh, forwardItem{at: out, buf: b, n: n, epoch: sh.epoch}) {
		sh.bufPool.Put(b)
	}
	sh.mu.Unlock()
}

// handleAck relays an ack to the sender after the reverse-path delay.
func (sh *Shim) handleAck(buf []byte, n int) {
	sh.mu.Lock()
	if sh.senderAddr == nil {
		sh.mu.Unlock()
		return
	}
	if sh.fault.LinkDown || sh.fault.AckDown {
		sh.stats.AckFaultDrop++
		sh.mu.Unlock()
		return
	}
	now := sh.clock.Now()
	out := now + sh.ackDelay
	if out < sh.lastAckOut {
		out = sh.lastAckOut
	}
	sh.lastAckOut = out
	b := sh.bufPool.Get()
	copy(b, buf[:n])
	if !sh.enqueue(sh.ackCh, forwardItem{at: out, buf: b, n: n, epoch: sh.epoch, toSender: true}) {
		sh.bufPool.Put(b)
	}
	sh.mu.Unlock()
}

// enqueue adds an item without blocking; a full channel counts as
// internal overflow (never observed at the rates the shim targets, but
// dropping beats deadlocking the read loop).
func (sh *Shim) enqueue(ch chan forwardItem, it forwardItem) bool {
	select {
	case ch <- it:
		return true
	default:
		sh.stats.Overflow++
		return false
	}
}

func (sh *Shim) sleepUntil(at float64) bool {
	d := at - sh.clock.Now()
	if d <= 0 {
		return true
	}
	select {
	case <-sh.done:
		return false
	case <-time.After(time.Duration(d * float64(time.Second))):
		return true
	}
}

func (sh *Shim) forwardData() {
	defer sh.wg.Done()
	sh.drainForward(sh.dataCh)
}

// forwardReorder releases reorder-selected packets on their own
// timeline, letting them land out of order relative to the main
// stream.
func (sh *Shim) forwardReorder() {
	defer sh.wg.Done()
	sh.drainForward(sh.reorderCh)
}

func (sh *Shim) drainForward(ch chan forwardItem) {
	for {
		select {
		case <-sh.done:
			return
		case it := <-ch:
			if !sh.sleepUntil(it.at) {
				return
			}
			sh.mu.Lock()
			var to *net.UDPAddr
			if it.epoch != sh.epoch {
				sh.stats.Flushed++
			} else {
				sh.stats.Delivered++
				if it.toSender {
					to = sh.senderAddr
				} else {
					to = sh.dst
				}
			}
			sh.mu.Unlock()
			if to != nil {
				sh.conn.WriteToUDP(it.buf[:it.n], to)
			}
			sh.bufPool.Put(it.buf)
		}
	}
}

func (sh *Shim) forwardAcks() {
	defer sh.wg.Done()
	for {
		select {
		case <-sh.done:
			return
		case it := <-sh.ackCh:
			if !sh.sleepUntil(it.at) {
				return
			}
			sh.mu.Lock()
			var dst *net.UDPAddr
			if it.epoch != sh.epoch {
				sh.stats.AckFlushed++
			} else if it.toSender {
				sh.stats.AcksRelay++
				dst = sh.senderAddr
			} else {
				sh.stats.FetchRelay++
				dst = sh.dst
			}
			sh.mu.Unlock()
			if dst != nil {
				sh.conn.WriteToUDP(it.buf[:it.n], dst)
			}
			sh.bufPool.Put(it.buf)
		}
	}
}
