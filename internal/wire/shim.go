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

// ShimStats aggregates the shim's counters, mirroring netem.LinkStats.
type ShimStats struct {
	Enqueued   int64 // bottleneck packets (data/segments) accepted into the queue
	Dropped    int64 // bottleneck packets tail-dropped
	LostRandom int64 // bottleneck packets destroyed by random loss
	Delivered  int64 // bottleneck packets forwarded to their endpoint
	AcksRelay  int64 // acks forwarded to the sender
	FetchRelay int64 // fetch requests forwarded to the server
	Overflow   int64 // packets lost to shim internal backlog (should be 0)
	SentBytes  int64 // bytes serialized through the emulated bottleneck
}

// forwardItem is one datagram scheduled for release at a deadline.
// Deadlines within one channel are nondecreasing by construction, so
// a single goroutine draining the channel in FIFO order preserves
// both timing and ordering without a timer heap.
// toSender selects the release destination: the learned dialing
// endpoint (a sender flow's acks, a fetcher's segments) instead of the
// configured dst.
type forwardItem struct {
	at       float64
	buf      []byte
	n        int
	toSender bool
}

// Shim is a userspace netem for real sockets: a UDP proxy that receives
// the sender's data stream, passes it through an emulated static
// bottleneck (serialization at RateMbps into a tail-drop queue, then
// propagation delay, jitter and random loss), and forwards the survivors
// to the receiver. Acks travel back through the shim with a fixed
// reverse delay. Both endpoints talk to real sockets; only the
// impairments are emulated, which is what lets `proteusd demo`, the
// -shim flags and the fetch benchmark run without root. Time-varying
// paths and injected faults are netem's, under engine.SimNet.
type Shim struct {
	conn *net.UDPConn
	dst  *net.UDPAddr // receiver

	clock Clock

	mu          sync.Mutex
	rate        float64 // bytes/sec
	queueCap    int
	delay       float64
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

	dataCh chan forwardItem
	ackCh  chan forwardItem

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
		ackDelay:    cfg.AckDelay,
		lossProb:    cfg.LossProb,
		jitterMed:   cfg.JitterMedian,
		jitterSigma: cfg.JitterSigma,
		rng:         rand.New(rand.NewSource(MixSeed(seed, 0x5153))),
		dataCh:      make(chan forwardItem, 1<<14),
		ackCh:       make(chan forwardItem, 1<<14),
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
	sh.inBase, sh.inCal = 0, false
	sh.done = make(chan struct{})
	sh.started = true
	sh.wg.Add(3)
	go sh.readLoop()
	go sh.forward(sh.dataCh, true)
	go sh.forward(sh.ackCh, false)
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
	now := sh.clock.Now()
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
	arrival := txEnd + sh.delay + jitter
	// Jitter is head-of-line blocking, exactly as in netem.Link:
	// delivery order is preserved, which also keeps the forwarder's
	// single-goroutine FIFO release correct.
	if arrival < sh.lastArrival {
		arrival = sh.lastArrival
	}
	sh.lastArrival = arrival
	sh.stats.SentBytes += int64(n)
	if lost {
		sh.stats.LostRandom++
		sh.mu.Unlock()
		return
	}
	b := sh.bufPool.Get()
	copy(b, buf[:n])
	StampArrival(b[:n], sh.clock.NanosAt(arrival))
	if !sh.enqueue(sh.dataCh, forwardItem{at: arrival, buf: b, n: n, toSender: seg}) {
		sh.bufPool.Put(b)
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
	now := sh.clock.Now()
	out := now + sh.ackDelay
	if out < sh.lastAckOut {
		out = sh.lastAckOut
	}
	sh.lastAckOut = out
	b := sh.bufPool.Get()
	copy(b, buf[:n])
	if !sh.enqueue(sh.ackCh, forwardItem{at: out, buf: b, n: n}) {
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
	now := sh.clock.Now()
	out := now + sh.ackDelay
	if out < sh.lastAckOut {
		out = sh.lastAckOut
	}
	sh.lastAckOut = out
	b := sh.bufPool.Get()
	copy(b, buf[:n])
	if !sh.enqueue(sh.ackCh, forwardItem{at: out, buf: b, n: n, toSender: true}) {
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

// forward releases ch's items at their deadlines, to the learned dialing
// endpoint or the configured destination; data says which counter an
// item is relayed under.
func (sh *Shim) forward(ch chan forwardItem, data bool) {
	defer sh.wg.Done()
	for {
		select {
		case <-sh.done:
			return
		case it := <-ch:
			if !sh.sleepUntil(it.at) {
				return
			}
			sh.mu.Lock()
			switch {
			case data:
				sh.stats.Delivered++
			case it.toSender:
				sh.stats.AcksRelay++
			default:
				sh.stats.FetchRelay++
			}
			to := sh.dst
			if it.toSender {
				to = sh.senderAddr
			}
			sh.mu.Unlock()
			sh.conn.WriteToUDP(it.buf[:it.n], to)
			sh.bufPool.Put(it.buf)
		}
	}
}
