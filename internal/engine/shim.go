package engine

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"time"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/wire"
)

// Shim puts a static netem.Path between real sockets: a UDP relay on
// 127.0.0.1 whose datagrams cross the path on a sim.Sim driven by the
// host's clock, so `proteusd demo`, the -shim flags and the fetch-lossy
// workload get the link model every virtual-time gate uses, without root.
// Data and fetch segments cross the bottleneck (serialisation into a
// tail-drop queue, propagation delay, random loss); acks, BUSY frames and
// fetch requests take the return path. Data and requests come from the
// sender, whose address is learned from them; the rest go back to it.
//
// One goroutine owns the socket and the simulator: it runs what is due,
// reads until the next event's time, and hands each datagram to its route
// by the rule a SimNet route enters by (depart). The simulator runs a
// fixed lag behind the host's clock and the path's delays are that much
// shorter, so a datagram the host delivered late — a sender's late wake,
// the relay's own, a server's turnaround — still enters at its departure
// time and no host timing reaches an RTT sample. Stop and Stats belong
// to the goroutine that built the shim, and Stats is read after Stop.
type Shim struct {
	conn   *net.UDPConn
	dst    netip.AddrPort // the receiver or fetch server
	sender netip.AddrPort
	s      *sim.Sim
	clk    wire.Clock
	lag    float64 // how far s runs behind clk
	path   *netem.Path
	stats  wire.ShimStats
	free   payloads // datagram buffers, shared by the two routes

	toDst, toSender func(b []byte) // routes across the path

	done chan struct{} // closed when the relay has returned
}

// relayLag is how far a relay's simulator runs behind the host's clock,
// unless a path delay is shorter: the most host lateness a datagram can
// carry and still enter the path on time. It must cover the relay's own
// read deadlines, which fire up to a few milliseconds late on a loaded
// host, and an engine loop's nap of about a millisecond before it sends
// a late train or answers a request.
const relayLag = 0.005

// NewShim opens the relay's socket on 127.0.0.1 in front of dst, on the
// path newPath builds from cfg, and starts the relay.
func NewShim(cfg wire.ShimConfig, dst netip.AddrPort) (*Shim, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := sim.New(wire.MixSeed(cfg.Seed, 0x5153))
	path, lag, err := newPath(s, cfg, relayLag)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	conn.SetReadBuffer(1 << 21)
	conn.SetWriteBuffer(1 << 21)
	sh := &Shim{conn: conn, dst: netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port()), s: s,
		clk: wire.NewClock(), lag: lag, path: path, done: make(chan struct{})}
	sh.toDst = pathRoute(s, sh.clk, path, lag, &sh.free, func(b []byte) {
		if wire.PacketType(b) == 'F' {
			sh.stats.FetchRelay++
		}
		sh.write(b, sh.dst)
	})
	sh.toSender = pathRoute(s, sh.clk, path, lag, &sh.free, func(b []byte) {
		if wire.PacketType(b) != 'S' {
			sh.stats.AcksRelay++
		}
		sh.write(b, sh.sender)
	})
	go sh.run()
	return sh, nil
}

// newPath builds the path cfg describes on s, for a simulator that runs
// up to lag seconds behind the clock its datagrams are stamped by. The
// lag it takes is the least of lag and the two delays, and it returns
// that lag and the path with both delays that much shorter. A zero
// QueueBytes is 1.5 × the path's bandwidth-delay product. A Shim builds
// its relay's path here and a Loopback its SimNet paths, with no lag.
func newPath(s *sim.Sim, cfg wire.ShimConfig, lag float64) (*netem.Path, float64, error) {
	nonNeg := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) } // finite; false for NaN
	if !nonNeg(cfg.RateMbps) || cfg.RateMbps == 0 || !nonNeg(cfg.Delay) || !nonNeg(cfg.AckDelay) ||
		!(cfg.LossProb >= 0 && cfg.LossProb <= 1) || cfg.QueueBytes < 0 {
		return nil, 0, fmt.Errorf("engine: a path needs a finite positive rate, finite non-negative delays, "+
			"a loss probability in [0, 1] and a non-negative queue: %+v", cfg)
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = max(int(1.5*cfg.RateMbps*1e6/8*(cfg.Delay+cfg.AckDelay)), netem.MTU)
	}
	lag = min(lag, cfg.Delay, cfg.AckDelay)
	link := netem.NewLink(s, cfg.RateMbps, cfg.QueueBytes, cfg.Delay-lag)
	link.LossProb = cfg.LossProb
	return &netem.Path{Link: link, AckDelay: cfg.AckDelay - lag}, lag, nil
}

// Addr returns the address senders should dial.
func (sh *Shim) Addr() netip.AddrPort { return sh.conn.LocalAddr().(*net.UDPAddr).AddrPort() }

// Stop closes the socket and waits for the relay to return; what is
// still on the path is lost.
func (sh *Shim) Stop() {
	sh.conn.Close()
	<-sh.done
}

// Stats returns the shim's counters. Read them after Stop.
func (sh *Shim) Stats() wire.ShimStats { return withLink(sh.stats, sh.path.Link) }

// withLink returns st with its bottleneck counters read off link.
func withLink(st wire.ShimStats, link *netem.Link) wire.ShimStats {
	ls := link.Stats()
	st.Enqueued, st.Dropped, st.LostRandom, st.Delivered, st.SentBytes =
		ls.Enqueued, ls.Dropped, ls.LostRandom, ls.Delivered, ls.SentBytes
	return st
}

func (sh *Shim) run() {
	defer close(sh.done)
	buf := make([]byte, 64<<10)
	for {
		var deadline time.Time // none while nothing is queued
		if at := sh.s.Next(); !math.IsInf(at, 1) {
			deadline = time.Now().Add(time.Duration((at + sh.lag - sh.clk.Now()) * float64(time.Second)))
		}
		sh.conn.SetReadDeadline(deadline)
		n, src, err := sh.conn.ReadFromUDPAddrPort(buf)
		if isClosed(err) {
			return
		}
		sh.s.Run(sh.clk.Now() - sh.lag)
		if err != nil {
			continue // the deadline: the next event was due; or a transient error
		}
		switch b := buf[:n]; wire.PacketType(b) {
		case 'P', 'F':
			sh.sender = src
			sh.toDst(b)
		case 'S', 'A', 'Y':
			sh.toSender(b)
		}
	}
}

// write sends b to its endpoint; a write that fails on a socket Stop has
// not closed counts as Overflow.
func (sh *Shim) write(b []byte, to netip.AddrPort) {
	if _, err := sh.conn.WriteToUDPAddrPort(b, to); err != nil && !isClosed(err) {
		sh.stats.Overflow++
	}
}
