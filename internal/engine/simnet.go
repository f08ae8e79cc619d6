package engine

import (
	"net/netip"

	"pccproteus/internal/netem"
	"pccproteus/internal/sim"
	"pccproteus/internal/wire"
)

// SimNet is an in-memory network in virtual time: engines whose shards
// are endpoints on it, joined by netem.Paths, everything scheduled on one
// sim.Sim. The engines run the production shard code unchanged — flow
// table, wheel, pacer, codecs, overload machine — with the simulator
// calling each shard's pass() where a goroutine would: when a datagram
// arrives, and when the read would have timed out. A run is one
// goroutine's work and repeats bit for bit.
//
// What it does not model is the host: wake-up jitter, GSO/GRO
// coalescing, ENOBUFS. And a datagram that carries a send stamp leaves
// its port at that stamp, not at the head of its train — the stamp is an
// earliest-departure time (wire.Shim honours it the same way), so a
// train commits the pacer's schedule to the path, while one emitted
// after its stamp, by a late wheel slot, enters late.
type SimNet struct {
	s      *sim.Sim
	clk    wire.Clock
	ports  map[netip.AddrPort]*memPort
	routes map[[2]netip.AddrPort]func(b []byte)
}

// NewSimNet returns an empty network on s.
func NewSimNet(s *sim.Sim) *SimNet {
	return &SimNet{
		s: s, clk: wire.VirtualClock(s.Now),
		ports:  make(map[netip.AddrPort]*memPort),
		routes: make(map[[2]netip.AddrPort]func(b []byte)),
	}
}

// NewEngine builds an engine whose shards are endpoints on the network,
// at addresses of the network's choosing (Addrs). ListenIP and
// ListenPort are not used. Everything that touches the engine, AddFlow
// included, must run on the goroutine that runs the simulator.
func (n *SimNet) NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults(), done: make(chan struct{})}
	for i := 0; i < e.cfg.Shards; i++ {
		k := len(n.ports) + 1
		local := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(k >> 8), byte(k)}), 9000)
		sh := newShard(e, i)
		p := newMemPort(sh, n.clk)
		p.send = func(dst netip.AddrPort, b []byte) {
			if route := n.routes[[2]netip.AddrPort{local, dst}]; route != nil {
				route(b) // no route: the datagram is lost, as on any network
			}
		}
		var due *sim.Timer // the next turn
		var dueAt float64
		p.wakeAt = func(at float64) {
			switch {
			case due == nil:
				due = n.s.At(at, func() { due = nil; p.turn() })
			case at < dueAt:
				due.Reset(at)
			default:
				return
			}
			dueAt = at
		}
		sh.attach(p, local)
		n.ports[local] = p
		e.shards = append(e.shards, sh)
	}
	return e
}

// Connect joins two endpoints by path: datagrams from → to cross its
// forward links, bottleneck and all; datagrams to → from take its return
// path, a delay — the way a sender's data and its acks, or a fetch
// server's segments and their requests, use a netem.Path. Faults and
// schedules applied to the path (pathmodel.Install, chaos.ApplySim)
// apply to the datagrams.
func (n *SimNet) Connect(from, to netip.AddrPort, path *netem.Path) {
	src, dst := n.ports[from], n.ports[to]
	arrive := func(p *netem.Packet, at float64) {
		// The receiver's clock reads the arrival, offset by a clock-jump
		// fault: the stamp a shim would have written.
		wire.StampArrival(*p.Payload, n.clk.NanosAt(at+path.StampOffset))
		dst.push(from, *p.Payload)
	}
	n.routes[[2]netip.AddrPort{from, to}] = n.depart(func(p *netem.Packet) { path.Send(p, arrive) })
	back := func(p *netem.Packet, _ float64) { src.push(to, *p.Payload) }
	n.routes[[2]netip.AddrPort{to, from}] = n.depart(func(p *netem.Packet) { path.SendAck(n.s.Now(), back, p, 0) })
}

// depart wraps one direction of a path as a route: a copy of the datagram
// enters it now, or at its send stamp if that is still ahead.
func (n *SimNet) depart(enter func(p *netem.Packet)) func(b []byte) {
	return func(b []byte) {
		payload := append([]byte(nil), b...)
		p := &netem.Packet{Size: len(b), Payload: &payload}
		var stamp int64
		switch wire.PacketType(b) {
		case 'P':
			h, _ := wire.DecodeData(b)
			stamp = h.SentAt
		case 'F':
			h, _ := wire.DecodeFetch(b)
			stamp = h.SentAt
		}
		if at := n.clk.SecondsSince(stamp); stamp != 0 && at > n.s.Now() {
			n.s.Schedule(at, func() { enter(p) })
			return
		}
		enter(p)
	}
}
