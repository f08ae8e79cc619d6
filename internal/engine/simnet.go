package engine

import (
	"math"
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
// earliest-departure time (depart; Shim enters its path by the same
// rule), so a train commits the pacer's schedule to the path, while one
// emitted after its stamp, by a late wheel slot, enters late.
type SimNet struct {
	s     *sim.Sim
	clk   wire.Clock
	ports map[netip.AddrPort]*memPort
	free  payloads // datagram buffers, shared by every route
}

// NewSimNet returns an empty network on s.
func NewSimNet(s *sim.Sim) *SimNet {
	return &SimNet{s: s, clk: wire.VirtualClock(s.Now), ports: make(map[netip.AddrPort]*memPort)}
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
		p.send = func(netip.AddrPort, []byte) {} // no route: the datagram is lost, as on any network
		var due sim.Timer                        // the next turn, if dueAt is finite
		dueAt := math.Inf(1)
		turn := func() { dueAt = math.Inf(1); p.turn() }
		p.wakeAt = func(at float64) { // Reset takes a fresh sequence number, as At does
			if at < dueAt {
				if dueAt = at; !due.Reset(at) {
					due = *n.s.At(at, turn) // At inlines: the handle is copied, not allocated
				}
			}
		}
		sh.attach(p, local)
		n.ports[local] = p
		e.shards = append(e.shards, sh)
	}
	return e
}

// Connect joins two endpoints by path. Whichever way a datagram goes,
// its frame picks its route (pathRoute). Faults and schedules applied to
// the path (pathmodel.Install, chaos.ApplySim) apply to the datagrams.
func (n *SimNet) Connect(a, b netip.AddrPort, path *netem.Path) {
	pa, pb := n.ports[a], n.ports[b]
	pa.send = via(pa.send, b, pathRoute(n.s, n.clk, path, 0, &n.free, func(buf []byte) { pb.push(a, buf) }))
	pb.send = via(pb.send, a, pathRoute(n.s, n.clk, path, 0, &n.free, func(buf []byte) { pa.push(b, buf) }))
}

// via binds route to a port: it returns send with the datagrams for peer
// handed to route instead, an address compare where a map would hash.
func via(send func(netip.AddrPort, []byte), peer netip.AddrPort, route func(b []byte)) func(netip.AddrPort, []byte) {
	return func(dst netip.AddrPort, b []byte) {
		if dst != peer {
			send(dst, b)
			return
		}
		route(b)
	}
}

// pathRoute wraps path, on s, as the route to deliver, which a datagram
// crosses by its frame, the rule a Shim relays by: data and fetch
// segments cross the bottleneck and reach deliver with their arrival
// field stamped — clk reading the arrival, offset by a clock-jump fault;
// acks, BUSY frames and fetch requests take the return path. s runs lag
// seconds behind clk (zero on a SimNet), so the path's delays must be lag
// shorter than the ones it models. SimNet.Connect and Shim build their
// routes here.
// A datagram rides a buffer from free on a packet from path.Link's pool,
// both handed back when deliver returns (it keeps no bytes) or the first
// queue tail-drops it.
func pathRoute(s *sim.Sim, clk wire.Clock, path *netem.Path, lag float64, free *payloads, deliver func(b []byte)) func(b []byte) {
	done := func(p *netem.Packet) { *free = append(*free, p.Payload); path.Link.Release(p) }
	arrive := func(p *netem.Packet, at float64) {
		wire.StampArrival(*p.Payload, clk.NanosAt(at+lag+path.StampOffset))
		deliver(*p.Payload)
		done(p)
	}
	land := func(p *netem.Packet, _ float64) { deliver(*p.Payload); done(p) }
	ret := path.AckDelay + lag
	fwd := depart(s, clk, ret, path.Link, free, func(p *netem.Packet) {
		if !path.Send(p, arrive) {
			done(p)
		}
	})
	rev := depart(s, clk, ret, path.Link, free, func(p *netem.Packet) { path.SendAck(s.Now(), land, p, 0) })
	return func(b []byte) {
		if t := wire.PacketType(b); t == 'P' || t == 'S' {
			fwd(b)
			return
		}
		rev(b)
	}
}

// depart wraps one direction of a path as a route: the datagram, copied
// into a buffer from free, enters it at its departure time (queued on the
// route's lane, or an event of its own if stamped before the lane's last)
// or at once if s has passed that. A datagram departs when it is handed
// over — clk's now — unless it says otherwise: a data packet or fetch
// request at its send stamp, a segment when its request reached the
// server, ret after the request's stamp. On a SimNet a segment is never
// handed over before that; a simulator running behind the clock books
// the server's turnaround out of it.
func depart(s *sim.Sim, clk wire.Clock, ret float64, link *netem.Link, free *payloads, enter func(p *netem.Packet)) func(b []byte) {
	lane, enterFn := s.NewLane(), func(arg any) { enter(arg.(*netem.Packet)) }
	return func(b []byte) {
		p := link.NewPacket()
		p.Size, p.Payload = len(b), free.fill(b)
		at := clk.Now()
		switch wire.PacketType(b) {
		case 'P':
			if h, _ := wire.DecodeData(b); h.SentAt != 0 {
				at = clk.SecondsSince(h.SentAt)
			}
		case 'F':
			if h, _ := wire.DecodeFetch(b); h.SentAt != 0 {
				at = clk.SecondsSince(h.SentAt)
			}
		case 'S':
			if h, _, _ := wire.DecodeSegment(b); h.SentAtEcho != 0 {
				at = clk.SecondsSince(h.SentAtEcho) + ret
			}
		}
		if at > s.Now() {
			lane.AtArg(at, enterFn, p)
			return
		}
		enter(p)
	}
}

// payloads is a free list of datagram buffers; fill copies b into one.
type payloads []*[]byte

func (f *payloads) fill(b []byte) (buf *[]byte) {
	if n := len(*f); n == 0 {
		buf = new([]byte)
	} else {
		buf, *f = (*f)[n-1], (*f)[:n-1]
	}
	*buf = append((*buf)[:0], b...)
	return buf
}
