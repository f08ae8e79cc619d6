package engine

import (
	"net/netip"
	"time"

	"pccproteus/internal/wire"
)

// memPort is a shard's port in memory: the shard reads what push put in
// its inbox and writes through send. Nothing blocks and no goroutine
// runs — the port's owner calls the shard's pass(): a SimNet's simulator,
// at the times wakeAt names, or a harness stepping its own clock.
type memPort struct {
	sh  *shard
	clk wire.Clock

	inbox []memDatagram // pushed, not yet read
	free  [][]byte      // buffers a read has emptied, for push to refill

	// send carries one written datagram towards dst; b is only the port's
	// until send returns. Nil discards what the shard writes.
	send func(dst netip.AddrPort, b []byte)
	// wakeAt asks the owner for a pass() at time at (clock seconds) if
	// none is due sooner. Nil when the owner steps the shard by hand.
	wakeAt func(at float64)
	parked bool // the last read found nothing: the loop would be asleep
	closed bool
}

type memDatagram struct {
	src netip.AddrPort
	b   []byte
}

// newMemPort stages rx slots without buffers — readBatch swaps them in —
// and a tx arena on the heap.
func newMemPort(sh *shard, clk wire.Clock) *memPort {
	sh.stage(make([]byte, sh.bufSize(sh.batchSize, 0)), sh.batchSize, 0)
	return &memPort{sh: sh, clk: clk}
}

func (p *memPort) clock() wire.Clock { return p.clk }

func (p *memPort) run() { p.wake() }

func (p *memPort) close() { p.closed = true }

func (p *memPort) release() {}

// wake runs on the owner's goroutine like everything else here: an
// in-memory engine is driven from one goroutine, AddFlow included.
func (p *memPort) wake() {
	if p.wakeAt != nil {
		p.wakeAt(p.clk.Now())
	}
}

// push delivers one datagram from src, copying b — all of it that a
// receive buffer holds, as a socket would.
func (p *memPort) push(src netip.AddrPort, b []byte) {
	var buf []byte
	if n := len(p.free); n > 0 {
		buf, p.free = p.free[n-1], p.free[:n-1]
	} else {
		buf = make([]byte, maxPacket)
	}
	p.inbox = append(p.inbox, memDatagram{src, buf[:copy(buf, b)]})
	p.wake()
}

// turn is the owner's event: run the loop until it would sleep. The read
// that parks it has already asked for the next turn.
func (p *memPort) turn() {
	for p.parked = false; !p.parked && p.sh.pass(); {
	}
}

// readBatch hands over the inbox. An empty one parks the loop: the socket
// read would now sleep for wait, so the next turn is due then — or, when
// a timer is already due and the socket loop would spin through passes
// until the wheel's slot comes round, at that slot's boundary.
func (p *memPort) readBatch(wait time.Duration) int {
	if p.closed {
		return -1
	}
	sh := p.sh
	n := min(len(p.inbox), len(sh.rxBufs))
	if n == 0 {
		p.parked = true
		if p.wakeAt != nil {
			at := sh.wh.curTime
			if wait > 0 {
				at = p.clk.Now() + wait.Seconds()
			}
			p.wakeAt(at)
		}
		return 0
	}
	for i, d := range p.inbox[:n] {
		// The inbox's buffer becomes the staging slot, the slot's (if any)
		// the next push's: both are maxPacket bytes.
		if b := sh.rxBufs[i]; b != nil {
			p.free = append(p.free, b[:maxPacket])
		}
		sh.rxBufs[i], sh.rxLens[i], sh.rxSrcs[i], sh.rxSegs[i] = d.b[:maxPacket], len(d.b), d.src, 0
	}
	p.inbox = p.inbox[:copy(p.inbox, p.inbox[n:])]
	return n
}

func (p *memPort) writeBatch(pkts [][]byte, addrs []netip.AddrPort) {
	if p.send == nil {
		return
	}
	for i, b := range pkts {
		p.send(addrs[i], b)
	}
}
