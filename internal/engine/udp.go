package engine

import (
	"errors"
	"net"
	"os"
	"time"

	"pccproteus/internal/wire"
)

// udpPort is a shard's port on a real socket: the host clock, one UDP
// socket read and written in batches (batch_linux.go; one datagram per
// call in batch_generic.go), and a goroutine that loops on pass().
type udpPort struct {
	sh   *shard
	clk  wire.Clock
	conn *net.UDPConn
	v6   bool
	mmsg mmsgState // per-arch batch-syscall state (empty struct on fallback)
}

func newUDPPort(sh *shard, conn *net.UDPConn, clk wire.Clock) (*udpPort, error) {
	// As large as default net.core.{r,w}mem_max allow: at engine rates a
	// shard can be heads-down in timer work for a full batch's duration,
	// and skb overhead (~2× truesize for small datagrams) halves the
	// effective packet capacity.
	conn.SetReadBuffer(1 << 22)
	conn.SetWriteBuffer(1 << 22)
	p := &udpPort{sh: sh, clk: clk, conn: conn, v6: conn.LocalAddr().(*net.UDPAddr).IP.To4() == nil}
	return p, p.initBatch()
}

func (p *udpPort) clock() wire.Clock { return p.clk }

func (p *udpPort) run() {
	p.sh.eng.wg.Add(1)
	go p.sh.loop()
}

func (p *udpPort) close() { p.conn.Close() }

// isTimeout reports whether a socket read ended on its deadline.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// isClosed reports whether a socket call failed because the socket is
// closed.
func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrClosed)
}

// longAgo is a read deadline that has always expired.
var longAgo = time.Unix(1, 0)

// wake is the read deadline pulled into the past, from the caller's
// goroutine.
func (p *udpPort) wake() { p.conn.SetReadDeadline(longAgo) }

// parkRead sets the deadline of the read the loop is about to block in.
// enqueue raises admitWake before it pulls the deadline back, and
// parkRead looks at admitWake after it pushed the deadline out: whichever
// order the two run in, the later deadline write is an expired one and
// the read returns at once, so a wake is never lost.
func (p *udpPort) parkRead(wait time.Duration) {
	p.conn.SetReadDeadline(time.Now().Add(wait))
	if p.sh.admitWake.Load() {
		p.conn.SetReadDeadline(longAgo)
	}
}
