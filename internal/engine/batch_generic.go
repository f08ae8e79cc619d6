//go:build !linux || !(amd64 || arm64)

package engine

import (
	"math"
	"net/netip"
	"time"
)

// mmsgState is empty on the portable fallback: no batch syscalls, so
// no mmsghdr/iovec staging to keep.
type mmsgState struct{}

// initBatch stages the one slot a read fills and the tx arena, on the
// heap. A one-datagram read says nothing about keeping up with arrival,
// so it never counts as rx saturation: the ceiling is out of its reach.
func (p *udpPort) initBatch() error {
	sh := p.sh
	sh.stage(make([]byte, sh.bufSize(1, maxPacket)), 1, maxPacket)
	sh.rxCeil = math.MaxInt
	return nil
}

func (p *udpPort) release() {}

// minReadWait is the shortest read deadline the fallback sets: a
// deadline that has already expired makes the read return i/o timeout
// without issuing the syscall, so a due timer must still leave the
// read a moment in the future.
const minReadWait = 20 * time.Microsecond

// readBatch on the fallback reads exactly one datagram per call with
// the ordinary blocking read — the portable half of the batch-I/O
// matrix. Returns the number of datagrams staged (0 on timeout, so
// the event loop runs its timers), or -1 when the socket is closed.
func (p *udpPort) readBatch(wait time.Duration) int {
	sh := p.sh
	p.parkRead(max(wait, minReadWait))
	n, src, err := p.conn.ReadFromUDPAddrPort(sh.rxBufs[0])
	if err != nil {
		if isTimeout(err) {
			return 0
		}
		if isClosed(err) {
			return -1
		}
		// Transient errors (ICMP unreachable bursts) must not kill the
		// shard; yield briefly and let the loop continue.
		time.Sleep(time.Millisecond)
		return 0
	}
	sh.rxLens[0] = n
	sh.rxSrcs[0] = netip.AddrPortFrom(src.Addr().Unmap(), src.Port())
	return 1
}

// writeBatch on the fallback is a plain write loop; datagrams that
// fail to send are dropped, exactly as a full socket buffer drops
// them on the batched path. Send errors still feed the overload
// detector's streak signal so buffer exhaustion is visible here too.
func (p *udpPort) writeBatch(pkts [][]byte, addrs []netip.AddrPort) {
	sh := p.sh
	errs := 0
	for i, b := range pkts {
		if _, err := p.conn.WriteToUDPAddrPort(b, addrs[i]); err != nil && !isClosed(err) {
			errs++
		}
	}
	if errs > 0 {
		sh.st.TxSoftErrs += int64(errs)
		sh.txErrStreak++
	} else {
		sh.txErrStreak = 0
	}
	sh.txBacklog = float64(errs) / float64(len(pkts))
}
