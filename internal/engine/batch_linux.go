//go:build linux && (amd64 || arm64)

package engine

// Batched socket I/O via raw recvmmsg/sendmmsg. The stdlib syscall
// package exposes the syscall numbers but not the wrappers, and the
// module deliberately takes no external dependencies, so the mmsghdr
// plumbing lives here. The struct layout below is the 64-bit one
// (struct msghdr is 56 bytes, so msg_len pads to an 8-byte boundary),
// which is why the build tag pins amd64/arm64 — every other platform
// takes the single-message fallback in batch_generic.go. Ports are
// stored byte-swapped into the raw sockaddrs because both supported
// architectures are little-endian while the kernel reads network
// byte order.
//
// All staging memory (headers, iovecs, sockaddrs) is preallocated at
// shard init, and the RawConn callbacks are bound once, so the
// per-batch syscall path allocates nothing. The datagram bytes — rx
// slots and tx arena — are one anonymous mapping per socket, off the Go
// heap (initRx).
//
// What a send costs inside the kernel follows the iovec count, not
// only the entry count: the shard encodes its packets back to back in
// one tx arena (shard.txBuf/queueTx), so buildGSO can describe a whole
// same-destination run with one iovec instead of one per datagram.

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// UDP GSO (generic segmentation offload): a UDP_SEGMENT control
// message turns one sendmsg into many equal-size datagrams split by
// the kernel, collapsing the dominant per-datagram socket/route cost
// into one traversal. The engine's tx batches group naturally — all
// of a flow's packets share one destination, and peer engines expose
// only a handful of shard addresses — so a flush becomes a few
// segmented sends instead of hundreds of entries. Probed per socket
// at init; absent support (pre-4.18 kernels), the same staging runs at
// a one-segment ceiling, one datagram per entry.
const (
	solUDP     = 17
	udpSegment = 103
	udpGRO     = 104
	// gsoMaxBytes keeps the concatenated payload under the 16-bit UDP
	// length; the segment ceiling is the kernel's (gsoMaxSegs).
	gsoMaxBytes = 65000
	// gsoMaxDsts bounds the per-flush destination-grouping table; a
	// flush seeing more distinct destinations sends the overflow as
	// plain one-datagram entries.
	gsoMaxDsts = 16
	// groBufSize must hold the largest GRO super-skb the kernel can
	// coalesce (64KiB), else the tail would truncate. A shard stages
	// groMaxSlots of them (2 MiB of address space, backed page by page
	// as datagrams land): one slot carries a whole train, and with a
	// 128-slot ceiling 99.5 % of engine-bulk's reads filled ≤ 32 slots
	// and 99.2 % of engine-churn's ≤ 8. A deeper backlog waits in the
	// socket buffer; the next read finds it without blocking.
	groBufSize  = 1 << 16
	groMaxSlots = 32
)

// cmsgGSO is CMSG_SPACE(2) worth of control data: a cmsghdr (16
// bytes, cmsg_len = CMSG_LEN(2) = 18) carrying the uint16 segment
// size, padded to the 8-byte cmsg alignment.
type cmsgGSO struct {
	clen  uint64
	level int32
	typ   int32
	size  uint16
	_     [6]byte
}

// cmsgGRO receives the kernel's UDP_GRO segment-size annotation on a
// coalesced datagram: same cmsghdr, int-sized payload.
type cmsgGRO struct {
	clen  uint64
	level int32
	typ   int32
	size  int32
	_     [4]byte
}

// gsoMaxSegs is the kernel's UDP_MAX_SEGMENTS, the most segments one
// UDP_SEGMENT send may carry: 64 on older kernels, 128 on newer ones.
// The kernel does not export it, so it is probed once per process with
// one send of 128 one-byte segments from a throwaway loopback socket to
// its own address — success means 128, an error (EINVAL) the floor of
// 64. The probe never touches a shard's socket.
var gsoMaxSegs = sync.OnceValue(func() int {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err == nil {
		defer c.Close()
		err = sendSegs(c, 128)
	}
	if err != nil {
		return 64
	}
	return 128
})

// sendSegs sends n one-byte UDP_SEGMENT segments from c to its own
// address in one sendmsg.
func sendSegs(c *net.UDPConn, n int) error {
	ctrl := cmsgGSO{clen: 18, level: solUDP, typ: udpSegment, size: 1}
	_, _, err := c.WriteMsgUDPAddrPort(make([]byte, n),
		unsafe.Slice((*byte)(unsafe.Pointer(&ctrl)), unsafe.Sizeof(ctrl)),
		c.LocalAddr().(*net.UDPAddr).AddrPort())
	return err
}

// mmsgState is the preallocated staging area for one shard's batched
// reads and writes, plus the bound RawConn callbacks.
type mmsgState struct {
	rc syscall.RawConn

	mem    []byte // the mapping the rx slots and tx arena are cut from
	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames []syscall.RawSockaddrInet6
	rctrl  []cmsgGRO
	gro    bool

	whdrs  []mmsghdr
	wiovs  []syscall.Iovec
	wnames []syscall.RawSockaddrInet6

	// GSO staging: the segment ceiling a run closes at, per-entry control
	// messages and segment counts, and the per-flush destination grouping
	// (group): the first gsoMaxDsts destinations, and the packet indices
	// ordered by destination — the overflow last — with gend[d] the end
	// of destination d's run in gord and gend[gsoMaxDsts] the overflow's.
	gso   bool
	segs  int
	wctrl []cmsgGSO
	wsegs []int
	gdst  [gsoMaxDsts]netip.AddrPort
	gend  [gsoMaxDsts + 1]int
	gord  []int

	readFn  func(fd uintptr) bool
	pollFn  func(fd uintptr) // readFn once, never parking
	writeFn func(fd uintptr) bool

	rGot  int
	rErr  syscall.Errno
	wOff  int
	wTot  int
	wSkip int64 // datagrams dropped on per-message send errors
	wSoft bool  // last flush attempt hit ENOBUFS/ENOMEM (retryable)
}

// initTx allocates the write staging for flushes of up to n datagrams,
// GSO runs closing at segs; it needs no socket, so the staging tests run
// buildGSO without one.
func (m *mmsgState) initTx(n, segs int) {
	m.segs = segs
	m.whdrs = make([]mmsghdr, n)
	m.wiovs = make([]syscall.Iovec, n)
	m.wnames = make([]syscall.RawSockaddrInet6, n)
	m.wctrl = make([]cmsgGSO, n)
	m.wsegs = make([]int, n)
	m.gord = make([]int, n)
	for i := 0; i < n; i++ {
		m.whdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.wnames[i]))
		m.whdrs[i].hdr.Iov = &m.wiovs[i]
		m.whdrs[i].hdr.Iovlen = 1
	}
}

func (p *udpPort) initBatch() error {
	sh := p.sh
	rc, err := p.conn.SyscallConn()
	if err != nil {
		return err
	}
	m := &p.mmsg
	m.rc = rc
	rc.Control(func(fd uintptr) {
		// Setting UDP_SEGMENT to 0 is a no-op that succeeds exactly
		// when the kernel implements UDP GSO. UDP_GRO=1 asks the
		// kernel to coalesce bursts of same-flow datagrams into one
		// buffer annotated with the segment size.
		m.gso = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
		m.gro = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	})
	// Without GSO every entry is one datagram: the same staging at a
	// one-segment ceiling.
	segs := 1
	if m.gso {
		segs = gsoMaxSegs()
	}
	m.initTx(sh.batchSize, segs)
	m.readFn = func(fd uintptr) bool {
		r1, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&m.rhdrs[0])), uintptr(len(m.rhdrs)),
			syscall.MSG_DONTWAIT, 0, 0)
		if errno == syscall.EAGAIN {
			return false // park on the netpoller until readable
		}
		m.rErr = errno
		if errno == 0 {
			m.rGot = int(r1)
		}
		return true
	}
	m.pollFn = func(fd uintptr) { m.readFn(fd) }
	m.writeFn = func(fd uintptr) bool {
		r1, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&m.whdrs[m.wOff])), uintptr(m.wTot-m.wOff),
			syscall.MSG_DONTWAIT, 0, 0)
		if errno == syscall.EAGAIN {
			return false // park until writable
		}
		if errno == syscall.ENOBUFS || errno == syscall.ENOMEM {
			// Kernel buffer exhaustion: the message is fine, the host is
			// not. Retryable — writeBatch backs off and resends the same
			// offset instead of dropping.
			m.wSoft = true
			return true
		}
		if errno != 0 {
			// sendmmsg reports an errno only when the *first* message
			// failed; skip it so the batch cannot spin, and let the
			// remainder go out on the next pass.
			m.wSkip += int64(m.wsegs[m.wOff])
			m.wOff++
			return true
		}
		m.wOff += int(r1)
		return true
	}
	return p.initRx()
}

// initRx maps the socket's buffers — the rx slots, then the tx arena —
// as one anonymous region and points every slot's iovec into it once. The
// kernel backs a page only when a datagram is written into it, so what a
// socket holds follows its traffic page by page, and the collector never
// counts it toward its heap goal. A slot is maxPacket bytes and there are
// BatchSize of them, or with GRO a slot holds a whole coalesced train —
// anything smaller than the 64KiB super-skb ceiling would truncate
// coalesced tails — and there are groMaxSlots. Huge pages are refused: one
// would back 2 MiB at the first write.
func (p *udpPort) initRx() error {
	sh, m := p.sh, &p.mmsg
	rn, size := sh.batchSize, maxPacket
	if m.gro {
		rn, size = min(rn, groMaxSlots), groBufSize
	}
	mem, err := syscall.Mmap(-1, 0, sh.bufSize(rn, size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return fmt.Errorf("engine: mapping socket buffers: %w", err)
	}
	_ = syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE) // fails only where there are no huge pages
	m.mem = mem
	sh.stage(mem, rn, size)
	m.rhdrs = make([]mmsghdr, rn)
	m.riovs = make([]syscall.Iovec, rn)
	m.rnames = make([]syscall.RawSockaddrInet6, rn)
	m.rctrl = make([]cmsgGRO, rn)
	for i, b := range sh.rxBufs {
		m.riovs[i].Base = &b[0]
		m.riovs[i].SetLen(len(b))
		m.rhdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.rnames[i]))
		m.rhdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		m.rhdrs[i].hdr.Iov = &m.riovs[i]
		m.rhdrs[i].hdr.Iovlen = 1
		if m.gro {
			m.rhdrs[i].hdr.Control = (*byte)(unsafe.Pointer(&m.rctrl[i]))
			m.rhdrs[i].hdr.SetControllen(24)
		}
	}
	return nil
}

// release unmaps the socket's buffers and leaves the shard none, so a
// late touch panics on an empty slice instead of faulting on a page.
func (p *udpPort) release() {
	if m := &p.mmsg; m.mem != nil {
		_ = syscall.Munmap(m.mem) // fails only for a slice Mmap did not return
		m.mem = nil
		p.sh.stage(nil, 0, 0)
	}
}

// readBatch stages up to rxCeil datagrams in one recvmmsg, blocking up
// to wait for the first. Returns the count (0 on timeout, so timers
// run), or -1 on a closed socket. With wait ≤ 0 it still issues one
// non-blocking recvmmsg: RawConn.Read would return i/o timeout on an
// already-expired deadline without making the syscall at all.
func (p *udpPort) readBatch(wait time.Duration) int {
	sh, m := p.sh, &p.mmsg
	// Namelen and Controllen are value-result and the control payload
	// goes stale, but the kernel writes them only in the messages it
	// returned: restore the previous call's rGot, not every slot.
	for i := range m.rhdrs[:m.rGot] {
		m.rhdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		if m.gro {
			m.rhdrs[i].hdr.SetControllen(24)
			m.rctrl[i] = cmsgGRO{}
		}
	}
	m.rGot, m.rErr = 0, 0
	var err error
	if wait <= 0 {
		err = m.rc.Control(m.pollFn)
	} else {
		p.parkRead(wait)
		err = m.rc.Read(m.readFn)
	}
	if err != nil {
		if isTimeout(err) {
			return 0
		}
		return -1
	}
	if m.rErr != 0 {
		// Transient receive error (e.g. queued ICMP): count nothing,
		// keep the loop alive.
		return 0
	}
	got := m.rGot
	for i := 0; i < got; i++ {
		sh.rxLens[i] = int(m.rhdrs[i].n)
		sh.rxSrcs[i] = sockaddrToAddrPort(&m.rnames[i])
		sh.rxSegs[i] = 0
		if m.gro {
			if c := &m.rctrl[i]; c.level == solUDP && c.typ == udpGRO && c.size > 0 {
				sh.rxSegs[i] = int(c.size)
			}
		}
	}
	return got
}

// writeBatch sends every staged packet with as few sendmmsg calls as
// partial sends allow, coalescing same-destination runs into UDP GSO
// segmented sends when the kernel supports them (m.segs > 1).
// Undeliverable datagrams are dropped — UDP semantics, same as the
// fallback path.
func (p *udpPort) writeBatch(pkts [][]byte, addrs []netip.AddrPort) {
	sh, m := p.sh, &p.mmsg
	m.wTot = p.buildGSO(pkts, addrs)
	m.wOff = 0
	p.conn.SetWriteDeadline(time.Now().Add(10 * time.Millisecond))
	// ENOBUFS/ENOMEM adaptive backoff: the socket stays "writable" (no
	// netpoller park), so spinning would burn the core while starving
	// the kernel of the grace it needs to drain. Micro-sleep with
	// doubling instead, retrying the same offset; after the retry
	// budget, fall back to dropping the head message so the flush
	// always terminates inside the write deadline.
	softSleep := 50 * time.Microsecond
	softTries, sawSoft := 0, false
	for m.wOff < m.wTot {
		m.wSoft = false
		if err := m.rc.Write(m.writeFn); err != nil {
			p.noteTxFlush(pkts, true)
			return // closed or write-deadline: drop the remainder
		}
		if m.wSoft {
			sawSoft = true
			sh.st.TxSoftErrs++
			if softTries++; softTries > 6 {
				m.wSkip += int64(m.wsegs[m.wOff])
				m.wOff++
				continue
			}
			time.Sleep(softSleep)
			if softSleep < 2*time.Millisecond {
				softSleep *= 2
			}
		}
	}
	p.noteTxFlush(pkts, sawSoft)
}

// noteTxFlush feeds the overload detector's tx signals after a flush:
// the soft-error streak and the unsent fraction of this batch.
func (p *udpPort) noteTxFlush(pkts [][]byte, soft bool) {
	sh, m := p.sh, &p.mmsg
	if soft {
		sh.txErrStreak++
	} else {
		sh.txErrStreak = 0
	}
	unsent := 0
	for i := m.wOff; i < m.wTot; i++ {
		unsent += m.wsegs[i]
	}
	sh.txBacklog = float64(unsent) / float64(len(pkts))
}

// group orders the flush's packet indices by destination into gord, a
// stable counting sort: the first gsoMaxDsts distinct destinations in
// order of first appearance, then the overflow, each run in queue order.
// It returns the number of destinations grouped.
func (m *mmsgState) group(addrs []netip.AddrPort) int {
	nd := 0
	slot := func(a netip.AddrPort) int {
		d := 0
		for d < nd && m.gdst[d] != a {
			d++
		}
		return d // nd: not yet seen; gsoMaxDsts: the overflow
	}
	m.gend = [gsoMaxDsts + 1]int{}
	for _, a := range addrs {
		d := slot(a)
		if d == nd && nd < gsoMaxDsts {
			m.gdst[nd] = a
			nd++
		}
		m.gend[d]++
	}
	start := 0
	for d, c := range m.gend {
		m.gend[d], start = start, start+c
	}
	for i, a := range addrs {
		d := slot(a)
		m.gord[m.gend[d]] = i
		m.gend[d]++
	}
	return nd
}

// buildGSO stages the flush as segmented sendmmsg entries: packets
// are bucketed by destination (order within a destination — and so
// within a flow — is preserved), and each bucket becomes runs of
// equal-size segments sharing one msghdr, the kernel splitting them
// back into datagrams. A run closes at the kernel's segment ceiling
// (m.segs), at the UDP length ceiling, or on a size change — a single
// smaller packet may close a run as its final short segment. A packet
// that begins where the previous one of its entry ended extends that
// iovec instead of opening a new one (addresses compared as integers;
// no pointer past the arena is formed). Returns the entry count.
func (p *udpPort) buildGSO(pkts [][]byte, addrs []netip.AddrPort) int {
	m := &p.mmsg
	nd := m.group(addrs)
	e, iov := 0, 0
	put := func(idxs []int, dst netip.AddrPort) {
		for len(idxs) > 0 {
			segSize := len(pkts[idxs[0]])
			segs, bytes, first := 0, 0, iov
			var end uintptr // one past the entry's last packet; 0 = no packet yet
			for _, i := range idxs {
				sz := len(pkts[i])
				if segs == m.segs || bytes+sz > gsoMaxBytes || sz > segSize {
					break
				}
				p := uintptr(unsafe.Pointer(&pkts[i][0]))
				if p == end {
					m.wiovs[iov-1].Len += uint64(sz) // begins where the last one ended
				} else {
					m.wiovs[iov].Base = &pkts[i][0]
					m.wiovs[iov].SetLen(sz)
					iov++
				}
				end = p + uintptr(sz)
				segs++
				bytes += sz
				if sz < segSize {
					break // shorter packet: legal only as the final segment
				}
			}
			h := &m.whdrs[e].hdr
			h.Iov = &m.wiovs[first]
			h.Iovlen = uint64(iov - first)
			h.Namelen = putSockaddr(&m.wnames[e], dst, p.v6)
			if segs > 1 {
				m.wctrl[e] = cmsgGSO{clen: 18, level: solUDP, typ: udpSegment, size: uint16(segSize)}
				h.Control = (*byte)(unsafe.Pointer(&m.wctrl[e]))
				h.SetControllen(24)
			} else {
				h.Control = nil
				h.SetControllen(0)
			}
			m.wsegs[e] = segs
			e++
			idxs = idxs[segs:]
		}
	}
	start := 0
	for d := 0; d < nd; d++ {
		put(m.gord[start:m.gend[d]], m.gdst[d])
		start = m.gend[d]
	}
	// Overflow destinations (beyond the grouping table): one plain
	// entry per packet.
	for _, i := range m.gord[start:len(addrs)] {
		m.wiovs[iov].Base = &pkts[i][0]
		m.wiovs[iov].SetLen(len(pkts[i]))
		h := &m.whdrs[e].hdr
		h.Iov = &m.wiovs[iov]
		h.Iovlen = 1
		h.Namelen = putSockaddr(&m.wnames[e], addrs[i], p.v6)
		h.Control = nil
		h.SetControllen(0)
		m.wsegs[e] = 1
		e++
		iov++
	}
	return e
}

// putSockaddr fills sa for dst and returns the sockaddr length. v4
// destinations on a v6 socket use the 4-in-6 mapped form.
func putSockaddr(sa *syscall.RawSockaddrInet6, dst netip.AddrPort, v6 bool) uint32 {
	port := dst.Port()
	if !v6 {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		sa4.Family = syscall.AF_INET
		sa4.Port = port<<8 | port>>8
		sa4.Addr = dst.Addr().Unmap().As4()
		return syscall.SizeofSockaddrInet4
	}
	sa.Family = syscall.AF_INET6
	sa.Port = port<<8 | port>>8
	sa.Addr = dst.Addr().As16()
	return syscall.SizeofSockaddrInet6
}

// sockaddrToAddrPort decodes a kernel-filled source sockaddr,
// unmapping 4-in-6 so flow-table keys are uniform across socket
// families.
func sockaddrToAddrPort(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), sa4.Port<<8|sa4.Port>>8)
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), sa.Port<<8|sa.Port>>8)
	}
	return netip.AddrPort{}
}
