//go:build linux && (amd64 || arm64)

package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// stagedPkt is one step of a staging script: a packet of size bytes to
// destination dst, or — with size 0 — gap bytes of arena skipped.
type stagedPkt struct{ dst, size, gap int }

func run(dst, size, n int) []stagedPkt {
	out := make([]stagedPkt, n)
	for i := range out {
		out[i] = stagedPkt{dst: dst, size: size}
	}
	return out
}

func script(parts ...[]stagedPkt) (out []stagedPkt) {
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// stage encodes the script through txBuf/queueTx exactly as flows do,
// every packet filled with its own index so a misplaced byte shows.
func stage(sh *shard, steps []stagedPkt, addr func(dst int) netip.AddrPort) {
	for i, st := range steps {
		if st.size == 0 {
			sh.txOff += st.gap
			continue
		}
		pkt := sh.txBuf()[:st.size]
		for j := range pkt {
			pkt[j] = byte(i + j)
		}
		sh.queueTx(pkt, addr(st.dst))
	}
}

func testDst(dst int) netip.AddrPort { return src(uint16(5000 + dst)) }

// fullArena gives sh its tx arena at the ceiling, batchSize × maxPacket,
// so a script of up to batchSize packets stages as one flush.
func fullArena(sh *shard) {
	sh.txArena = make([]byte, sh.batchSize*sh.maxPacket)
}

// entry is what one staged sendmmsg entry carries: destination,
// datagrams, iovecs, and the UDP_SEGMENT size (0 = plain send).
type entry struct{ dst, segs, iovs, seg int }

// TestGSOCeiling: the probed ceiling is what the kernel allows — a send
// of exactly that many segments goes out and one more is refused.
func TestGSOCeiling(t *testing.T) {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skip(err)
	}
	defer c.Close()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	rc.Control(func(fd uintptr) { serr = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) })
	if serr != nil {
		t.Skipf("no UDP GSO: %v", serr)
	}
	segs := gsoMaxSegs()
	t.Logf("UDP_MAX_SEGMENTS = %d", segs)
	if segs != 64 && segs != 128 {
		t.Fatalf("probe returned %d, want 64 or 128", segs)
	}
	if err := sendSegs(c, segs); err != nil {
		t.Fatalf("%d segments: %v", segs, err)
	}
	if err := sendSegs(c, segs+1); !errors.Is(err, syscall.EINVAL) {
		t.Fatalf("%d segments: %v, want EINVAL", segs+1, err)
	}
}

// TestBuildGSOStaging checks the entries a flush stages at both segment
// ceilings (cases that name theirs run at that one only); at 64 they are
// the ones a kernel allowing no more has always had.
func TestBuildGSOStaging(t *testing.T) {
	a400 := func(n int) []stagedPkt { return run(0, 400, n) }
	manyDsts := func() (steps []stagedPkt, want []entry) {
		for d := 0; d < gsoMaxDsts+2; d++ {
			steps = append(steps, run(d, 400, 2)...)
			if d < gsoMaxDsts {
				want = append(want, entry{d, 2, 1, 400})
			}
		}
		for d := gsoMaxDsts; d < gsoMaxDsts+2; d++ {
			want = append(want, entry{d, 1, 1, 0}, entry{d, 1, 1, 0})
		}
		return steps, want
	}
	overflowSteps, overflowWant := manyDsts()
	perEntry := func(segs int) []entry { return []entry{{0, segs, 1, 400}, {0, segs, 1, 400}, {0, 2, 1, 400}} }
	cases := []struct {
		name     string
		steps    []stagedPkt
		want     []entry
		ceilings []int // nil: both
	}{
		{"one run is one iovec", a400(64), []entry{{0, 64, 1, 400}}, nil},
		{"64 segments per entry", a400(130), perEntry(64), []int{64}},
		{"128 segments per entry", a400(258), perEntry(128), []int{128}},
		{"short tail stays in its iovec and closes the run",
			script(a400(5), run(0, 100, 1), a400(2)), []entry{{0, 6, 1, 400}, {0, 2, 1, 400}}, nil},
		{"larger packet opens an entry",
			script(a400(3), run(0, 800, 2)), []entry{{0, 3, 1, 400}, {0, 2, 1, 800}}, nil},
		{"size change opens an entry",
			script(a400(2), run(0, 100, 2)), []entry{{0, 3, 1, 400}, {0, 1, 1, 0}}, nil},
		{"byte ceiling opens an entry", // 46 × 1400 = 64 400 ≤ gsoMaxBytes < 47 × 1400
			run(0, 1400, 50), []entry{{0, 46, 1, 1400}, {0, 4, 1, 1400}}, nil},
		{"interleaved trains merge per destination",
			script(a400(8), run(1, 400, 8), a400(8)), []entry{{0, 16, 2, 400}, {1, 8, 1, 400}}, nil},
		{"interleaved packets merge only what is adjacent",
			script(a400(1), run(1, 400, 1), a400(1), run(1, 400, 1), a400(2)),
			[]entry{{0, 4, 3, 400}, {1, 2, 2, 400}}, nil},
		{"a gap in the arena is never merged across",
			script(a400(2), []stagedPkt{{gap: 400}}, a400(1)), []entry{{0, 3, 2, 400}}, nil},
		{"destinations beyond the table go out plain", overflowSteps, overflowWant, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ceilings := tc.ceilings
			if ceilings == nil {
				ceilings = []int{64, 128}
			}
			for _, segs := range ceilings {
				t.Run(fmt.Sprint(segs), func(t *testing.T) {
					sh := newTestShard(t, Config{BatchSize: 512})
					p := &udpPort{sh: sh} // staging needs no socket
					p.mmsg.initTx(sh.batchSize, segs)
					fullArena(sh)
					stage(sh, tc.steps, testDst)
					m := &p.mmsg
					n := p.buildGSO(sh.txq, sh.txAddrs)
					if n != len(tc.want) {
						t.Fatalf("%d entries, want %d", n, len(tc.want))
					}
					// Entries of one destination must carry its packets in queue
					// order: entry e's are the wsegs[e] after the taken[dst] that
					// earlier entries carried.
					taken := map[netip.AddrPort]int{}
					total := 0
					for e := 0; e < n; e++ {
						h := &m.whdrs[e].hdr
						dst := sockaddrToAddrPort(&m.wnames[e])
						got := entry{int(dst.Port()) - 5000, m.wsegs[e], int(h.Iovlen), 0}
						if h.Controllen > 0 {
							got.seg = int((*cmsgGSO)(unsafe.Pointer(h.Control)).size)
						}
						if got != tc.want[e] {
							t.Errorf("entry %d = %+v, want %+v", e, got, tc.want[e])
						}
						var sent, want []byte
						for _, v := range unsafe.Slice(h.Iov, h.Iovlen) {
							sent = append(sent, unsafe.Slice(v.Base, v.Len)...)
						}
						seen := 0
						for i := range sh.txq {
							if sh.txAddrs[i] != dst {
								continue
							}
							if seen >= taken[dst] && seen < taken[dst]+m.wsegs[e] {
								want = append(want, sh.txq[i]...)
							}
							seen++
						}
						taken[dst] += m.wsegs[e]
						total += m.wsegs[e]
						if !bytes.Equal(sent, want) {
							t.Errorf("entry %d: iovecs carry %d bytes that are not its %d packets' %d bytes",
								e, len(sent), m.wsegs[e], len(want))
						}
					}
					if total != len(sh.txq) {
						t.Errorf("entries carry %d datagrams, %d were queued", total, len(sh.txq))
					}
				})
			}
		})
	}
}

// TestTxArenaBounds pins the arena's contract: a full batch of
// full-size packets fits, a flush rewinds to offset 0, and queueTx
// refuses bytes that txBuf did not hand out. Its ceiling, 16 KiB, is
// below txArenaStart, so the arena starts at the ceiling.
func TestTxArenaBounds(t *testing.T) {
	sh := newTestShard(t, Config{BatchSize: 8, MaxPacket: 2048})
	if len(sh.txArena) != sh.batchSize*sh.maxPacket {
		t.Fatalf("arena of %d bytes, want the %d-byte ceiling", len(sh.txArena), sh.batchSize*sh.maxPacket)
	}
	for i := 0; i < sh.batchSize; i++ {
		if len(sh.txq) != i || sh.txOff != i*sh.maxPacket {
			t.Fatalf("before packet %d: %d queued at offset %d", i, len(sh.txq), sh.txOff)
		}
		sh.queueTx(sh.txBuf(), src(5000)) // the last one fills the batch and flushes
	}
	if len(sh.txq) != 0 || sh.txOff != 0 || &sh.txBuf()[0] != &sh.txArena[0] {
		t.Fatalf("after the flush: %d queued, offset %d", len(sh.txq), sh.txOff)
	}
	sh.queueTx(sh.txBuf()[:100], src(5000))
	if b := sh.txBuf(); &b[0] != &sh.txArena[100] || len(b) != sh.maxPacket || cap(b) != sh.maxPacket {
		t.Fatalf("next buffer: len %d cap %d, want maxPacket bytes at offset 100", len(b), cap(b))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("queueTx accepted a slice that is not the arena's next buffer")
		}
	}()
	sh.queueTx(make([]byte, 100), src(5000))
}

// arenaFor is the tx arena a shard ends at once it has staged full
// batches of size-byte packets: the smallest doubling of its first size
// that holds a batch, at most the ceiling.
func arenaFor(sh *shard, size int) int {
	ceil := sh.batchSize * sh.maxPacket
	n := min(max(txArenaStart, sh.maxPacket), ceil)
	for n < ceil && n < (sh.batchSize-1)*size+sh.maxPacket {
		n *= 2
	}
	return min(n, ceil)
}

// stagedBytes is what stage puts in step i's packet of size bytes.
func stagedBytes(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i + j)
	}
	return b
}

// TestTxArenaGrows: the tx arena starts at txArenaStart and doubles only
// when a packet might not fit. A receiver that only acks never grows it;
// a shard flushing full batches of 400 B packets ends at the smallest
// doubling that holds one; and a flush that makes room for the growth
// sends what it holds — every packet arrives byte-identical and in
// order, on a memPort and on real loopback.
func TestTxArenaGrows(t *testing.T) {
	t.Run("ack-only", func(t *testing.T) {
		// Reads of BatchSize in-order data packets, ackEvery for each of
		// 256 flows, as the receiver of a bulk transfer sees them.
		sh := newTestShard(t, Config{BatchSize: 1024})
		sh.wh.init(sh.clock.Now())
		p := sh.port.(*memPort)
		for round := int64(0); round < 8; round++ {
			for id := uint32(1); id <= 256; id++ {
				for k := int64(0); k < ackEvery; k++ {
					p.push(src(9000), dataPkt(t, id, round*ackEvery+k, 400))
				}
			}
			sh.pass()
		}
		if got := sh.st.TxPkts; got < 8*256 || sh.st.TxBatches != 8 {
			t.Fatalf("%d acks in %d flushes, want at least 256 in each of 8", got, sh.st.TxBatches)
		}
		if len(sh.txArena) != txArenaStart {
			t.Fatalf("an ack-only shard grew its arena to %d bytes", len(sh.txArena))
		}
	})
	t.Run("memPort", func(t *testing.T) {
		sh := newTestShard(t, Config{BatchSize: 1024})
		if len(sh.txArena) != txArenaStart {
			t.Fatalf("first arena %d bytes, want %d", len(sh.txArena), txArenaStart)
		}
		var got [][]byte
		var dsts []netip.AddrPort
		sh.port.(*memPort).send = func(dst netip.AddrPort, b []byte) {
			got, dsts = append(got, append([]byte(nil), b...)), append(dsts, dst)
		}
		steps := script(run(0, 400, sh.batchSize), run(1, 400, sh.batchSize), run(0, 400, sh.batchSize))
		stage(sh, steps, testDst)
		sh.flushTx()
		if want := arenaFor(sh, 400); len(sh.txArena) != want {
			t.Fatalf("arena ended at %d bytes, want %d", len(sh.txArena), want)
		}
		if len(sh.txq) != 0 || len(got) != len(steps) {
			t.Fatalf("%d of %d packets sent, %d still staged", len(got), len(steps), len(sh.txq))
		}
		if b := sh.st.TxBatches; b <= 3 {
			t.Fatalf("%d flushes: no growth flush", b)
		}
		for i, st := range steps {
			if !bytes.Equal(got[i], stagedBytes(i, st.size)) || dsts[i] != testDst(st.dst) {
				t.Fatalf("packet %d sent to %s differs from the one staged to %s", i, dsts[i], testDst(st.dst))
			}
		}
	})
	t.Run("loopback", func(t *testing.T) {
		tx, err := New(Config{BatchSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Stop()
		rx, err := New(Config{BatchSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Stop()
		sh, rsh := tx.shards[0], rx.shards[0]
		steps := run(0, 400, 200) // 80 000 bytes: one growth flush on the way
		stage(sh, steps, func(int) netip.AddrPort { return rsh.local })
		sh.flushTx()
		if len(sh.txArena) != 2*txArenaStart || sh.st.TxBatches != 2 {
			t.Fatalf("%d flushes, arena %d bytes: want a growth flush and a %d-byte arena",
				sh.st.TxBatches, len(sh.txArena), 2*txArenaStart)
		}
		var got [][]byte
		deadline := time.Now().Add(5 * time.Second)
		for len(got) < len(steps) && time.Now().Before(deadline) {
			n := rsh.port.readBatch(100 * time.Millisecond)
			for i := 0; i < n; i++ {
				b := rsh.rxBufs[i][:rsh.rxLens[i]]
				g := rsh.rxSegs[i]
				if g <= 0 {
					g = len(b)
				}
				for off := 0; off < len(b); off += g {
					got = append(got, append([]byte(nil), b[off:min(off+g, len(b))]...))
				}
			}
		}
		if len(got) != len(steps) {
			t.Fatalf("%d datagrams arrived, want %d", len(got), len(steps))
		}
		for i, st := range steps {
			if !bytes.Equal(got[i], stagedBytes(i, st.size)) {
				t.Fatalf("datagram %d differs from the one staged", i)
			}
		}
	})
}

// TestTxArenaZeroAllocsAtCeiling: once the arena is at its ceiling,
// staging and flushing full batches allocates nothing and keeps it.
func TestTxArenaZeroAllocsAtCeiling(t *testing.T) {
	sh := newTestShard(t, Config{BatchSize: 1024})
	ceil := sh.batchSize * sh.maxPacket
	stage(sh, run(0, sh.maxPacket, 2*sh.batchSize), testDst)
	sh.flushTx()
	if len(sh.txArena) != ceil {
		t.Fatalf("full-size batches grew the arena to %d bytes, want the %d-byte ceiling", len(sh.txArena), ceil)
	}
	arena := &sh.txArena[0]
	steps := script(run(0, 400, sh.batchSize/2), run(1, 1200, sh.batchSize/2))
	if allocs := testing.AllocsPerRun(10, func() { stage(sh, steps, testDst) }); allocs != 0 {
		t.Fatalf("a full batch at the ceiling allocates %.1f times, want 0", allocs)
	}
	if &sh.txArena[0] != arena || len(sh.txq) != 0 {
		t.Fatalf("the arena moved, or %d packets are left staged", len(sh.txq))
	}
}

// TestWriteBatchLoopbackRoundTrip sends one real flush — a run longer
// than the segment ceiling, mixed sizes, a short tail, two destinations
// interleaved — and requires every datagram to arrive byte-identical and
// in per-destination order at UDP_GRO sockets (two unstarted shards read
// by hand through readBatch).
func TestWriteBatchLoopbackRoundTrip(t *testing.T) {
	tx, err := New(Config{BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Stop()
	rx, err := New(Config{Shards: 2, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Stop()
	sh := tx.shards[0]
	fullArena(sh)
	steps := script(run(0, 400, gsoMaxSegs()+6), run(1, 200, 10), run(0, 400, 5), run(0, 1200, 3),
		run(0, 300, 1), run(1, 200, 4), run(1, 90, 1), run(0, 1200, 2))
	stage(sh, steps, func(dst int) netip.AddrPort { return rx.shards[dst].local })
	want := make([][][]byte, 2)
	for i, st := range steps {
		want[st.dst] = append(want[st.dst], append([]byte(nil), sh.txq[i]...))
	}
	sh.flushTx()
	m := &sh.port.(*udpPort).mmsg
	if got := sh.st.TxPkts; got != int64(len(steps)) || m.wSkip != 0 {
		t.Fatalf("flush sent %d of %d datagrams, %d skipped", got, len(steps), m.wSkip)
	}
	if m.gso && m.wsegs[0] != gsoMaxSegs() {
		t.Fatalf("the first run went out as %d segments, want the probed ceiling %d", m.wsegs[0], gsoMaxSegs())
	}
	for d, rsh := range rx.shards {
		var got [][]byte
		deadline := time.Now().Add(5 * time.Second)
		for len(got) < len(want[d]) && time.Now().Before(deadline) {
			n := rsh.port.readBatch(100 * time.Millisecond)
			for i := 0; i < n; i++ {
				b := rsh.rxBufs[i][:rsh.rxLens[i]]
				g := rsh.rxSegs[i]
				if g <= 0 {
					g = len(b)
				}
				for off := 0; off < len(b); off += g {
					got = append(got, append([]byte(nil), b[off:min(off+g, len(b))]...))
				}
			}
		}
		if len(got) != len(want[d]) {
			t.Fatalf("destination %d: %d datagrams arrived, want %d", d, len(got), len(want[d]))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[d][i]) {
				t.Fatalf("destination %d datagram %d: %d bytes arrived, want %d, or content differs",
					d, i, len(got[i]), len(want[d][i]))
			}
		}
	}
}

// rxStaging is shard 0 of an unstarted engine, read by hand, on a
// UDP_GRO socket or one with GRO off, and a plain socket sending it
// numbered datagrams — one per rx slot, since loopback coalesces nothing
// a plain socket sends.
type rxStaging struct {
	t    *testing.T
	sh   *shard
	tx   *net.UDPConn
	sent int
	got  []int // arrivals per sequence number
}

func newRxStaging(t *testing.T, batch int, gro bool) *rxStaging {
	t.Helper()
	eng, err := New(Config{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Stop() })
	sh := eng.shards[0]
	p := sh.port.(*udpPort)
	if gro && !p.mmsg.gro {
		t.Skip("no UDP_GRO")
	}
	if !gro {
		// As on a kernel without UDP_GRO (where the option fails, and is
		// off anyway): maxPacket slots, BatchSize of them at the ceiling.
		p.mmsg.rc.Control(func(fd uintptr) { syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 0) })
		p.mmsg.gro = false
		sh.rxBufs, sh.rxLens, sh.rxSrcs, sh.rxSegs = nil, nil, nil, nil
		p.initRx()
	}
	tx, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(sh.local))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	return &rxStaging{t: t, sh: sh, tx: tx}
}

// send sends n datagrams: a byte that is no packet type, then the
// sequence number.
func (r *rxStaging) send(n int) {
	var b [64]byte
	b[0] = 'x'
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[8:], uint64(r.sent))
		if _, err := r.tx.Write(b[:]); err != nil {
			r.t.Fatal(err)
		}
		r.sent++
		r.got = append(r.got, 0)
	}
}

// note counts the n datagrams the last read staged.
func (r *rxStaging) note(n int) {
	for i := 0; i < n; i++ {
		b := r.sh.rxBufs[i][:r.sh.rxLens[i]]
		g := r.sh.rxSegs[i]
		if g <= 0 {
			g = len(b)
		}
		for off := 0; off < len(b); off += g {
			r.got[binary.LittleEndian.Uint64(b[off+8:])]++
		}
	}
}

// received is the number of datagrams that have arrived, duplicates
// included.
func (r *rxStaging) received() (n int) {
	for _, c := range r.got {
		n += c
	}
	return n
}

// TestRxStagingGrows: a GRO socket stages one slot, doubles the staging
// only after a read that filled it, never beyond min(BatchSize, 32), and
// keeps the buffers it had — every datagram of the bursts that make it
// grow arrives exactly once.
func TestRxStagingGrows(t *testing.T) {
	for _, batch := range []int{24, 1024} { // a ceiling that is no power of two, and 32
		t.Run(fmt.Sprint(batch), func(t *testing.T) {
			checkRxStagingGrows(t, newRxStaging(t, batch, true), min(batch, 32), groBufSize)
		})
	}
}

// TestRxStagingGrowsWithoutGRO: with GRO off the staging follows the same
// rule, in maxPacket slots up to BatchSize of them.
func TestRxStagingGrowsWithoutGRO(t *testing.T) {
	for _, batch := range []int{24, 64} {
		t.Run(fmt.Sprint(batch), func(t *testing.T) {
			r := newRxStaging(t, batch, false)
			checkRxStagingGrows(t, r, batch, r.sh.maxPacket)
		})
	}
}

// checkRxStagingGrows drives r's staging from one slot of size bytes to
// ceil slots and back through full reads at the ceiling.
func checkRxStagingGrows(t *testing.T, r *rxStaging, ceil, size int) {
	sh := r.sh
	if len(sh.rxBufs) != 1 || sh.rxCeil != ceil || len(sh.rxBufs[0]) != size {
		t.Fatalf("staged %d slots of %d bytes with ceiling %d, want 1 of %d and %d",
			len(sh.rxBufs), len(sh.rxBufs[0]), sh.rxCeil, size, ceil)
	}
	want := 1 // the staging the next read must use
	var kept []*byte
	read := func() {
		n := sh.port.readBatch(100 * time.Millisecond)
		staged := len(sh.rxBufs)
		if staged != want {
			t.Fatalf("a read staged %d slots, want %d", staged, want)
		}
		for i, p := range kept {
			if &sh.rxBufs[i][0] != p {
				t.Fatalf("growth to %d slots replaced slot %d's buffer", staged, i)
			}
		}
		for i := len(kept); i < staged; i++ {
			kept = append(kept, &sh.rxBufs[i][0])
		}
		if n == staged {
			want = min(2*staged, ceil)
		}
		r.note(n)
	}
	drain := func() {
		deadline := time.Now().Add(5 * time.Second)
		for r.received() < r.sent && time.Now().Before(deadline) {
			read()
		}
	}
	read() // nothing to read: no growth
	// Each burst is twice the staging: one full read, which doubles
	// it, then a partial one, which must not.
	for len(sh.rxBufs) < ceil {
		r.send(2 * len(sh.rxBufs))
		drain()
	}
	r.send(3 * ceil) // full reads at the ceiling: no growth
	drain()
	if len(sh.rxBufs) != ceil {
		t.Fatalf("staging ended at %d slots, want %d", len(sh.rxBufs), ceil)
	}
	for seq, c := range r.got {
		if c != 1 {
			t.Fatalf("datagram %d of %d arrived %d times", seq, r.sent, c)
		}
	}
}

// TestRxStagingZeroAllocsAtCeiling: once the staging is at its ceiling,
// full reads allocate nothing.
func TestRxStagingZeroAllocsAtCeiling(t *testing.T) {
	r := newRxStaging(t, 1024, true)
	sh := r.sh
	for deadline := time.Now().Add(5 * time.Second); len(sh.rxBufs) < sh.rxCeil && time.Now().Before(deadline); {
		r.send(len(sh.rxBufs))
		for r.received() < r.sent && time.Now().Before(deadline) {
			r.note(sh.port.readBatch(100 * time.Millisecond))
		}
	}
	if len(sh.rxBufs) != sh.rxCeil {
		t.Fatalf("staging stuck at %d of %d slots", len(sh.rxBufs), sh.rxCeil)
	}
	const runs = 4
	r.send((runs + 1) * sh.rxCeil) // AllocsPerRun reads once more to warm up
	full := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if sh.port.readBatch(0) == sh.rxCeil {
			full++
		}
	})
	if allocs != 0 {
		t.Fatalf("a read at the ceiling allocates %.1f times, want 0", allocs)
	}
	if full != runs+1 || len(sh.rxBufs) != sh.rxCeil {
		t.Fatalf("%d of %d reads were full, staging %d slots", full, runs+1, len(sh.rxBufs))
	}
}

// TestRxSaturationOnlyAtCeiling: a full read the port answers by growing
// the staging is not overload — the EWMA stays 0 while the staging grows
// — and full reads at the ceiling still raise it.
func TestRxSaturationOnlyAtCeiling(t *testing.T) {
	r := newRxStaging(t, 1024, true)
	sh := r.sh
	sh.wh.init(sh.clock.Now())
	deadline := time.Now().Add(5 * time.Second)
	for len(sh.rxBufs) < sh.rxCeil && time.Now().Before(deadline) {
		r.send(len(sh.rxBufs))
		for sh.st.BadPkts < int64(r.sent) && time.Now().Before(deadline) {
			sh.pass()
			if sh.rxFullEWMA != 0 && len(sh.rxBufs) < sh.rxCeil {
				t.Fatalf("a read into %d of %d slots counted as rx saturation (EWMA %.3f)",
					len(sh.rxBufs), sh.rxCeil, sh.rxFullEWMA)
			}
		}
	}
	if len(sh.rxBufs) != sh.rxCeil {
		t.Fatalf("staging stuck at %d of %d slots", len(sh.rxBufs), sh.rxCeil)
	}
	for sh.rxFullEWMA == 0 && time.Now().Before(deadline) {
		r.send(sh.rxCeil)
		for sh.st.BadPkts < int64(r.sent) && time.Now().Before(deadline) {
			sh.pass()
		}
	}
	if sh.rxFullEWMA == 0 {
		t.Fatal("full reads at the ceiling never raised the rx saturation EWMA")
	}
	if got := sh.st.BadPkts; got != int64(r.sent) {
		t.Fatalf("%d datagrams dispatched, %d sent", got, r.sent)
	}
}
