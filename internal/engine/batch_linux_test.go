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
		{"without GSO every packet is its own entry", // a socket without UDP GSO stages at ceiling 1
			script(a400(2), run(1, 400, 2), run(0, 100, 1), run(1, 800, 1)),
			[]entry{{0, 1, 1, 0}, {0, 1, 1, 0}, {0, 1, 1, 0}, {1, 1, 1, 0}, {1, 1, 1, 0}, {1, 1, 1, 0}}, []int{1}},
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

// TestTxArenaBounds pins the arena's contract: it is batchSize ×
// maxPacket bytes, a full batch of full-size packets fits, a flush
// rewinds to offset 0, and queueTx refuses bytes that txBuf did not hand
// out.
func TestTxArenaBounds(t *testing.T) {
	sh := newTestShard(t, Config{BatchSize: 8})
	if len(sh.txArena) != sh.batchSize*maxPacket {
		t.Fatalf("arena of %d bytes, want %d", len(sh.txArena), sh.batchSize*maxPacket)
	}
	for i := 0; i < sh.batchSize; i++ {
		if len(sh.txq) != i || sh.txOff != i*maxPacket {
			t.Fatalf("before packet %d: %d queued at offset %d", i, len(sh.txq), sh.txOff)
		}
		sh.queueTx(sh.txBuf(), src(5000)) // the last one fills the batch and flushes
	}
	if len(sh.txq) != 0 || sh.txOff != 0 || &sh.txBuf()[0] != &sh.txArena[0] {
		t.Fatalf("after the flush: %d queued, offset %d", len(sh.txq), sh.txOff)
	}
	sh.queueTx(sh.txBuf()[:100], src(5000))
	if b := sh.txBuf(); &b[0] != &sh.txArena[100] || len(b) != maxPacket || cap(b) != maxPacket {
		t.Fatalf("next buffer: len %d cap %d, want maxPacket bytes at offset 100", len(b), cap(b))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("queueTx accepted a slice that is not the arena's next buffer")
		}
	}()
	sh.queueTx(make([]byte, 100), src(5000))
}

// TestTxArenaZeroAllocsAtCeiling: staging and flushing full batches
// allocates nothing and keeps the arena where it is.
func TestTxArenaZeroAllocsAtCeiling(t *testing.T) {
	sh := newTestShard(t, Config{BatchSize: 1024})
	arena := &sh.txArena[0]
	steps := script(run(0, 400, sh.batchSize/2), run(1, 1200, sh.batchSize/2))
	stage(sh, steps, testDst) // AllocsPerRun runs once more to warm up
	if allocs := testing.AllocsPerRun(10, func() { stage(sh, steps, testDst) }); allocs != 0 {
		t.Fatalf("a full batch allocates %.1f times, want 0", allocs)
	}
	if &sh.txArena[0] != arena || len(sh.txq) != 0 || sh.st.TxBatches != 12 {
		t.Fatalf("the arena moved, or %d packets are left staged after %d flushes", len(sh.txq), sh.st.TxBatches)
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

// rxStaging is shard 0 of an unstarted engine on a UDP_GRO socket, read
// by hand, and a plain socket sending it numbered datagrams — one per rx
// slot, since loopback coalesces nothing a plain socket sends.
type rxStaging struct {
	t    *testing.T
	sh   *shard
	tx   *net.UDPConn
	sent int
	got  []int // arrivals per sequence number
}

func newRxStaging(t *testing.T, batch int) *rxStaging {
	t.Helper()
	eng, err := New(Config{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Stop() })
	sh := eng.shards[0]
	if !sh.port.(*udpPort).mmsg.gro {
		t.Skip("no UDP_GRO")
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

// TestRxStagingZeroAllocsAtCeiling: reads that fill every rx slot
// allocate nothing.
func TestRxStagingZeroAllocsAtCeiling(t *testing.T) {
	r := newRxStaging(t, 1024)
	sh := r.sh
	if sh.rxCeil != groMaxSlots || len(sh.rxBufs) != groMaxSlots || len(sh.rxBufs[0]) != groBufSize {
		t.Fatalf("%d slots of %d bytes, ceiling %d: want %d of %d", len(sh.rxBufs), len(sh.rxBufs[0]),
			sh.rxCeil, groMaxSlots, groBufSize)
	}
	const runs = 4
	r.send((runs + 1) * sh.rxCeil) // AllocsPerRun reads once more to warm up
	full := 0
	allocs := testing.AllocsPerRun(runs, func() {
		n := sh.port.readBatch(100 * time.Millisecond)
		r.note(n)
		if n == sh.rxCeil {
			full++
		}
	})
	if allocs != 0 {
		t.Fatalf("a read at the ceiling allocates %.1f times, want 0", allocs)
	}
	if full != runs+1 {
		t.Fatalf("%d of %d reads were full", full, runs+1)
	}
	for seq, c := range r.got {
		if c != 1 {
			t.Fatalf("datagram %d of %d arrived %d times", seq, r.sent, c)
		}
	}
}

// TestRxSaturationOnlyAtCeiling: reads that leave a slot free are not
// overload — the EWMA stays 0 — and reads that fill every slot raise it.
func TestRxSaturationOnlyAtCeiling(t *testing.T) {
	r := newRxStaging(t, 1024)
	sh := r.sh
	sh.wh.init(sh.clock.Now())
	deadline := time.Now().Add(5 * time.Second)
	for round := 0; round < 8; round++ {
		r.send(sh.rxCeil - 1)
		for sh.st.BadPkts < int64(r.sent) && time.Now().Before(deadline) {
			sh.pass()
			if sh.rxFullEWMA != 0 {
				t.Fatalf("a read into at most %d of %d slots counted as rx saturation (EWMA %.3f)",
					sh.rxCeil-1, sh.rxCeil, sh.rxFullEWMA)
			}
		}
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
	if sh.st.RxSlotsPeak != sh.rxCeil {
		t.Fatalf("RxSlotsPeak %d, want the ceiling %d", sh.st.RxSlotsPeak, sh.rxCeil)
	}
}
