//go:build linux && (amd64 || arm64)

package engine

import (
	"bytes"
	"net/netip"
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
	cases := []struct {
		name  string
		steps []stagedPkt
		want  []entry
	}{
		{"one run is one iovec", a400(64), []entry{{0, 64, 1, 400}}},
		{"64 segments per entry", a400(130), []entry{{0, 64, 1, 400}, {0, 64, 1, 400}, {0, 2, 1, 400}}},
		{"short tail stays in its iovec and closes the run",
			script(a400(5), run(0, 100, 1), a400(2)), []entry{{0, 6, 1, 400}, {0, 2, 1, 400}}},
		{"larger packet opens an entry",
			script(a400(3), run(0, 800, 2)), []entry{{0, 3, 1, 400}, {0, 2, 1, 800}}},
		{"size change opens an entry",
			script(a400(2), run(0, 100, 2)), []entry{{0, 3, 1, 400}, {0, 1, 1, 0}}},
		{"byte ceiling opens an entry", // 46 × 1400 = 64 400 ≤ gsoMaxBytes < 47 × 1400
			run(0, 1400, 50), []entry{{0, 46, 1, 1400}, {0, 4, 1, 1400}}},
		{"interleaved trains merge per destination",
			script(a400(8), run(1, 400, 8), a400(8)), []entry{{0, 16, 2, 400}, {1, 8, 1, 400}}},
		{"interleaved packets merge only what is adjacent",
			script(a400(1), run(1, 400, 1), a400(1), run(1, 400, 1), a400(2)),
			[]entry{{0, 4, 3, 400}, {1, 2, 2, 400}}},
		{"a gap in the arena is never merged across",
			script(a400(2), []stagedPkt{{gap: 400}}, a400(1)), []entry{{0, 3, 2, 400}}},
		{"destinations beyond the table go out plain", overflowSteps, overflowWant},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := newTestShard(t, Config{BatchSize: 256})
			p := &udpPort{sh: sh} // staging needs no socket
			p.mmsg.initTx(sh.batchSize)
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
}

// TestTxArenaBounds pins the arena's contract: a full batch of
// full-size packets fits, a flush rewinds to offset 0, and queueTx
// refuses bytes that txBuf did not hand out.
func TestTxArenaBounds(t *testing.T) {
	sh := newTestShard(t, Config{BatchSize: 8, MaxPacket: 2048})
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

// TestWriteBatchLoopbackRoundTrip sends one real flush — a run longer
// than 64 segments, mixed sizes, a short tail, two destinations
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
	steps := script(run(0, 400, 70), run(1, 200, 10), run(0, 400, 5), run(0, 1200, 3),
		run(0, 300, 1), run(1, 200, 4), run(1, 90, 1), run(0, 1200, 2))
	stage(sh, steps, func(dst int) netip.AddrPort { return rx.shards[dst].local })
	want := make([][][]byte, 2)
	for i, st := range steps {
		want[st.dst] = append(want[st.dst], append([]byte(nil), sh.txq[i]...))
	}
	sh.flushTx()
	if got, skipped := sh.ctr.txPkts.Load(), sh.port.(*udpPort).mmsg.wSkip; got != int64(len(steps)) || skipped != 0 {
		t.Fatalf("flush sent %d of %d datagrams, %d skipped", got, len(steps), skipped)
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
