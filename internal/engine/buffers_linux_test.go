//go:build linux && (amd64 || arm64)

package engine

import (
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// The lifecycle of a socket's buffers: one anonymous mapping per socket
// (initRx), backed page by page as datagrams land, unmapped by Stop once
// no loop runs. The race detector does not instrument mapped memory, so
// these tests, not -race, are what watch it.

// mincore is mincore(2) over b: one byte per page, bit 0 set where the
// page is backed by memory; ENOMEM where part of b is not mapped at all.
func mincore(b []byte) ([]byte, syscall.Errno) {
	ps := syscall.Getpagesize()
	vec := make([]byte, (len(b)+ps-1)/ps)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&b[0])),
		uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0])))
	return vec, errno
}

// resident reports which of b's pages are backed by memory.
func resident(t *testing.T, b []byte) []bool {
	t.Helper()
	vec, errno := mincore(b)
	if errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	out := make([]bool, len(vec))
	for i, v := range vec {
		out[i] = v&1 != 0
	}
	return out
}

// slotPages counts the resident pages of each rx slot of sh, and of its
// tx arena.
func slotPages(t *testing.T, sh *shard) (slots []int, tx int) {
	t.Helper()
	pages := resident(t, sh.port.(*udpPort).mmsg.mem)
	per := groBufSize / syscall.Getpagesize()
	slots = make([]int, sh.rxCeil)
	for i, r := range pages {
		switch {
		case !r:
		case i < sh.rxCeil*per:
			slots[i/per]++
		default:
			tx++
		}
	}
	return slots, tx
}

// TestSocketBuffersResidency: a socket's mapping is backed only where the
// kernel or the shard wrote. A socket that reads and sends only ack-sized
// datagrams holds the first page of each slot a read filled and of its
// tx arena; one that took full GRO reads of GSO trains holds whole slots.
func TestSocketBuffersResidency(t *testing.T) {
	acks := newRxStaging(t, 32)
	bulk := newRxStaging(t, 32)
	for _, r := range []*rxStaging{acks, bulk} {
		if slots, tx := slotPages(t, r.sh); sum(slots)+tx != 0 {
			t.Fatalf("%d pages resident before any traffic", sum(slots)+tx)
		}
	}

	// Acks: bursts of 8 datagrams of 64 bytes, read by hand, and one
	// flush of 16 ack-sized packets back.
	for burst := 0; burst < 4; burst++ {
		acks.send(8)
		for deadline := time.Now().Add(5 * time.Second); acks.received() < acks.sent && time.Now().Before(deadline); {
			acks.note(acks.sh.port.readBatch(100 * time.Millisecond))
		}
	}
	if acks.received() != acks.sent {
		t.Fatalf("%d of %d datagrams arrived", acks.received(), acks.sent)
	}
	back := acks.tx.LocalAddr().(*net.UDPAddr).AddrPort()
	stage(acks.sh, run(0, 64, 16), func(int) netip.AddrPort { return back })
	acks.sh.flushTx()
	slots, tx := slotPages(t, acks.sh)
	if tx != 1 {
		t.Fatalf("an arena that sent 1 KiB holds %d pages", tx)
	}
	for i, n := range slots {
		if n > 1 || n == 1 && i >= 8 {
			t.Fatalf("slot %d holds %d pages after reads of at most 8 datagrams of 64 bytes", i, n)
		}
	}
	ackPages := sum(slots) + tx

	// Bulk: GSO trains of 1200-byte datagrams from another engine's shard,
	// which the bulk socket reads as coalesced 64 KB buffers.
	snd, err := New(Config{BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Stop()
	if !snd.shards[0].port.(*udpPort).mmsg.gso {
		t.Skip("no UDP GSO: nothing arrives coalesced")
	}
	steps := run(0, 1200, 256)
	want := 0
	for round := 0; round < 4; round++ {
		stage(snd.shards[0], steps, func(int) netip.AddrPort { return bulk.sh.local })
		snd.shards[0].flushTx()
		want += len(steps)
	}
	got := 0
	for deadline := time.Now().Add(5 * time.Second); got < want && time.Now().Before(deadline); {
		n := bulk.sh.port.readBatch(100 * time.Millisecond)
		for i := 0; i < n; i++ {
			g := max(bulk.sh.rxSegs[i], 1200)
			got += (bulk.sh.rxLens[i] + g - 1) / g
		}
	}
	if got != want {
		t.Fatalf("%d of %d datagrams arrived", got, want)
	}
	slots, _ = slotPages(t, bulk.sh)
	full := groBufSize / syscall.Getpagesize() * 3 / 4
	if slots[0] < full {
		t.Fatalf("the first slot holds %d pages after full GRO reads, want ≥ %d", slots[0], full)
	}
	if n := sum(slots); n <= 4*ackPages {
		t.Fatalf("full GRO reads left %d pages resident, the ack socket %d", n, ackPages)
	}
	t.Logf("resident pages: ack socket %d, bulk socket %d of %d", ackPages, sum(slots),
		len(bulk.sh.port.(*udpPort).mmsg.mem)/syscall.Getpagesize())
}

func sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

// TestStopReleasesMappings: after each of twenty New → Start → traffic →
// Stop cycles of a client and a server engine, none of the three sockets'
// mappings is left: syscall.Munmap, which keeps its own record of the
// mappings syscall.Mmap made, finds nothing to unmap. (The address space
// cannot say it: a freed range can be mapped again before the check, the
// runtime adds mappings of its own, and the kernel merges adjacent ones,
// so sixty leaked mappings showed as five more lines of /proc/self/maps.)
func TestStopReleasesMappings(t *testing.T) {
	for i := 0; i < 20; i++ {
		lb, err := NewLoopback(nil, Config{}, Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lb.Stop() }) // on a failure; Stop may run twice
		srv := lb.Server.Addrs()
		var flows []*Flow
		for j, cc := range fixedRates(4, 8<<20) {
			fl, err := lb.clients[0].AddFlow(FlowConfig{Dst: srv[j%len(srv)], CC: cc, PacketSize: 1200, Limit: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, fl)
		}
		for _, fl := range flows {
			select {
			case <-fl.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("cycle %d: flow %d did not complete", i, fl.ID())
			}
		}
		var mems [][]byte
		for _, sh := range append(lb.clients[0].shards, lb.Server.shards...) {
			mems = append(mems, sh.port.(*udpPort).mmsg.mem)
		}
		lb.Stop()
		for k, mem := range mems {
			if err := syscall.Munmap(mem); err != syscall.EINVAL {
				t.Fatalf("cycle %d: socket %d's %d-byte mapping outlived Stop (Munmap: %v)", i, k, len(mem), err)
			}
		}
	}
}

// TestStopUnderLoad: Stop while both engines move data flat out — reads
// filling slots, flushes in flight — returns with no loop left to touch
// the buffers it unmaps; a touch would fault the test binary.
func TestStopUnderLoad(t *testing.T) {
	for i := 0; i < 5; i++ {
		lb, err := NewLoopback(nil, Config{Shards: 2}, Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lb.Stop() }) // on a failure; Stop may run twice
		srv := lb.Server.Addrs()
		for j, cc := range fixedRates(32, 64<<20) {
			if _, err := lb.clients[0].AddFlow(FlowConfig{Dst: srv[j%len(srv)], CC: cc, PacketSize: 1200}); err != nil {
				t.Fatal(err)
			}
		}
		tick := time.NewTicker(time.Millisecond)
		for deadline := time.Now().Add(5 * time.Second); lb.Server.Stats().RxPkts < 20000 && time.Now().Before(deadline); {
			<-tick.C
		}
		tick.Stop()
		if got := lb.Server.Stats().RxPkts; got < 20000 {
			t.Fatalf("the server took %d packets in 5 s, want a loaded engine", got)
		}
		start := time.Now()
		lb.Stop()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Stop under load took %v", d)
		}
	}
}
