package wire

import "sync"

// maxDatagram is the buffer size every pooled packet buffer carries:
// large enough for any UDP datagram, so one pool serves the data
// packets, acks and fetch traffic a shim forwards alike.
const maxDatagram = 64 * 1024

// bufPool is a bounded free list of fixed-size packet buffers, the
// shim's per-packet storage. Unlike sync.Pool it never boxes the slice
// header through an interface, so Get/Put are zero-allocation in steady
// state (TestBufPoolZeroAllocSteadyState), and its contents survive GC
// cycles, keeping warm-up deterministic in benchmarks. The zero value
// is unusable; use newBufPool.
type bufPool struct {
	size int
	mu   sync.Mutex
	free [][]byte
	// misses counts Gets served by make instead of the free list; the
	// tests read it to prove steady-state reuse.
	misses int64
}

// maxPooledBufs bounds the free list: beyond it, Put drops the buffer
// for the GC, so a burst's worth of buffers cannot pin memory forever.
const maxPooledBufs = 4096

// newBufPool returns a pool of size-byte buffers.
func newBufPool(size int) *bufPool {
	return &bufPool{size: size}
}

// packetBufs is the pool of full-size datagram buffers every Shim in
// the process draws from, so an idle shim donates its buffers to a
// busy one. The shim is its only user: the engine's shards own their
// rx buffers and tx arena outright.
var packetBufs = newBufPool(maxDatagram)

// Get returns a buffer of the pool's size, reusing a freed one when
// available.
func (p *bufPool) Get() []byte {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b
	}
	p.misses++
	p.mu.Unlock()
	return make([]byte, p.size)
}

// Put returns a buffer to the pool. Buffers that did not come from
// this pool (wrong capacity) and overflow beyond the bound are
// dropped; passing a buffer after Put is a use-after-free bug on the
// caller's side, exactly as with sync.Pool.
func (p *bufPool) Put(b []byte) {
	if cap(b) < p.size {
		return
	}
	b = b[:p.size]
	p.mu.Lock()
	if len(p.free) < maxPooledBufs {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// Misses reports how many Gets allocated fresh memory.
func (p *bufPool) Misses() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.misses
}
