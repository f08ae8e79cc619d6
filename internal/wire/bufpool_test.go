package wire

import "testing"

func TestBufPoolReuse(t *testing.T) {
	p := newBufPool(1024)
	a := p.Get()
	if len(a) != 1024 {
		t.Fatalf("len=%d want 1024", len(a))
	}
	p.Put(a)
	b := p.Get()
	if &a[0] != &b[0] {
		t.Fatal("pool did not reuse the freed buffer")
	}
	if p.Misses() != 1 {
		t.Fatalf("misses=%d want 1", p.Misses())
	}
	// Foreign (undersized) buffers are rejected, not resized.
	p.Put(make([]byte, 8))
	c := p.Get()
	if len(c) != 1024 {
		t.Fatalf("foreign buffer leaked into pool: len=%d", len(c))
	}
	// A Put of a truncated-but-original buffer restores full length.
	p.Put(c[:5])
	d := p.Get()
	if len(d) != 1024 {
		t.Fatalf("truncated put not restored: len=%d", len(d))
	}
}

func TestBufPoolZeroAllocSteadyState(t *testing.T) {
	p := newBufPool(2048)
	warm := p.Get()
	p.Put(warm)
	allocs := testing.AllocsPerRun(1000, func() {
		b := p.Get()
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f/op, want 0", allocs)
	}
}
