package campaign

import (
	"runtime"
	"sync/atomic"
)

// OrderedReduce evaluates fn(0..n-1) on up to workers goroutines and
// folds each result through merge in strictly increasing index order.
// Because the fold order is fixed, the reduction is bit-identical for
// any worker count — including floating-point merges, which are not
// associative under regrouping. This is what lets campaign aggregates
// (and figure trial means) shard across cores while staying exactly
// replayable.
//
// Results completing out of order wait in a reorder buffer whose size
// is bounded by the worker count (a worker blocks handing off its
// result, so nobody runs unboundedly ahead); memory stays O(workers),
// not O(n). workers <= 0 selects GOMAXPROCS. merge runs on the calling
// goroutine only.
func OrderedReduce[T any](n, workers int, fn func(i int) T, merge func(i int, v T)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			merge(i, fn(i))
		}
		return
	}
	type item struct {
		i int
		v T
	}
	ch := make(chan item, workers)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ch <- item{i, fn(i)}
			}
		}()
	}
	pending := make(map[int]T, workers*2)
	for done := 0; done < n; {
		it := <-ch
		pending[it.i] = it.v
		for {
			v, ok := pending[done]
			if !ok {
				break
			}
			delete(pending, done)
			merge(done, v)
			done++
		}
	}
}
