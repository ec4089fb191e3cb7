// Package par provides a small bounded worker pool for data-parallel kernels.
//
// The primitive is For, which partitions an index range [0, n) into one
// contiguous block per worker and runs the blocks concurrently. Because the
// blocks are disjoint and each block is processed in ascending index order
// by a single goroutine, any kernel whose per-index work writes only to
// locations owned by that index produces bit-identical results at every
// worker count — parallelism changes wall-clock time, never values. This is
// the determinism contract the tensor kernel engine builds on (DESIGN.md,
// "Kernel engine").
//
// Concurrency is governed by one machine-wide token budget of Workers()-1
// extra workers. Every For call borrows as many tokens as it can use and
// returns them when its blocks complete; a call that finds the budget empty
// runs serial on its caller. Nested and concurrent calls therefore *split*
// the budget instead of oversubscribing the machine: a sweep worker whose
// coarse ops fan out kernel-parallel GEMMs draws every goroutine from the
// same pool, and whichever layer asks first gets the larger share. Since
// block boundaries never affect results, any split produces identical
// output.
//
// The same budget arbitrates across concurrent jobs, not just nested calls:
// Acquire/Release expose the token counter to coarser schedulers. The sweep
// engine leases its long-lived cell workers from it, and the sdserve
// dispatcher seats each additional concurrent job's implicit first worker
// in it, so jobs × sweep workers × kernel workers sum to at most Workers()
// live goroutines machine-wide.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the configured pool width. 0 means GOMAXPROCS.
var workers atomic.Int64

// borrowed counts extra-worker tokens currently on loan to running For
// calls. The budget is Workers()-1: the caller's own goroutine is the
// implicit first worker of every call.
var borrowed atomic.Int64

// SetWorkers sets the worker pool width for subsequent For calls.
// n <= 0 restores the default (GOMAXPROCS at call time). It returns the
// previous setting so callers can restore it.
func SetWorkers(n int) int {
	prev := workers.Load()
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
	return int(prev)
}

// Workers reports the configured pool width (the budget ceiling, not a
// per-call guarantee: concurrent For calls split it).
func Workers() int {
	if n := int(workers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// acquire borrows up to want extra-worker tokens from the shared budget,
// returning how many it got (possibly zero). Shrinking the budget with
// SetWorkers while tokens are on loan is safe: the balance just stays
// exhausted until they come back.
func acquire(want int) int {
	for {
		cur := borrowed.Load()
		free := int64(Workers()-1) - cur
		if want <= 0 || free <= 0 {
			return 0
		}
		g := int64(want)
		if g > free {
			g = free
		}
		if borrowed.CompareAndSwap(cur, cur+g) {
			return int(g)
		}
	}
}

func release(n int) {
	if n > 0 {
		borrowed.Add(int64(-n))
	}
}

// Acquire borrows up to want extra-worker tokens from the machine-wide
// budget and returns how many it got (possibly zero; never blocks). It is
// the cross-layer arbitration primitive behind For: exported so coarser
// schedulers — the sweep engine leasing long-lived cell workers, the
// sdserve job scheduler admitting concurrent jobs — draw their goroutines
// from the same budget the nested kernel For calls use, instead of
// stacking independent pools on top of each other. Every token taken with
// Acquire must be returned with Release.
func Acquire(want int) int { return acquire(want) }

// Release returns n tokens previously taken with Acquire.
func Release(n int) { release(n) }

// For partitions [0, n) into disjoint contiguous blocks and calls
// fn(lo, hi) once per block, in parallel across the pool. minGrain is the
// smallest amount of per-worker work worth a goroutine: the effective worker
// count is capped at n/minGrain so tiny kernels stay serial. fn must touch
// only state owned by indices in [lo, hi).
//
// For returns after every block completes. If any block panics, For re-panics
// with the first captured value after all workers have stopped.
func For(n, minGrain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if minGrain > 1 && w > n/minGrain {
		w = n / minGrain
		if w < 1 {
			w = 1
		}
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	extra := acquire(w - 1)
	if extra == 0 {
		fn(0, n)
		return
	}
	w = extra + 1

	var wg sync.WaitGroup
	var panicked atomic.Pointer[recovered]
	catch := func() {
		if r := recover(); r != nil {
			panicked.CompareAndSwap(nil, &recovered{r})
		}
	}
	wg.Add(extra)
	for b := 1; b < w; b++ {
		lo, hi := n*b/w, n*(b+1)/w
		go func(lo, hi int) {
			defer wg.Done()
			defer catch()
			fn(lo, hi)
		}(lo, hi)
	}
	// The caller's goroutine processes the first block itself — it would
	// only be blocked in Wait otherwise.
	func() {
		defer catch()
		fn(0, n/w)
	}()
	wg.Wait()
	release(extra)
	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
}

type recovered struct{ val any }
