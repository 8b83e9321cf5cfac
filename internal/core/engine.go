package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment engine fans independent (site, strategy, run) units of
// work across a bounded worker pool. Determinism is preserved by
// construction: every unit writes its result into a slot addressed by
// its input index, and aggregation always walks slots in index order, so
// the output is byte-identical no matter how many workers ran or how
// their completions interleaved.
//
// The engine also owns the state a worker simulates on. There are two
// kinds — a RunContext for single-client loads, a popWorker for
// population units — and one process-wide free list of each. A pool
// worker checks its state out when it starts and the engine takes it
// back when the pool drains, so the next pool — the next table of a
// sweep, the next preset, the inner pool of the next Evaluate, the next
// driver call in the process — starts on simulators, networks, farms and
// loaders that are already grown. State holds scratch and caches, never
// results, so which worker gets which state cannot affect output.
//
// Ownership: whoever checked a state out owns it until it releases it,
// and it is used by one goroutine at a time. The free list is the only
// way state moves between goroutines. A context a caller lends to a
// pool (Testbed.UseContext) stays the lender's: the pool runs one worker
// on it and never releases it.

// freeList is a mutex-guarded stack of idle worker state. It is LIFO so
// a sequential caller keeps getting the same, warmest state back.
type freeList[S any] struct {
	mu    sync.Mutex
	idle  []*S
	fresh func() *S
}

// The engine's two free lists. An idle RunContext retains what its last
// run left in it: the site and plan it ran, the grown simulator,
// network, farm and loader, and up to forkCacheSize checkpoints with the
// sites they key; an idle popWorker retains its topology and every
// client seat it ever grew.
var (
	runContexts = freeList[RunContext]{fresh: newForkContext}
	popWorkers  = freeList[popWorker]{fresh: func() *popWorker { return new(popWorker) }}
)

// checkout returns idle state, or fresh state when none is idle.
func (l *freeList[S]) checkout() *S {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		s := l.idle[n-1]
		l.idle[n-1] = nil
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return s
	}
	l.mu.Unlock()
	return l.fresh()
}

// release returns checked-out state to the list. At most GOMAXPROCS
// states stay idle — as many as a full-width pool checks out at once;
// what nested pools held beyond that is dropped to the collector.
func (l *freeList[S]) release(s *S) {
	l.mu.Lock()
	if len(l.idle) < runtime.GOMAXPROCS(0) {
		l.idle = append(l.idle, s)
	}
	l.mu.Unlock()
}

// jobCount resolves a Jobs knob: <=0 means one worker per available CPU
// (GOMAXPROCS), 1 means strictly sequential, n means n workers.
func jobCount(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// runWorkers starts up to jobs workers (jobCount semantics, never more
// than n) and waits for them. Each worker draws unit indices from next
// until it reports false; between them the workers draw every index in
// [0,n) exactly once. With one worker it runs on the calling goroutine
// and draws the indices in order.
func runWorkers(n, jobs int, worker func(next func() (int, bool))) {
	var cursor atomic.Int64
	next := func() (int, bool) {
		i := int(cursor.Add(1)) - 1
		return i, i < n
	}
	workers := min(jobCount(jobs), n)
	if workers <= 1 {
		if n > 0 {
			worker(next)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker(next)
		}()
	}
	wg.Wait()
}

// forEach runs fn(i) for every i in [0,n) on runWorkers' pool. fn must
// not depend on execution order and must publish its result into an
// index-addressed slot.
func forEach(n, jobs int, fn func(i int)) {
	runWorkers(n, jobs, func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			fn(i)
		}
	})
}

// forEachWith is forEach with worker state: each worker checks one
// state out of pool, threads it through every unit it executes and
// releases it when the units run out. lent, when non-nil, is the
// caller's own state: one worker runs on it instead of checking out,
// and nobody releases it. A unit that panics takes its state with it.
func forEachWith[S any](n, jobs int, pool *freeList[S], lent *S, fn func(s *S, i int)) {
	var lend atomic.Pointer[S]
	lend.Store(lent)
	runWorkers(n, jobs, func(next func() (int, bool)) {
		i, ok := next()
		if !ok {
			return // started after the last unit was drawn: nothing to warm
		}
		s := lend.Swap(nil)
		borrowed := s != nil
		if !borrowed {
			s = pool.checkout()
		}
		for ; ok; i, ok = next() {
			fn(s, i)
		}
		if !borrowed {
			pool.release(s)
		}
	})
}

// collectWith runs fn over [0,n) on pooled worker state (forEachWith)
// and returns the results in index order.
func collectWith[S, T any](n, jobs int, pool *freeList[S], lent *S, fn func(s *S, i int) T) []T {
	out := make([]T, n)
	forEachWith(n, jobs, pool, lent, func(s *S, i int) { out[i] = fn(s, i) })
	return out
}
