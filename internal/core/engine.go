package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment engine fans independent (site, strategy, run) units of
// work across a bounded set of workers. Determinism is preserved by
// construction: every unit writes its result into a slot addressed by
// its input index, and aggregation always walks slots in index order, so
// the output is byte-identical no matter how many workers ran or how
// their completions interleaved.
//
// Fan-outs nest — a driver fans out over sites, and every site unit fans
// its runs out again inside Evaluate and Trace — and all of them draw on
// one budget: the top-level call makes a budget of Jobs slots and hands
// it down, and a goroutine executes units only while it holds a slot.
// The goroutine that opens a fan-out already holds one (the top-level
// caller is given the first) and always works on its own fan-out, so a
// fan-out makes progress even when every other slot is taken and nesting
// cannot deadlock. Each fan-out also parks helpers that join as slots
// come free and leave when the fan-out has no undrawn unit, and an opener
// that must wait for its helpers gives its slot up for the wait. So Jobs
// is the number of loads in flight at any nesting depth, never more, and
// a slot freed anywhere — a sibling site unit finished — is taken up, one
// load later at most, by whichever open fan-out still has units to draw.
//
// The engine also owns the state a worker simulates on: RunContexts,
// one kind for every load — a single client on a flat network or the
// seats of a population unit on a shared bottleneck — on one
// process-wide free list. A worker checks a context out when it draws
// its first unit of a fan-out and the engine takes it back when that
// fan-out has no more to draw, so the next fan-out — the next Evaluate
// of the same site, the next table of a sweep, the next preset, the next
// driver call in the process — starts on simulators, networks, farms and
// loaders that are already grown. State holds scratch and caches, never
// results, so which worker gets which state cannot affect output.
//
// Ownership: whoever checked a state out owns it until it releases it,
// and it is used by one goroutine at a time. The free list is the only
// way state moves between goroutines. A context a caller lends to a
// fan-out (Testbed.UseContext) stays the lender's: exactly one worker
// runs on it — whichever draws a unit first, the opener unless a helper
// beat it to every unit — and the fan-out never releases it.

// freeList is a mutex-guarded stack of idle worker state. It is LIFO so
// a sequential caller keeps getting the same, warmest state back.
type freeList[S any] struct {
	mu    sync.Mutex
	idle  []*S
	fresh func() *S
	// widest is the width of the widest budget that ever checked state
	// out, and the most states the list keeps idle.
	widest int
}

// The engine's free list. An idle RunContext retains what its last runs
// left in it: the sites and plans they ran, the grown simulator, flat
// network and topology, and every seat it ever grew.
var runContexts = freeList[RunContext]{fresh: NewRunContext}

// checkout returns idle state, or fresh state when none is idle, for a
// worker of a budget width slots wide.
func (l *freeList[S]) checkout(width int) *S {
	l.mu.Lock()
	l.widest = max(l.widest, width)
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

// release returns checked-out state to the list. As many states stay
// idle as the widest budget so far has slots, whatever the machine: a
// sweep at Jobs 8 on two CPUs gets its eight grown contexts back at the
// next fan-out. What was held beyond that — by concurrent top-level
// calls, or by an opener that kept its state while it lent its slot — is
// dropped to the collector.
func (l *freeList[S]) release(s *S) {
	l.mu.Lock()
	if len(l.idle) < l.widest {
		l.idle = append(l.idle, s)
	}
	l.mu.Unlock()
}

// jobCount resolves a Jobs knob: <=0 means one slot per available CPU
// (GOMAXPROCS), 1 means strictly sequential, n means n slots.
func jobCount(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// budget is the worker budget of one top-level call: a counting
// semaphore with one slot per unit that may execute at once. A
// goroutine executes units of a fan-out on b only while it holds a slot
// of b, and blocks holding one only in fanOut's final wait, which gives
// it up first — so a held slot always means a unit making progress.
type budget struct {
	slots chan struct{} // a send takes a slot, a receive frees one
}

// newBudget returns a budget of jobs slots (jobCount semantics) with the
// first already taken: it is the calling goroutine's, which may open
// fan-outs on the budget straight away and never has to free it.
func newBudget(jobs int) *budget {
	b := &budget{slots: make(chan struct{}, jobCount(jobs))}
	b.slots <- struct{}{}
	return b
}

// width is the number of slots, held or free.
func (b *budget) width() int { return cap(b.slots) }

// fanOut runs worker until n unit indices are drawn and executed. The
// caller must hold a slot of b. Each worker draws indices from next
// until it reports false; between them the workers draw every index in
// [0,n) exactly once. The caller runs worker itself, first, and draws
// the indices in order when no helper joins; up to min(width,n)-1
// helpers each wait for a free slot, run worker while holding it, and
// give up waiting once the last index is drawn.
func (b *budget) fanOut(n int, worker func(next func() (int, bool))) {
	if n <= 0 {
		return
	}
	var cursor atomic.Int64
	helpers := min(b.width(), n) - 1
	drawn := make(chan struct{}) // closed by whoever draws the last index
	next := func() (int, bool) {
		i := int(cursor.Add(1)) - 1
		if i == n-1 {
			close(drawn)
		}
		return i, i < n
	}
	// joined counts helpers that took a slot. A helper adds itself
	// before it draws, and the caller reads the count after drawing past
	// the end, so a helper the caller does not see drew nothing. While a
	// budget is saturated that is every helper of every nested fan-out,
	// and a caller that kept its slot through those goes straight on to
	// its next fan-out on its own warm state; lending the slot each time
	// would hand its next loads to a helper on another state (measured:
	// a quarter more allocations per load for the same throughput).
	var joined atomic.Int32
	var wg sync.WaitGroup
	wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer wg.Done()
			select {
			case b.slots <- struct{}{}:
				joined.Add(1)
				worker(next)
				<-b.slots
			case <-drawn:
			}
		}()
	}
	worker(next)
	if joined.Load() == 0 {
		wg.Wait() // nobody is executing: the helpers only have to notice
		return
	}
	// Units are still executing on helpers' slots. Waiting for them
	// executes nothing, so the caller's slot goes to whichever fan-out
	// can use it, and the caller takes one again — in turn behind the
	// helpers already waiting — before it goes on.
	<-b.slots
	wg.Wait()
	b.slots <- struct{}{}
}

// forEachWith runs fn(s, i) for every i in [0,n) on b's workers. fn must
// not depend on execution order and must publish its result into an
// index-addressed slot. Each worker checks one state out of pool at its
// first unit, threads it through every unit it executes and releases it
// when the units run out. lent, when non-nil,
// is the caller's own state: one worker runs on it instead of checking
// out, and nobody releases it. A unit that panics takes its state with
// it.
func forEachWith[S any](b *budget, n int, pool *freeList[S], lent *S, fn func(s *S, i int)) {
	var lend atomic.Pointer[S]
	lend.Store(lent)
	b.fanOut(n, func(next func() (int, bool)) {
		i, ok := next()
		if !ok {
			return // joined after the last unit was drawn: nothing to warm
		}
		s := lend.Swap(nil)
		borrowed := s != nil
		if !borrowed {
			s = pool.checkout(b.width())
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
func collectWith[S, T any](b *budget, n int, pool *freeList[S], lent *S, fn func(s *S, i int) T) []T {
	out := make([]T, n)
	forEachWith(b, n, pool, lent, func(s *S, i int) { out[i] = fn(s, i) })
	return out
}
