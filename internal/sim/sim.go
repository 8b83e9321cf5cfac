// Package sim provides a deterministic discrete-event simulation kernel.
//
// All emulated components in the testbed (links, TCP-like transports, the
// HTTP/2 endpoints and the browser model) run on a single virtual clock
// owned by a Sim. Events are executed in strict timestamp order; ties are
// broken by scheduling order, which makes every run bit-for-bit
// reproducible for a given seed.
//
// # Scheduling APIs and allocation
//
// There are three ways to schedule, and two of them are pooled:
//
//   - At/After take a plain closure and return an *Event handle the
//     caller may Cancel. These events are heap-allocated and never
//     reused, so a stale handle can never observe an unrelated event.
//     They cost a closure plus an Event per call. Nothing on a
//     simulation's run path calls them any more (tests and the
//     benchmark harness's bare-kernel probe do); they stay for tests
//     and cold paths where a closure is the clearest thing to write.
//   - AtCall takes a static callback plus an argument value, returns no
//     handle (the event cannot be cancelled) and recycles the Event
//     struct through a free list once the event fires. The netem data
//     plane posts thousands of these per simulated page load.
//   - AtTimer is AtCall with a handle: it draws its Event from the same
//     free list and returns a Timer, a small value the caller stores and
//     may Cancel. Retransmit timers, resource budgets and the load
//     horizon — armed often, cancelled almost always — use it.
//
// All three consume exactly one scheduling sequence number, so which
// form a caller uses never changes the (at, seq) order events fire in.
//
// The generation rule is what makes a handle to a reused struct safe: an
// Event's generation advances every time the struct is released (it
// fired, its cancelled slot was discarded, or the simulator was Reset),
// and a Timer remembers the generation it was armed under. Cancel is a
// no-op unless the two still match, so a stale Timer can never cancel
// the unrelated event that now occupies the struct.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Event is a scheduled callback. It is owned by the Sim that created it.
//
//repolint:pooled
type Event struct {
	at time.Duration //repolint:keep overwritten by At/AtCall when the event is reused
	fn func()

	// Pooled (AtCall) events carry a static callback + argument instead
	// of a closure and are recycled after firing.
	cb     func(any)
	arg    any
	pooled bool
	// gen counts releases of this struct; a Timer is live only while its
	// own copy still matches (see "Scheduling APIs and allocation").
	gen uint32

	s      *Sim  //repolint:keep rebound by pushEvent; never read while free
	lane   *Lane //repolint:keep set once on a lane's sentinel event; nil on all others
	queued bool  // true while a live slot in the queue references this event
}

// reset clears the callback state so a recycled Event pins nothing for
// the garbage collector, and advances the generation so every Timer
// armed on the struct's previous life goes stale; the scheduling fields
// (at, s) are overwritten wholesale when the event is reused.
func (e *Event) reset() {
	e.fn, e.cb, e.arg, e.pooled = nil, nil, nil, false
	e.queued = false
	e.gen++
}

// Cancel removes a pending event from the queue, so it neither fires nor
// counts against Pending. Cancelling an event that already fired (or was
// already cancelled) is a no-op.
//
// Cancellation is lazy: the event is only unlinked from its owner, and
// its queue slot is discarded when it reaches the head. That keeps the
// sift loops free of per-event bookkeeping, which is where a
// steady-state run spends its time.
func (e *Event) Cancel() {
	if e.queued {
		e.queued = false
		s := e.s
		s.live--
		s.dead++
		// Dead slots inflate the heap (a cancelled rtx timer would
		// otherwise sit in the queue for a full virtual RTO), so compact
		// once they outnumber the live events. Rebuilding produces some
		// valid (at, seq)-heap; pops only ever take the minimum, so the
		// pop order — and the simulation — is unaffected.
		if s.dead > s.live+16 {
			s.compact()
		}
	}
}

// Timer is the cancellable handle AtTimer returns: the pooled Event plus
// the generation it was armed under. It is a plain value — store it,
// copy it, overwrite it with Timer{} — and the zero Timer is a valid
// handle to nothing, so holders need no nil check before Cancel.
type Timer struct {
	ev  *Event
	gen uint32
}

// Cancel removes the timer's event from the queue exactly like
// Event.Cancel, provided the handle is still current. It is a no-op on
// the zero Timer, after the event fired or was already cancelled, after
// the simulator was Reset, and after the Event struct was recycled into
// an unrelated event (the generation no longer matches).
//
//repolint:hotpath
func (t Timer) Cancel() {
	if e := t.ev; e != nil && e.gen == t.gen {
		e.Cancel()
	}
}

// The event queue is a hand-rolled 4-ary min-heap of slots ordered by
// (at, seq). Each slot carries the ordering key inline next to the event
// pointer, so the sift loops compare and move 24-byte values within one
// contiguous array instead of chasing *Event pointers; the ordering is a
// strict total order (seq is unique), so the sequence of popped events —
// and therefore every simulation — is identical to any other correct
// priority queue.

type heapSlot struct {
	at  time.Duration
	seq uint64
	ev  *Event
}

func slotLess(a, b *heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//repolint:hotpath
func (s *Sim) pushEvent(at time.Duration, seq uint64, e *Event) {
	e.queued = true
	s.live++
	q := append(s.queue, heapSlot{at: at, seq: seq, ev: e})
	s.queue = q
	// Sift up.
	i := len(q) - 1
	n := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !slotLess(&n, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = n
}

//repolint:hotpath
func (s *Sim) popMin() heapSlot {
	q := s.queue
	last := len(q) - 1
	top := q[0]
	tail := q[last]
	q[last] = heapSlot{}
	q = q[:last]
	s.queue = q
	if last == 0 {
		return top
	}
	// Sift the former tail down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		m := c
		end := min(c+4, last)
		for j := c + 1; j < end; j++ {
			if slotLess(&q[j], &q[m]) {
				m = j
			}
		}
		if !slotLess(&q[m], &tail) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = tail
	return top
}

// discard releases the event behind a cancelled slot that just left the
// queue: it is unlinked from the simulator and, when pooled (a cancelled
// AtTimer), returned to the free list.
//
//repolint:hotpath
func (s *Sim) discard(e *Event) {
	e.s = nil
	if e.pooled {
		e.reset()
		s.free = append(s.free, e)
	}
}

// pruneDead discards cancelled slots from the head of the queue so that
// peeking callers (Horizon checks) see the next live event.
func (s *Sim) pruneDead() {
	for len(s.queue) > 0 && !s.queue[0].ev.queued {
		s.discard(s.popMin().ev)
		s.dead--
	}
}

// compact drops every cancelled slot and re-heapifies in place.
func (s *Sim) compact() {
	q := s.queue
	n := 0
	for i := range q {
		if q[i].ev.queued {
			q[n] = q[i]
			n++
		} else {
			s.discard(q[i].ev)
		}
	}
	clear(q[n:])
	s.queue = q[:n]
	s.dead = 0
	// Careful with n < 2: Go truncates (n-2)/4 toward zero, so an empty
	// queue would still enter the loop at i == 0 and index q[0].
	for i := (n - 2) / 4; n > 1 && i >= 0; i-- {
		s.siftDownFrom(i)
	}
}

// siftDownFrom restores the heap property below slot i.
func (s *Sim) siftDownFrom(i int) {
	q := s.queue
	last := len(q)
	n := q[i]
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		m := c
		end := min(c+4, last)
		for j := c + 1; j < end; j++ {
			if slotLess(&q[j], &q[m]) {
				m = j
			}
		}
		if !slotLess(&q[m], &n) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = n
}

// Sim is a discrete-event simulator with a virtual clock.
// The zero value is not usable; construct with New.
//
//repolint:pooled
type Sim struct {
	now     time.Duration
	queue   []heapSlot
	live    int    // queued (non-cancelled) events
	dead    int    // cancelled slots still in the queue
	seq     uint64 // last assigned scheduling sequence number
	curSeq  uint64
	rng     *rand.Rand //repolint:keep wraps src, which Reset reseeds in place
	src     source     //repolint:keep reseeded in place by Reset
	running bool       //repolint:keep Reset panics mid-Run, so this is always false when it returns
	free    []*Event   // recycled AtCall/AtTimer events
	// Limit bounds the number of events processed by Run as a runaway
	// guard. Zero means the default of 50 million events.
	Limit int
	// Horizon, when non-zero, stops Run once the clock passes it.
	Horizon time.Duration
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	s := &Sim{}
	s.src.seed64(seed)
	s.rng = rand.New(&s.src)
	return s
}

// Reset returns the simulator to its post-New(seed) state while keeping
// the allocated event-queue capacity and the AtCall/AtTimer free list, so a
// reused Sim schedules events without re-growing either. Any events
// still queued are discarded (their callbacks never fire). The random
// stream is reseeded, so a Reset(seed) run is bit-identical to a run on
// a fresh New(seed) simulator.
func (s *Sim) Reset(seed int64) {
	if s.running {
		panic("sim: Reset called while running")
	}
	q := s.queue
	for i := range q {
		e := q[i].ev
		q[i] = heapSlot{}
		pooled := e.pooled
		e.reset()
		if pooled {
			s.free = append(s.free, e)
		}
	}
	s.queue = s.queue[:0]
	s.live, s.dead = 0, 0
	s.now, s.seq, s.curSeq = 0, 0, 0
	s.Limit, s.Horizon = 0, 0
	s.src.seed64(seed)
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a logic error in a discrete-event model.
func (s *Sim) At(t time.Duration, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	e := &Event{at: t, fn: fn, s: s}
	s.pushEvent(t, s.seq, e)
	return e
}

// AtCall schedules cb(arg) at absolute virtual time t. Unlike At it
// returns no handle (the event cannot be cancelled; AtTimer is the
// cancellable form) and the Event struct is pooled: hot-path schedulers
// use it with a static callback so a scheduled event costs zero heap
// allocations. arg should be a pointer (or other pointer-shaped value)
// to stay allocation-free.
//
//repolint:hotpath
func (s *Sim) AtCall(t time.Duration, cb func(any), arg any) {
	s.pushPooled(t, cb, arg)
}

// AtTimer schedules cb(arg) at absolute virtual time t exactly like
// AtCall — same free list, same single sequence number, zero heap
// allocations with a static callback and a pointer-shaped arg — and
// returns a Timer the caller may Cancel. A cancelled timer neither
// fires, nor advances the clock, nor counts in Pending or in Run's
// return value; its Event goes back to the free list when its queue slot
// is discarded.
//
//repolint:hotpath
func (s *Sim) AtTimer(t time.Duration, cb func(any), arg any) Timer {
	e := s.pushPooled(t, cb, arg)
	return Timer{ev: e, gen: e.gen}
}

// pushPooled queues cb(arg) at t on an Event drawn from the free list.
//
//repolint:hotpath
func (s *Sim) pushPooled(t time.Duration, cb func(any), arg any) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	e.at, e.cb, e.arg, e.s, e.pooled = t, cb, arg, s, true
	s.pushEvent(t, s.seq, e)
	return e
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Sim) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Pending reports the number of events currently queued. Cancelled
// events never count (their slots are discarded lazily, but the count is
// maintained eagerly).
func (s *Sim) Pending() int { return s.live }

// ReserveSeq consumes and returns the next scheduling sequence number
// without queueing an event. It exists for schedulers that replace a
// formerly scheduled event with lazy bookkeeping (netem's merged
// queue-release accounting) but must keep the tie-break ordering of every
// remaining event bit-identical to the event-per-release implementation.
func (s *Sim) ReserveSeq() uint64 {
	s.seq++
	return s.seq
}

// CurrentSeq returns the sequence number of the event currently being
// executed (zero before the first event fires). Together with ReserveSeq
// it lets lazy bookkeeping decide whether a virtual event "already fired"
// at the current instant exactly as a real event would have.
func (s *Sim) CurrentSeq() uint64 { return s.curSeq }

// step executes the single next event, advancing the clock.
// It returns false when the queue is empty.
//
//repolint:hotpath
func (s *Sim) step() bool {
	for {
		if len(s.queue) == 0 {
			return false
		}
		slot := s.popMin()
		e := slot.ev
		if !e.queued {
			// Cancelled after scheduling: discard the slot.
			s.discard(e)
			s.dead--
			continue
		}
		e.queued = false
		s.live--
		s.now = slot.at
		s.curSeq = slot.seq
		if l := e.lane; l != nil {
			// Lane sentinel: execute the lane head, then re-register the
			// next head (if any) before running the callback so the
			// callback can append to the lane.
			le := l.pop()
			if l.n > 0 {
				l.arm()
			} else {
				l.armed = false
			}
			le.cb(le.arg)
		} else if e.pooled {
			cb, arg := e.cb, e.arg
			e.reset()
			s.free = append(s.free, e)
			cb(arg)
		} else {
			e.fn()
		}
		return true
	}
}

// Run executes events until the queue drains, the event limit is hit,
// or the horizon (if set) is passed. It returns the number of events
// executed.
func (s *Sim) Run() int {
	if s.running {
		panic("sim: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	limit := s.Limit
	if limit == 0 {
		limit = 50_000_000
	}
	n := 0
	for n < limit {
		if s.Horizon > 0 {
			s.pruneDead()
			// Peek: stop before executing events past the horizon.
			if len(s.queue) > 0 && s.queue[0].at > s.Horizon {
				return n
			}
		}
		if !s.step() {
			return n
		}
		n++
	}
	return n
}
