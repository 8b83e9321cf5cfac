package sim

import "time"

// Lane is a FIFO scheduling channel for event streams whose timestamps
// are known to be nondecreasing — a netem pipe is the canonical case:
// a link is a FIFO queue, so successive admissions depart (and deliver)
// in order. Events scheduled on a Lane keep the exact (at, seq) total
// order of plain AtCall scheduling, but only the lane's head occupies a
// slot in the simulator's priority queue; the rest wait in a ring
// buffer. With in-flight windows of hundreds of segments this collapses
// the heap from O(window) to O(#lanes + #misc events), which shortens
// every sift in the simulation — the dominant steady-state cost.
//
// A Lane accepts only the pooled-callback form (cb + arg, no handle, no
// cancellation). Scheduling an out-of-order timestamp falls back to the
// simulator's heap transparently, so ordering stays correct even if a
// caller's monotonicity assumption breaks.
//
//repolint:pooled
type Lane struct {
	s      *Sim //repolint:keep bound at NewLane; a lane is permanently tied to its simulator
	ring   []laneEv
	head   int
	n      int
	lastAt time.Duration
	armed  bool
	ev     Event //repolint:keep sentinel registered in the heap; rebound by arm
}

type laneEv struct {
	at  time.Duration
	seq uint64
	cb  func(any)
	arg any
}

// NewLane returns a FIFO scheduling channel on s.
func NewLane(s *Sim) *Lane {
	l := &Lane{s: s}
	l.ev.s = s
	l.ev.lane = l
	return l
}

// Reset empties the lane. The owner must call it alongside Sim.Reset
// (the sentinel slot, like every queued event, is discarded there).
func (l *Lane) Reset() {
	clear(l.ring)
	l.head, l.n = 0, 0
	l.lastAt = 0
	l.armed = false
}

// Len reports the number of events waiting in the lane (including the
// armed head).
func (l *Lane) Len() int { return l.n }

// AtCall schedules cb(arg) at absolute virtual time t, exactly like
// Sim.AtCall but through the lane's FIFO.
//
//repolint:hotpath
func (l *Lane) AtCall(t time.Duration, cb func(any), arg any) {
	s := l.s
	if l.n > 0 && t < l.lastAt {
		// Out-of-order timestamp: the FIFO invariant would break, so
		// schedule through the heap. Rare to impossible for pipe-driven
		// callers; correctness does not depend on the caller's claim.
		s.AtCall(t, cb, arg)
		return
	}
	if t < s.now {
		s.AtCall(t, cb, arg) // reuse the heap path's past-time panic
		return
	}
	s.seq++
	l.lastAt = t
	if l.n == len(l.ring) {
		l.grow()
	}
	i := l.head + l.n
	if i >= len(l.ring) {
		i -= len(l.ring)
	}
	l.ring[i] = laneEv{at: t, seq: s.seq, cb: cb, arg: arg}
	l.n++
	if !l.armed {
		l.arm()
	}
}

// arm registers the lane's current head in the simulator's heap via the
// sentinel event.
func (l *Lane) arm() {
	he := &l.ring[l.head]
	l.armed = true
	l.ev.at = he.at
	l.s.pushEvent(he.at, he.seq, &l.ev)
}

// pop removes and returns the head entry.
func (l *Lane) pop() laneEv {
	e := l.ring[l.head]
	l.ring[l.head] = laneEv{}
	l.head++
	if l.head == len(l.ring) {
		l.head = 0
	}
	l.n--
	return e
}

func (l *Lane) grow() {
	next := make([]laneEv, max(2*len(l.ring), 16))
	for i := 0; i < l.n; i++ {
		j := l.head + i
		if j >= len(l.ring) {
			j -= len(l.ring)
		}
		next[i] = l.ring[j]
	}
	l.ring = next
	l.head = 0
}
