package sim

import "time"

// Snapshot is a deep copy of a Sim's run state: clock, sequence
// counters, run bounds, random-source position, the event queue
// (including each queued event's contents) and the AtCall free list.
//
// Ownership contract: the snapshot's slices are owned by the snapshot
// and reused across Snapshot calls (append-into-scratch, zero
// steady-state allocations). The *Event pointers it holds are aliases to
// the simulator's event structs — identity, not contents: retained
// handles elsewhere (rtx timers, a loader's horizon timer) must keep
// referring to the same structs after Restore, so Restore rewrites those
// structs in place from the copied contents — generation included —
// rather than allocating replacements. A Timer armed before the
// snapshot is therefore current again after Restore, which is only
// sound because every Timer holder is rewound with the simulator: a
// handle armed on the abandoned timeline must not survive the rewind. A
// snapshot is only meaningful against the Sim it was taken from, and
// both Snapshot and Restore require a quiescent simulator (between
// events; panics mid-Run).
type Snapshot struct {
	now     time.Duration
	seq     uint64
	curSeq  uint64
	limit   int
	horizon time.Duration
	rng     SourceState
	live    int
	dead    int
	slots   []heapSlot
	evs     []eventState
	free    []*Event
}

// eventState is the copied contents of one queued event.
type eventState struct {
	at     time.Duration
	fn     func()
	cb     func(any)
	arg    any
	pooled bool
	queued bool
	gen    uint32
}

// Rand returns the captured random-source position. Callers use
// Draws==0 to decide whether the checkpoint is seed-independent.
func (sn *Snapshot) Rand() SourceState { return sn.rng }

// Events reports how many queue slots the snapshot holds (live plus
// lazily-cancelled), for diagnostics.
func (sn *Snapshot) Events() int { return len(sn.slots) }

// Bytes approximates the heap footprint of the captured state, for
// diagnostics (fork hit-rate / snapshot size reporting).
func (sn *Snapshot) Bytes() int {
	return len(sn.slots)*24 + len(sn.evs)*64 + len(sn.free)*8 + 64
}

// Snapshot copies the simulator's run state into dst.
func (s *Sim) Snapshot(dst *Snapshot) {
	if s.running {
		panic("sim: Snapshot called while running")
	}
	dst.now, dst.seq, dst.curSeq = s.now, s.seq, s.curSeq
	dst.limit, dst.horizon = s.Limit, s.Horizon
	dst.rng = s.src.State()
	dst.live, dst.dead = s.live, s.dead
	dst.slots = append(dst.slots[:0], s.queue...)
	dst.evs = dst.evs[:0]
	for i := range s.queue {
		e := s.queue[i].ev
		dst.evs = append(dst.evs, eventState{
			at: e.at, fn: e.fn, cb: e.cb, arg: e.arg,
			pooled: e.pooled, queued: e.queued, gen: e.gen,
		})
	}
	dst.free = append(dst.free[:0], s.free...)
}

// Restore rewinds the simulator to the captured state. Event structs
// referenced by the snapshot are rewritten in place (preserving the
// identity that retained handles and pooled free lists depend on);
// events created after the snapshot are dropped for the garbage
// collector. The caller may then re-seed a zero-draw stream via
// ReseedRand to replay the checkpoint under a different seed.
func (s *Sim) Restore(snap *Snapshot) {
	if s.running {
		panic("sim: Restore called while running")
	}
	s.now, s.seq, s.curSeq = snap.now, snap.seq, snap.curSeq
	s.Limit, s.Horizon = snap.limit, snap.horizon
	s.src.SetState(snap.rng)
	s.stop = false
	s.queue = append(s.queue[:0], snap.slots...)
	for i := range snap.slots {
		e := snap.slots[i].ev
		st := &snap.evs[i]
		e.at, e.fn, e.cb, e.arg = st.at, st.fn, st.cb, st.arg
		e.pooled, e.queued, e.gen = st.pooled, st.queued, st.gen
		e.s = s
	}
	s.live, s.dead = snap.live, snap.dead
	s.free = s.free[:0]
	for _, e := range snap.free {
		e.reset()
		s.free = append(s.free, e)
	}
}
