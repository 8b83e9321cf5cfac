package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("event order %v, want [1 2 3]", got)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order %v, want FIFO", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.After(time.Millisecond, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(time.Millisecond, tick)
		}
	}
	s.At(s.Now(), tick)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 4*time.Millisecond {
		t.Fatalf("clock = %v, want 4ms", s.Now())
	}
}

// An event scheduled at the current instant runs after the events
// already queued for it.
func TestPostRunsAtCurrentInstant(t *testing.T) {
	s := New(1)
	var order []string
	s.At(time.Millisecond, func() {
		order = append(order, "a")
		s.At(s.Now(), func() { order = append(order, "b") })
	})
	s.At(time.Millisecond, func() { order = append(order, "c") })
	s.Run()
	want := []string{"a", "c", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(5*time.Millisecond, func() {})
	})
	s.Run()
}

func TestHorizonStopsRun(t *testing.T) {
	s := New(1)
	s.Horizon = 15 * time.Millisecond
	fired := 0
	s.At(10*time.Millisecond, func() { fired++ })
	s.At(20*time.Millisecond, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (horizon)", fired)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var vals []int64
		var step func()
		step = func() {
			vals = append(vals, s.Rand().Int63n(1000))
			if len(vals) < 50 {
				s.After(time.Duration(s.Rand().Intn(5)+1)*time.Millisecond, step)
			}
		}
		s.At(s.Now(), step)
		s.Run()
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: events always fire in non-decreasing timestamp order, no matter
// the insertion order.
func TestPropertyMonotoneFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New(7)
		var fired []time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Microsecond
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-5*time.Millisecond, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	s := New(1)
	e := s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	e.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("cancelled event still queued: Pending = %d, want 1", s.Pending())
	}
	e.Cancel() // double cancel is a no-op
	if n := s.Run(); n != 1 {
		t.Fatalf("Run executed %d events, want 1", n)
	}
}

func TestCancelAfterFiringIsNoop(t *testing.T) {
	s := New(1)
	e := s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	s.step()   // fires e at 1ms
	e.Cancel() // already fired: must not disturb the queue
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestAtCallOrderingAndReuse(t *testing.T) {
	s := New(1)
	var got []int
	record := func(arg any) { got = append(got, arg.(int)) }
	// AtCall events interleave with closure events in strict (time, seq)
	// order, and fired events are recycled without disturbing ordering.
	s.AtCall(2*time.Millisecond, record, 2)
	s.At(time.Millisecond, func() {
		got = append(got, 1)
		s.AtCall(2*time.Millisecond, record, 3)
	})
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	// Pooled events are reused across rounds.
	for round := 0; round < 3; round++ {
		fired := 0
		s.AtCall(s.Now()+time.Millisecond, func(any) { fired++ }, nil)
		s.Run()
		if fired != 1 {
			t.Fatalf("round %d: fired %d", round, fired)
		}
	}
}

func TestReserveSeqAdvancesTieBreak(t *testing.T) {
	s := New(1)
	var got []int
	s.At(time.Millisecond, func() { got = append(got, 1) })
	s.ReserveSeq() // a virtual event "between" the two real ones
	s.At(time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order %v, want [1 2]", got)
	}
}

// TestResetMatchesFresh pins the Reset contract: after Reset(seed), a
// run — including random draws, pooled AtCall events and cancellations
// — is bit-identical to one on a fresh New(seed) simulator, even when
// the reused simulator previously ran something else and still had
// events queued at Reset time.
func TestResetMatchesFresh(t *testing.T) {
	exercise := func(s *Sim) []time.Duration {
		var fired []time.Duration
		record := func(any) { fired = append(fired, s.Now()) }
		for i := 0; i < 50; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
			if i%3 == 0 {
				s.AtCall(s.Now()+d, record, nil)
			} else {
				ev := s.After(d, func() { fired = append(fired, s.Now()) })
				if i%5 == 0 {
					ev.Cancel()
				}
			}
		}
		s.Run()
		fired = append(fired, time.Duration(s.Rand().Int63n(1<<40)))
		return fired
	}

	fresh := New(42)
	want := exercise(fresh)

	reused := New(7)
	reused.After(time.Second, func() {})          // plain event left queued
	reused.AtCall(time.Second, func(any) {}, nil) // pooled event left queued
	reused.At(10*time.Millisecond, func() {})
	reused.step() // advance the clock past the start
	reused.Reset(42)
	got := exercise(reused)

	if len(got) != len(want) {
		t.Fatalf("fired %d events after Reset, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v after Reset, want %v", i, got[i], want[i])
		}
	}
	if reused.Pending() != 0 {
		t.Fatalf("pending = %d after drained run", reused.Pending())
	}
}

func TestCancelAllCompactsEmptyQueue(t *testing.T) {
	// Cancelling the last live event while 17+ dead slots are pending
	// triggers compact on a queue with zero survivors; the heapify loop
	// must not index into the emptied slice. Regression: a faulted page
	// load's terminate() cancels every outstanding timer and ended with
	// exactly this shape.
	s := New(1)
	evs := make([]*Event, 18)
	for i := range evs {
		evs[i] = s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	for _, e := range evs {
		e.Cancel()
	}
	if got := s.Run(); got != 0 {
		t.Fatalf("Run fired %d events, want 0", got)
	}
}

func TestCompactToSingleLiveEvent(t *testing.T) {
	// Same compaction path with one survivor: the n==1 heap is trivially
	// valid and the surviving event must still fire at its time.
	s := New(1)
	var fired time.Duration = -1
	keep := s.After(20*time.Millisecond, func() { fired = s.Now() })
	evs := make([]*Event, 18)
	for i := range evs {
		evs[i] = s.After(time.Duration(i+1)*time.Millisecond, func() {})
	}
	for _, e := range evs {
		e.Cancel()
	}
	_ = keep
	if got := s.Run(); got != 1 {
		t.Fatalf("Run fired %d events, want 1", got)
	}
	if fired != 20*time.Millisecond {
		t.Fatalf("survivor fired at %v, want 20ms", fired)
	}
}

func TestTimerCancelBeforeFiring(t *testing.T) {
	s := New(1)
	fired := 0
	count := func(any) { fired++ }
	tm := s.AtTimer(time.Millisecond, count, nil)
	s.AtTimer(2*time.Millisecond, count, nil)
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	tm.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("cancelled timer still counted: Pending = %d, want 1", s.Pending())
	}
	tm.Cancel() // double cancel is a no-op
	if n := s.Run(); n != 1 {
		t.Fatalf("Run executed %d events, want 1", n)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (the cancelled timer must not fire)", fired)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("clock = %v, want 2ms", s.Now())
	}
	// A cancelled timer at the head of the queue must not advance the
	// clock when its slot is discarded.
	s.AtTimer(5*time.Millisecond, count, nil).Cancel()
	if n := s.Run(); n != 0 || s.Now() != 2*time.Millisecond {
		t.Fatalf("Run = %d at %v after a lone cancelled timer, want 0 at 2ms", n, s.Now())
	}
	Timer{}.Cancel() // the zero Timer is a handle to nothing
}

// TestTimerStaleHandleIsNoop pins the generation rule: once the Event
// behind a Timer has been released — it fired, the simulator was Reset,
// or the struct was recycled into an unrelated AtCall — Cancel through
// the old handle must not touch whatever occupies the struct now.
func TestTimerStaleHandleIsNoop(t *testing.T) {
	s := New(1)
	fired := 0
	count := func(any) { fired++ }

	// After fire: the struct is reused by the next AtCall (LIFO free
	// list), which the stale handle must not cancel.
	tm := s.AtTimer(time.Millisecond, count, nil)
	s.Run()
	s.AtCall(2*time.Millisecond, count, nil)
	if s.queue[0].ev != tm.ev {
		t.Fatal("test premise: AtCall did not reuse the fired timer's Event")
	}
	tm.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("stale Cancel removed an unrelated event: Pending = %d, want 1", s.Pending())
	}
	if n := s.Run(); n != 1 || fired != 2 {
		t.Fatalf("Run = %d, fired = %d; want 1 and 2", n, fired)
	}

	// After cancel + discard + reuse by AtTimer: the first handle is
	// stale, the second live.
	old := s.AtTimer(3*time.Millisecond, count, nil)
	old.Cancel()
	s.Run() // discards the dead slot, recycling the Event
	cur := s.AtTimer(4*time.Millisecond, count, nil)
	if cur.ev != old.ev {
		t.Fatal("test premise: AtTimer did not reuse the cancelled timer's Event")
	}
	old.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("stale Cancel removed its successor: Pending = %d, want 1", s.Pending())
	}

	// After Reset: the event was discarded unfired and recycled.
	s.Reset(1)
	s.AtCall(time.Millisecond, count, nil)
	cur.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("Cancel after Reset removed an event: Pending = %d, want 1", s.Pending())
	}
	fired = 0
	if n := s.Run(); n != 1 || fired != 1 {
		t.Fatalf("Run = %d, fired = %d after Reset; want 1 and 1", n, fired)
	}
}

// TestTimerMassCancelRecyclesEvents extends the compaction regression
// tests above to pooled events: cancelling enough timers to trigger
// compact (with zero, one and several survivors) must hand every
// cancelled Event back to the free list, and the survivors must still
// fire in order.
func TestTimerMassCancelRecyclesEvents(t *testing.T) {
	for _, keep := range []int{0, 1, 5} {
		s := New(1)
		var fired []time.Duration
		record := func(any) { fired = append(fired, s.Now()) }
		const cancelled = 40
		tms := make([]Timer, cancelled)
		for i := range tms {
			tms[i] = s.AtTimer(time.Duration(i+1)*time.Millisecond, record, nil)
		}
		for i := 0; i < keep; i++ {
			s.AtTimer(time.Duration(100-i)*time.Millisecond, record, nil)
		}
		for _, tm := range tms {
			tm.Cancel()
		}
		if s.dead > s.live+16 {
			t.Fatalf("keep=%d: %d dead slots left behind %d live ones; compact never ran", keep, s.dead, s.live)
		}
		if got := s.Run(); got != keep {
			t.Fatalf("keep=%d: Run fired %d events", keep, got)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("keep=%d: survivors fired out of order: %v", keep, fired)
			}
		}
		if got, want := len(s.free), cancelled+keep; got != want {
			t.Fatalf("keep=%d: free list holds %d events, want %d (every pooled event back)", keep, got, want)
		}
		if len(s.queue) != 0 || s.Pending() != 0 {
			t.Fatalf("keep=%d: queue not drained: %d slots, %d pending", keep, len(s.queue), s.Pending())
		}
	}
}
