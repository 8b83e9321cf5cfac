package fault

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestZeroSpecDerivesZeroPlan(t *testing.T) {
	var s Spec
	if s.enabled() {
		t.Fatal("zero spec reports enabled")
	}
	p := s.Derive(42)
	if !p.Empty() || p.Events != nil {
		t.Fatalf("zero spec derived %+v, want zero plan with nil events", p)
	}
	if s.Describe() != "" {
		t.Fatalf("zero spec describes as %q", s.Describe())
	}
}

func TestDeriveDeterministic(t *testing.T) {
	s := Spec{
		FlapAt: 300 * time.Millisecond, FlapDown: 100 * time.Millisecond,
		GoAwayAt: 250 * time.Millisecond,
		Jitter:   50 * time.Millisecond,
	}
	a := s.Derive(7)
	b := s.Derive(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (spec, seed) derived different plans:\n%+v\n%+v", a, b)
	}
	c := s.Derive(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds derived identical jittered plans")
	}
}

func TestDeriveWithoutJitterIgnoresSeed(t *testing.T) {
	s := Spec{ServerStallAt: 200 * time.Millisecond, ServerStallFor: 400 * time.Millisecond}
	if !reflect.DeepEqual(s.Derive(1), s.Derive(999)) {
		t.Fatal("jitter-free derivation depends on the seed")
	}
}

func TestDerivePlanSortedAndComplete(t *testing.T) {
	s := Spec{
		LinkCutAt:     2 * time.Second,
		FlapAt:        100 * time.Millisecond,
		FlapDown:      50 * time.Millisecond,
		ServerStallAt: 400 * time.Millisecond, ServerStallFor: 100 * time.Millisecond,
		GoAwayAt:      300 * time.Millisecond,
		PushResetAt:   150 * time.Millisecond,
		DisablePushAt: 120 * time.Millisecond,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	p := s.Derive(1)
	// The flap contributes a down+up pair; the other five families one each.
	if want := 2 + 5; len(p.Events) != want {
		t.Fatalf("derived %d events, want %d: %+v", len(p.Events), want, p.Events)
	}
	counts := map[Kind]int{}
	for i, e := range p.Events {
		counts[e.Kind]++
		if i > 0 && e.At < p.Events[i-1].At {
			t.Fatalf("plan not time-sorted at %d: %+v", i, p.Events)
		}
	}
	want := map[Kind]int{
		KindLinkCut: 1, KindLinkDown: 1, KindLinkUp: 1,
		KindServerStall: 1, KindGoAway: 1, KindPushReset: 1, KindDisablePush: 1,
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("event kinds %v, want %v", counts, want)
	}
	for _, e := range p.Events {
		if e.Kind == KindServerStall && e.Dur != s.ServerStallFor {
			t.Fatalf("stall event lost its window: %+v", e)
		}
	}
}

func TestFlapDefaults(t *testing.T) {
	s := Spec{FlapAt: 300 * time.Millisecond, FlapDown: 200 * time.Millisecond}
	p := s.Derive(1)
	want := []Event{
		{At: 300 * time.Millisecond, Kind: KindLinkDown},
		{At: 500 * time.Millisecond, Kind: KindLinkUp},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("single-flap plan %+v, want %+v", p.Events, want)
	} // The fault sweep's notes (and its golden) print the flap count.
	if got, want := s.Describe(), "1x link flap 200ms @300ms"; got != want {
		t.Fatalf("Describe() = %q, want %q", got, want)
	}
}

func TestValidateRejectsInconsistentSpecs(t *testing.T) {
	bad := []Spec{
		{LinkCutAt: -time.Second},
		{FlapAt: time.Second},                  // no FlapDown
		{ServerStallAt: time.Second},           // no window
		{FlapAt: time.Second, FlapDown: -1},    // negative duration
		{PushResetAt: time.Second, Jitter: -1}, // negative jitter
		{DisablePushAt: -1 * time.Millisecond}, // negative instant
		{GoAwayAt: time.Second, ServerStallFor: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) validated", i, s)
		}
	}
	for i, s := range append([]Spec{{}}, func() []Spec {
		var out []Spec
		for _, f := range Families() {
			out = append(out, f.Spec)
		}
		return out
	}()...) {
		if err := s.Validate(); err != nil {
			t.Errorf("good spec %d failed validation: %v", i, err)
		}
	}
}

func TestInjectorFiresInPlanOrder(t *testing.T) {
	var s sim.Sim
	s.Reset(1)
	spec := Spec{
		FlapAt: 100 * time.Millisecond, FlapDown: 50 * time.Millisecond,
		GoAwayAt: 125 * time.Millisecond,
	}
	plan := spec.Derive(1)
	var in Injector
	var got []Event
	in.Reset(&s, func(e Event) {
		if now := s.Now(); now != e.At {
			t.Errorf("event %v fired at %v, want %v", e.Kind, now, e.At)
		}
		got = append(got, e)
	})
	in.Arm(plan)
	s.Run()
	if !reflect.DeepEqual(got, plan.Events) {
		t.Fatalf("fired %+v, want plan order %+v", got, plan.Events)
	}
}

func TestInjectorEmptyPlanSchedulesNothing(t *testing.T) {
	var s sim.Sim
	s.Reset(1)
	var in Injector
	in.Reset(&s, func(Event) { t.Fatal("fault-free plan fired an event") })
	in.Arm(Plan{})
	if n := s.Run(); n != 0 {
		t.Fatalf("empty plan ran %d events, want 0", n)
	}
	// Sequence numbers must not move either: the next reserved number
	// is the same as on a sim that never saw the injector.
	var ref sim.Sim
	ref.Reset(1)
	if got, want := s.ReserveSeq(), ref.ReserveSeq(); got != want {
		t.Fatalf("empty plan consumed sequence numbers: next=%d, want %d", got, want)
	}
}
