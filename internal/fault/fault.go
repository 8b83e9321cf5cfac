// Package fault is the testbed's deterministic fault-injection
// subsystem. A Spec describes, as plain data on a scenario, which
// failures strike a page load and when: the access link being cut or
// flapping, the replay server stalling (black-holing requests for a
// window), a mid-load GOAWAY, RST_STREAM on in-flight pushed streams,
// or the client disabling server push mid-connection.
//
// Derive lowers a Spec into a Plan — a flat, time-sorted list of
// concrete events — using a seed-derived RNG stream that is separate
// from every other derivation stream, so adding faults to a scenario
// never perturbs its link, think-time or third-party draws. An
// Injector schedules the plan's events on the sim clock and hands each
// one to a driver-installed apply callback; with an empty plan it
// schedules nothing, consumes no sequence numbers, and the fault-free
// path stays byte-identical to a build without this package.
package fault

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/sim"
)

// Kind identifies one fault event family.
type Kind uint8

const (
	// KindLinkCut tail-drops every packet in both link directions from
	// At onward, permanently. Handshakes still complete (connection
	// setup is modelled outside the pipes) but no bytes flow, so loads
	// end at the browser's horizon with a partial or failed outcome.
	KindLinkCut Kind = iota
	// KindLinkDown / KindLinkUp bracket one flap: packets are dropped
	// between the two instants and retransmission recovers afterwards.
	KindLinkDown
	KindLinkUp
	// KindServerStall black-holes the replay server for Dur: requests
	// arriving in the window are not dispatched until it ends.
	KindServerStall
	// KindGoAway makes every active server connection send GOAWAY and
	// stop accepting new streams.
	KindGoAway
	// KindPushReset makes every active server connection abort its
	// in-flight pushed streams with RST_STREAM(CANCEL).
	KindPushReset
	// KindDisablePush makes the client disable server push on every
	// open connection (SETTINGS_ENABLE_PUSH=0) and on future dials.
	KindDisablePush
	numKinds
)

var kindNames = [numKinds]string{
	"link-cut", "link-down", "link-up", "server-stall",
	"goaway", "push-reset", "push-disable",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Event is one realised fault: Kind strikes at At; Dur carries the
// window length for KindServerStall and is zero otherwise.
type Event struct {
	At   time.Duration
	Kind Kind
	Dur  time.Duration
}

// Plan is a realised fault schedule, sorted by time. The zero Plan is
// the fault-free run.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// Spec describes a scenario's fault regime as plain data. Zero fields
// disable their family; the zero Spec is fault-free. Times are virtual
// (sim-clock) offsets from the start of the page load.
type Spec struct {
	// LinkCutAt cuts the link permanently at this instant.
	LinkCutAt time.Duration
	// FlapAt takes the link down for FlapDown, once.
	FlapAt   time.Duration
	FlapDown time.Duration
	// ServerStallAt black-holes the server for ServerStallFor.
	ServerStallAt  time.Duration
	ServerStallFor time.Duration
	// GoAwayAt sends GOAWAY on every active server connection.
	GoAwayAt time.Duration
	// PushResetAt aborts in-flight pushed streams on every active
	// server connection.
	PushResetAt time.Duration
	// DisablePushAt turns off server push client-side mid-connection.
	DisablePushAt time.Duration
	// Jitter, when positive, shifts every event time by a uniform draw
	// from [0, Jitter) taken from the fault RNG stream, realising a
	// different (but seed-deterministic) strike time per run.
	Jitter time.Duration
}

// enabled reports whether the spec injects any fault.
func (s Spec) enabled() bool {
	return s.LinkCutAt > 0 || s.FlapAt > 0 || s.ServerStallAt > 0 ||
		s.GoAwayAt > 0 || s.PushResetAt > 0 || s.DisablePushAt > 0
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"LinkCutAt", s.LinkCutAt}, {"FlapAt", s.FlapAt},
		{"FlapDown", s.FlapDown},
		{"ServerStallAt", s.ServerStallAt}, {"ServerStallFor", s.ServerStallFor},
		{"GoAwayAt", s.GoAwayAt}, {"PushResetAt", s.PushResetAt},
		{"DisablePushAt", s.DisablePushAt}, {"Jitter", s.Jitter},
	} {
		if f.d < 0 {
			return fmt.Errorf("fault: negative %s %v", f.name, f.d)
		}
	}
	if s.FlapAt > 0 && s.FlapDown <= 0 {
		return fmt.Errorf("fault: FlapAt %v needs positive FlapDown", s.FlapAt)
	}
	if s.ServerStallAt > 0 && s.ServerStallFor <= 0 {
		return fmt.Errorf("fault: ServerStallAt %v needs positive ServerStallFor", s.ServerStallAt)
	}
	return nil
}

// Describe renders the active fault families for table notes, or ""
// for a fault-free spec.
func (s Spec) Describe() string {
	var parts []string
	if s.LinkCutAt > 0 {
		parts = append(parts, fmt.Sprintf("link cut @%v", s.LinkCutAt))
	}
	if s.FlapAt > 0 {
		// The count stays in the text the fault sweep's notes print.
		parts = append(parts, fmt.Sprintf("1x link flap %v @%v", s.FlapDown, s.FlapAt))
	}
	if s.ServerStallAt > 0 {
		parts = append(parts, fmt.Sprintf("server stall %v @%v", s.ServerStallFor, s.ServerStallAt))
	}
	if s.GoAwayAt > 0 {
		parts = append(parts, fmt.Sprintf("goaway @%v", s.GoAwayAt))
	}
	if s.PushResetAt > 0 {
		parts = append(parts, fmt.Sprintf("push reset @%v", s.PushResetAt))
	}
	if s.DisablePushAt > 0 {
		parts = append(parts, fmt.Sprintf("push disable @%v", s.DisablePushAt))
	}
	if s.Jitter > 0 && len(parts) > 0 {
		parts = append(parts, fmt.Sprintf("jitter <%v", s.Jitter))
	}
	return strings.Join(parts, ", ")
}

// Derive lowers the spec into a concrete, time-sorted plan for one run
// seed. It is deterministic — identical (spec, seed) pairs yield
// identical plans — and draws from its own RNG stream (seed ^ 0xfa17)
// only when Jitter is set, so the scenario's other derivation streams
// never move. A fault-free spec returns the zero Plan without
// allocating.
func (s Spec) Derive(seed int64) Plan { return s.DeriveInto(seed, nil) }

// DeriveInto is Derive with the plan's events appended to buf[:0], so
// a caller that derives a plan per run reuses one buffer once the
// previous run is over. The returned plan aliases buf.
func (s Spec) DeriveInto(seed int64, buf []Event) Plan {
	if !s.enabled() {
		return Plan{}
	}
	var rng *rand.Rand
	jitter := func() time.Duration { return 0 }
	if s.Jitter > 0 {
		rng = rand.New(rand.NewSource(seed ^ 0xfa17))
		jitter = func() time.Duration { return time.Duration(rng.Int63n(int64(s.Jitter))) }
	}
	// Every family fits the one allocation: five single-event faults and
	// the flap's down and up.
	ev := slices.Grow(buf[:0], 7)
	if s.LinkCutAt > 0 {
		ev = append(ev, Event{At: s.LinkCutAt + jitter(), Kind: KindLinkCut})
	}
	if s.FlapAt > 0 {
		at := s.FlapAt + jitter()
		ev = append(ev,
			Event{At: at, Kind: KindLinkDown},
			Event{At: at + s.FlapDown, Kind: KindLinkUp})
	}
	if s.ServerStallAt > 0 {
		ev = append(ev, Event{At: s.ServerStallAt + jitter(), Kind: KindServerStall, Dur: s.ServerStallFor})
	}
	if s.GoAwayAt > 0 {
		ev = append(ev, Event{At: s.GoAwayAt + jitter(), Kind: KindGoAway})
	}
	if s.PushResetAt > 0 {
		ev = append(ev, Event{At: s.PushResetAt + jitter(), Kind: KindPushReset})
	}
	if s.DisablePushAt > 0 {
		ev = append(ev, Event{At: s.DisablePushAt + jitter(), Kind: KindDisablePush})
	}
	slices.SortStableFunc(ev, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	return Plan{Events: ev}
}

// Injector schedules a plan's events on the sim clock and applies each
// through a driver-installed callback. One injector is pooled per run
// context and re-armed per run.
//
//repolint:pooled
type Injector struct {
	s     *sim.Sim
	plan  Plan
	next  int
	apply func(Event) //repolint:keep installed once per run context, owned by the driver
}

// Reset re-arms the injector for a new run: sim binding and apply
// callback are replaced, the plan is cleared. Events scheduled by a
// previous Arm die with the sim's own Reset.
func (in *Injector) Reset(s *sim.Sim, apply func(Event)) {
	in.s = s
	in.plan = Plan{}
	in.next = 0
	in.apply = apply
}

// Arm schedules every plan event at its strike time. With an empty
// plan it schedules nothing — zero events, zero sequence numbers — so
// arming a fault-free run leaves the event order byte-identical to not
// arming at all. Events fire in plan order (the plan is time-sorted
// and same-instant events keep their scheduling order).
func (in *Injector) Arm(plan Plan) {
	in.plan = plan
	in.next = 0
	for _, e := range plan.Events {
		in.s.AtCall(e.At, injectorStep, in)
	}
}

func injectorStep(arg any) {
	in := arg.(*Injector)
	e := in.plan.Events[in.next]
	in.next++
	in.apply(e)
}

// Family is a named fault regime for sweep experiments.
type Family struct {
	Name string
	Spec Spec
}

// Families returns the named fault regimes the FaultSweep experiment
// runs, "none" first as the fault-free baseline. Strike times are
// chosen to land inside a typical testbed page load (first bytes
// around a few hundred milliseconds in, loads completing within a few
// seconds on the DSL link).
func Families() []Family {
	return []Family{
		{Name: "none", Spec: Spec{}},
		{Name: "flap", Spec: Spec{FlapAt: 300 * time.Millisecond, FlapDown: 200 * time.Millisecond}},
		{Name: "stall", Spec: Spec{ServerStallAt: 200 * time.Millisecond, ServerStallFor: 400 * time.Millisecond}},
		{Name: "goaway", Spec: Spec{GoAwayAt: 250 * time.Millisecond}},
		{Name: "push-reset", Spec: Spec{PushResetAt: 150 * time.Millisecond}},
		{Name: "push-disable", Spec: Spec{DisablePushAt: 100 * time.Millisecond}},
		{Name: "link-cut", Spec: Spec{LinkCutAt: 400 * time.Millisecond}},
	}
}
