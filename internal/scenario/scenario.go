// Package scenario makes the testbed's measurement conditions a
// first-class, composable value. A Scenario couples a named emulated
// access link (netem.Profile) with a Variability model describing every
// source of run-to-run change the paper distinguishes between its
// controlled testbed and "the Internet" (Sec. 4.1, Fig. 2a): network
// jitter, server think time, dynamic third-party content and client
// compute jitter.
//
// Scenarios are plain data: the package ships a library of named
// scenarios (the paper's DSL testbed, the same link with Internet-mode
// variability, fiber, cable, LTE, 3G, lossy Wi-Fi, satellite) and any
// new measurement condition is a new value, not a change to the
// testbed core. Derive realises a scenario for one run seed and is
// fully deterministic: identical seeds yield identical Conditions,
// which is what keeps experiment tables byte-identical across
// worker-pool sizes.
package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/netem"
	"repro/internal/replay"
)

// interval is an interval [Low, High) a perturbation factor is drawn
// from uniformly. The zero interval disables the perturbation entirely (no RNG
// draw is consumed).
type interval struct {
	Low, High float64
}

func (r interval) enabled() bool { return r != (interval{}) }

func (r interval) draw(rng *rand.Rand) float64 { return r.Low + rng.Float64()*(r.High-r.Low) }

func (r interval) validate(what string, minLow float64) error {
	if !r.enabled() {
		return nil
	}
	if r.Low < minLow || r.High < r.Low {
		return fmt.Errorf("scenario: %s range [%g,%g) invalid (need %g <= low <= high)", what, r.Low, r.High, minLow)
	}
	return nil
}

// Variability models run-to-run change. The zero value is the fully
// controlled testbed: every run sees exactly the scenario's profile and
// the browser's configured compute jitter.
type Variability struct {
	// RTT multiplies the profile RTT by a per-run factor from this range.
	RTT interval
	// Rate multiplies DownRate and UpRate by independent per-run factors
	// from this range.
	Rate interval
	// Loss replaces the profile loss rate with a per-run draw from this
	// absolute range (values in [0,1)).
	Loss interval
	// ClientJitterFrac overrides the browser's compute-jitter fraction
	// (browser.Config.JitterFrac) when positive; a negative value forces
	// a fully deterministic client (jitter 0), so disabling compute
	// jitter is a scenario-data change too. Zero keeps the browser's
	// configured default.
	ClientJitterFrac float64
	// ThinkTimeMax adds a per-run server think time drawn uniformly from
	// [0, ThinkTimeMax) in whole milliseconds.
	ThinkTimeMax time.Duration
	// ThirdParty rescales the bodies of objects served by hosts outside
	// the base origin's authority by an independent per-object factor
	// from this range, modelling ads rotating between loads (Sec. 4).
	ThirdParty interval
}

func (v Variability) validate() error {
	if err := v.RTT.validate("RTT factor", 1e-3); err != nil {
		return err
	}
	if err := v.Rate.validate("rate factor", 1e-3); err != nil {
		return err
	}
	if err := v.Loss.validate("loss", 0); err != nil {
		return err
	}
	if v.Loss.enabled() && v.Loss.High >= 1 {
		return fmt.Errorf("scenario: loss range [%g,%g) out of [0,1)", v.Loss.Low, v.Loss.High)
	}
	if v.ClientJitterFrac >= 1 {
		return fmt.Errorf("scenario: client jitter fraction %g out of (-inf,1); negative disables jitter", v.ClientJitterFrac)
	}
	if v.ThinkTimeMax < 0 {
		return fmt.Errorf("scenario: negative think time %v", v.ThinkTimeMax)
	}
	if v.ThinkTimeMax > 0 && v.ThinkTimeMax < time.Millisecond {
		// Think time is drawn in whole milliseconds; rejecting the
		// sub-millisecond range beats silently ignoring it in Derive.
		return fmt.Errorf("scenario: think time %v below the 1ms draw granularity", v.ThinkTimeMax)
	}
	return v.ThirdParty.validate("third-party scale", 1e-3)
}

// Describe renders the active perturbations for table notes, or "" for
// a fully controlled scenario.
func (v Variability) Describe() string {
	var parts []string
	if v.RTT.enabled() {
		parts = append(parts, fmt.Sprintf("RTT x[%g,%g)", v.RTT.Low, v.RTT.High))
	}
	if v.Rate.enabled() {
		parts = append(parts, fmt.Sprintf("rates x[%g,%g)", v.Rate.Low, v.Rate.High))
	}
	if v.Loss.enabled() {
		parts = append(parts, fmt.Sprintf("loss drawn [%.2f%%,%.2f%%)", v.Loss.Low*100, v.Loss.High*100))
	}
	switch {
	case v.ClientJitterFrac > 0:
		parts = append(parts, fmt.Sprintf("client jitter %.0f%%", v.ClientJitterFrac*100))
	case v.ClientJitterFrac < 0:
		parts = append(parts, "client jitter off")
	}
	if v.ThinkTimeMax >= time.Millisecond {
		parts = append(parts, fmt.Sprintf("think time <%v", v.ThinkTimeMax))
	}
	if v.ThirdParty.enabled() {
		parts = append(parts, fmt.Sprintf("3rd-party bodies x[%g,%g)", v.ThirdParty.Low, v.ThirdParty.High))
	}
	return strings.Join(parts, ", ")
}

// Scenario is one named measurement condition: an access link plus the
// variability applied on top of it per run.
type Scenario struct {
	Name    string
	Info    string // one-line human description for tables and docs
	Profile netem.Profile
	Vary    Variability
	// Faults is the scenario's fault regime, realised per run by
	// Derive. The zero Spec is fault-free.
	Faults fault.Spec
}

// With returns a copy of the scenario with the given variability model,
// composing a link with a perturbation regime.
func (sc Scenario) With(v Variability) Scenario {
	sc.Vary = v
	return sc
}

// WithFaults returns a copy of the scenario with the given fault
// regime, composing a link with a failure schedule.
func (sc Scenario) WithFaults(fs fault.Spec) Scenario {
	sc.Faults = fs
	return sc
}

// Validate reports whether the scenario is internally consistent. The
// testbed calls it at construction so a bad scenario fails fast with a
// clear error instead of a mid-experiment panic.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if err := sc.Profile.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if err := sc.Vary.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if err := sc.Faults.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	return nil
}

// Conditions is one realised run of a Scenario: the perturbed link
// profile plus the per-run browser and server parameters the testbed
// consumes.
type Conditions struct {
	Profile netem.Profile
	// ClientJitterFrac overrides the browser compute jitter when
	// positive; zero keeps the browser's configured default.
	ClientJitterFrac float64
	// ThinkTime delays every replay-server response.
	ThinkTime time.Duration
	// Faults is this run's realised fault schedule; empty for
	// fault-free scenarios.
	Faults fault.Plan

	thirdParty interval
	// rng and trng are the variability and think-time streams; faultBuf
	// backs Faults. DeriveInto re-seeds and refills them, so a
	// Conditions derived into over and over allocates them once.
	rng      *rand.Rand
	trng     *rand.Rand
	faultBuf []fault.Event
}

// FaultsActive reports whether this run injects any fault.
func (c *Conditions) FaultsActive() bool { return !c.Faults.Empty() }

// Derive realises the scenario for one run seed. It is deterministic:
// the same seed always yields the same Conditions and the same
// ApplySiteInto output.
func (sc Scenario) Derive(seed int64) *Conditions {
	c := &Conditions{}
	sc.DeriveInto(seed, c)
	return c
}

// DeriveInto is Derive into caller-owned storage: c is overwritten with
// the realisation for seed, field for field what Derive returns,
// whatever c held before. It reuses c's random sources and fault-event
// buffer, so a Conditions a run context derives into every run
// allocates nothing once warm. The previous realisation — its fault
// plan and its ApplySiteInto stream — is invalid afterwards.
func (sc Scenario) DeriveInto(seed int64, c *Conditions) {
	*c = Conditions{
		Profile:          sc.Profile,
		ClientJitterFrac: sc.Vary.ClientJitterFrac,
		rng:              c.rng,
		trng:             c.trng,
		faultBuf:         c.faultBuf,
	}
	v := sc.Vary
	// The sources are seeded only when drawn from: fully controlled
	// scenarios (most of the library) never build one.
	if v.RTT.enabled() || v.Rate.enabled() || v.Loss.enabled() || v.ThirdParty.enabled() {
		c.rng = seeded(c.rng, seed^0x5eed)
	}
	rng := c.rng
	if v.RTT.enabled() {
		c.Profile.RTT = time.Duration(float64(c.Profile.RTT) * v.RTT.draw(rng))
	}
	if v.Rate.enabled() {
		c.Profile.DownRate = netem.Rate(float64(c.Profile.DownRate) * v.Rate.draw(rng))
		c.Profile.UpRate = netem.Rate(float64(c.Profile.UpRate) * v.Rate.draw(rng))
	}
	if v.Loss.enabled() {
		c.Profile.LossRate = v.Loss.draw(rng)
	}
	if v.ThinkTimeMax >= time.Millisecond {
		c.trng = seeded(c.trng, seed^0x7417)
		c.ThinkTime = time.Duration(c.trng.Intn(int(v.ThinkTimeMax/time.Millisecond))) * time.Millisecond
	}
	if v.ThirdParty.enabled() {
		c.thirdParty = v.ThirdParty
	}
	// Fault realisation uses its own RNG stream (see fault.Derive), so a
	// fault-bearing scenario leaves every draw above untouched and a
	// fault-free spec leaves the Conditions byte-identical.
	c.Faults = sc.Faults.DeriveInto(seed, c.faultBuf)
	if c.Faults.Events != nil {
		c.faultBuf = c.Faults.Events
	}
}

// seeded returns r re-seeded with seed, or a new source if r is nil.
// Rand.Seed restarts the stream exactly where rand.NewSource(seed)
// starts it.
func seeded(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(rand.NewSource(seed))
	}
	r.Seed(seed)
	return r
}

// SiteScratch is the reusable backing store for per-run third-party
// overlays. A run context keeps one and hands it to ApplySiteInto every
// run: the variant site, its database and the scaled entries (and their
// body buffers) are built once per base site and only the scaled bytes
// are rewritten per run, so a warm overlay allocates nothing. The
// scratch must be owned by a single worker — the overlay it returns is
// only valid until the next ApplySiteInto call on the same scratch.
type SiteScratch struct {
	base    *replay.Site
	variant *replay.Site
	scaled  []*replay.Entry // overlay entries whose bodies are rewritten per run
	orig    []*replay.Entry // the recorded entries they scale, same order
}

// rebuild constructs the overlay skeleton for a new base site: shared
// (authoritative) entries are added by pointer, third-party entries get
// a scratch-owned copy whose Body is filled in per run.
func (sc *SiteScratch) rebuild(site *replay.Site) {
	sc.base = site
	sc.scaled = sc.scaled[:0]
	sc.orig = sc.orig[:0]
	db := replay.NewDB()
	for _, e := range site.DB.Entries() {
		if site.Authoritative(site.Base.Authority, e.URL.Authority) {
			db.Add(e)
			continue
		}
		ne := *e
		ne.Body = nil
		db.Add(&ne)
		sc.scaled = append(sc.scaled, &ne)
		sc.orig = append(sc.orig, e)
	}
	sc.variant = site.NewVariant(db)
}

// ApplySiteInto realises dynamic third-party content for this run:
// bodies on servers other than the base origin are rescaled per object.
// Sites without third-party variability pass through unchanged. Call it
// at most once per Conditions — the scaling consumes the derivation's
// RNG stream, so a second call would realise a different site.
//
// The overlay is allocated from (and cached in) scratch. The realised
// site is byte-identical whatever scratch held before — same entries,
// same draw order, same scaled bodies — but a warm scratch reuses the
// variant site, database and body buffers across runs.
func (c *Conditions) ApplySiteInto(site *replay.Site, scratch *SiteScratch) *replay.Site {
	if !c.thirdParty.enabled() {
		return site
	}
	if scratch.base != site {
		scratch.rebuild(site)
	}
	for i, e := range scratch.orig {
		ne := scratch.scaled[i]
		n := max(int(float64(len(e.Body))*c.thirdParty.draw(c.rng)), 16)
		body := ne.Body
		if cap(body) < n {
			body = make([]byte, n)
		} else {
			body = body[:n]
		}
		m := copy(body, e.Body)
		for j := m; j < n; j++ {
			body[j] = byte('x')
		}
		ne.Body = body
	}
	return scratch.variant
}
