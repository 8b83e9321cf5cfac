package replay

import (
	"maps"
	"sync"
)

// Plan is a push strategy lowered to serving directives: what each
// response triggers. Strategies (internal/strategy) compile to a Plan;
// the replay farm executes it. A Plan is immutable once built: its maps
// are read by every farm replaying it, concurrently, and the lowering
// computed from them is kept for the plan's lifetime.
type Plan struct {
	// Push maps a triggering URL (usually the base HTML) to the ordered
	// list of absolute URLs to push on its request. The farm silently
	// drops non-authoritative pushes (objects on other servers cannot be
	// pushed, Sec. 4.2).
	Push map[string][]string
	// Interleave maps a triggering URL to an interleaving directive.
	Interleave map[string]InterleaveSpec

	// low carries the plan's lowering from farm to farm. PushList and
	// WithInterleave attach it; a plan assembled field by field has none
	// and is lowered privately by each farm on every Reset.
	low *lowering
}

// lowering is the shared handle of one built plan: the plan lowered
// onto the site it was last replayed on (in practice the only one — a
// plan names one site's URLs; per-run overlay variants of that site are
// the exception, and each farm keeps pointing at its own variant's
// lowering without coming back here). Its lifetime is the plan's, so
// nothing accumulates across strategy applications.
type lowering struct {
	mu   sync.Mutex
	last *resolvedPlan
}

// lowerOnto returns the plan lowered onto site, computing it at most
// once per (site, plan) for plans that carry a handle. The result is
// read-only and shared by every caller.
func (p Plan) lowerOnto(site *Site) *resolvedPlan {
	if len(p.Push) == 0 {
		return &noPushes
	}
	if p.low == nil {
		return lowerPlan(site, p)
	}
	p.low.mu.Lock()
	defer p.low.mu.Unlock()
	if rp := p.low.last; rp != nil && rp.site == site {
		return rp
	}
	rp := lowerPlan(site, p)
	p.low.last = rp
	return rp
}

// InterleaveSpec is the paper's modified-scheduler directive (Sec. 5):
// send OffsetBytes of the response, hard-switch to the pushes listed in
// Critical (in order), then resume. Pushed URLs not in Critical are sent
// after the response completes (the "push all optimized" layout).
type InterleaveSpec struct {
	OffsetBytes int
	Critical    []string
}

// NoPush is the empty plan (the baseline; with the client additionally
// setting SETTINGS_ENABLE_PUSH=0 nothing is ever pushed).
func NoPush() Plan { return Plan{} }

// PushList builds a plan that pushes the given URLs when trigger is
// requested.
func PushList(trigger string, urls ...string) Plan {
	return Plan{Push: map[string][]string{trigger: urls}, low: &lowering{}}
}

// WithInterleave returns a copy of p with an interleave directive added.
// p itself is left as it was: the copy gets its own directive map and
// its own lowering handle.
func (p Plan) WithInterleave(trigger string, spec InterleaveSpec) Plan {
	ilv := make(map[string]InterleaveSpec, len(p.Interleave)+1)
	maps.Copy(ilv, p.Interleave)
	ilv[trigger] = spec
	return Plan{Push: p.Push, Interleave: ilv, low: &lowering{}}
}

// PushesFor returns the push list for a URL.
func (p Plan) PushesFor(url string) []string {
	if p.Push == nil {
		return nil
	}
	return p.Push[url]
}
