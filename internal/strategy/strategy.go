// Package strategy implements the paper's push strategies (Sec. 4-5) as
// transformations from a recorded site (plus an optional request trace)
// to a serving plan, and in the "optimized" cases a rewritten site:
//
//	no push                 — baseline, client disables push
//	push all                — push every pushable object in computed order
//	push first N            — the limited-amount variants (1/5/10/15)
//	push by type            — CSS / JS / images / combinations
//	push critical           — only render-critical, above-the-fold objects
//	no push optimized       — critical CSS in <head>, full CSS at body end
//	push all optimized      — the rewrite + interleaved critical pushes,
//	                          then everything else after the document
//	push critical optimized — the rewrite + interleaved critical pushes
//
// The computed push order follows the paper's method: trace the request
// order of the landing page over repeated runs, build a dependency
// ranking, and take a majority vote across runs (Sec. 4.2).
package strategy

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/page"
	"repro/internal/replay"
)

// Trace is the input to push-order computation: per run, the URLs of the
// landing page's subresources in request order.
type Trace struct {
	Orders [][]string
}

// MajorityOrder computes a stable push order across runs: resources are
// ranked by their median position; ties break lexicographically. This is
// the paper's majority vote over per-run request orders.
func (tr *Trace) MajorityOrder() []string {
	if tr == nil || len(tr.Orders) == 0 {
		return nil
	}
	// Every sighting of a URL as one (url, pos) pair, sorted so that
	// each URL's positions form one ascending run.
	type sighting struct {
		url string
		pos int
	}
	n := 0
	for _, order := range tr.Orders {
		n += len(order)
	}
	seen := make([]sighting, 0, n)
	for _, order := range tr.Orders {
		for i, u := range order {
			seen = append(seen, sighting{u, i})
		}
	}
	slices.SortFunc(seen, func(a, b sighting) int {
		return cmp.Or(strings.Compare(a.url, b.url), cmp.Compare(a.pos, b.pos))
	})
	urls := 0
	for i := range seen {
		if i == 0 || seen[i].url != seen[i-1].url {
			urls++
		}
	}
	type ranked struct {
		url string
		pos float64
		n   int
	}
	rs := make([]ranked, 0, urls)
	for i := 0; i < len(seen); {
		j := i + 1
		for j < len(seen) && seen[j].url == seen[i].url {
			j++
		}
		ps := seen[i:j]
		med := float64(ps[len(ps)/2].pos)
		if len(ps)%2 == 0 {
			med = float64(ps[len(ps)/2-1].pos+ps[len(ps)/2].pos) / 2
		}
		rs = append(rs, ranked{seen[i].url, med, len(ps)})
		i = j
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		// Resources seen in more runs first (stable dependencies), then
		// by median position, then lexicographically.
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.pos, b.pos), strings.Compare(a.url, b.url))
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.url
	}
	return out
}

// Strategy produces a (possibly rewritten) site and a serving plan.
type Strategy interface {
	Name() string
	Apply(site *replay.Site, tr *Trace) (*replay.Site, replay.Plan)
}

// DisablesPush reports whether st's loads run with push turned off in
// the client (SETTINGS_ENABLE_PUSH=0): the two no-push baselines do,
// every pushing strategy does not.
func DisablesPush(st Strategy) bool {
	switch st.(type) {
	case NoPush, NoPushOptimized:
		return true
	}
	return false
}

// pushableOrder filters an ordered URL list down to objects the base
// server is authoritative for.
func pushableOrder(site *replay.Site, order []string) []string {
	var out []string
	baseURL := site.Base.String()
	for _, u := range order {
		if u == baseURL {
			continue
		}
		pu, err := page.ParseURL(u, site.Base)
		if err != nil {
			continue
		}
		if site.DB.Lookup(pu.Authority, pu.Path) == nil {
			continue
		}
		if site.Authoritative(site.Base.Authority, pu.Authority) {
			out = append(out, pu.String())
		}
	}
	return out
}

// orderOrStatic returns the majority-vote order when a trace exists, or
// the static document order otherwise (through the site's prepared
// parse, so the fallback stops re-tokenizing the document).
func orderOrStatic(site *replay.Site, tr *Trace) []string {
	if tr != nil && len(tr.Orders) > 0 {
		return tr.MajorityOrder()
	}
	entry := site.DB.Lookup(site.Base.Authority, site.Base.Path)
	if entry == nil {
		return nil
	}
	doc := site.Prepared().DocOf(entry)
	var out []string
	for _, r := range doc.Resources {
		u, err := page.ParseURL(r.URL, site.Base)
		if err == nil {
			out = append(out, u.String())
		}
	}
	return out
}

// --- basic strategies (Sec. 4.2) ---

// NoPush is the baseline.
type NoPush struct{}

func (NoPush) Name() string { return "no push" }
func (NoPush) Apply(site *replay.Site, _ *Trace) (*replay.Site, replay.Plan) {
	return site, replay.NoPush()
}

// PushAll pushes every pushable object in the computed order (Rosen et
// al.'s "push as much as possible").
type PushAll struct{}

func (PushAll) Name() string { return "push all" }
func (PushAll) Apply(site *replay.Site, tr *Trace) (*replay.Site, replay.Plan) {
	order := pushableOrder(site, orderOrStatic(site, tr))
	if len(order) == 0 {
		return site, replay.NoPush()
	}
	return site, replay.PushList(site.Base.String(), order...)
}

// PushFirstN pushes only the first N objects of the computed order
// (Bergan et al.'s "push just enough to fill idle network time").
type PushFirstN struct{ N int }

func (s PushFirstN) Name() string { return fmt.Sprintf("push %d", s.N) }
func (s PushFirstN) Apply(site *replay.Site, tr *Trace) (*replay.Site, replay.Plan) {
	order := pushableOrder(site, orderOrStatic(site, tr))
	if len(order) > s.N {
		order = order[:s.N]
	}
	if len(order) == 0 {
		return site, replay.NoPush()
	}
	return site, replay.PushList(site.Base.String(), order...)
}

// PushByType pushes only objects of the given kinds, in computed order.
type PushByType struct{ Kinds []page.Kind }

func (s PushByType) Name() string {
	n := "push"
	for _, k := range s.Kinds {
		n += " " + k.String()
	}
	return n
}

func (s PushByType) Apply(site *replay.Site, tr *Trace) (*replay.Site, replay.Plan) {
	order := pushableOrder(site, orderOrStatic(site, tr))
	var filtered []string
	for _, u := range order {
		e := site.DB.Get(u)
		if e == nil {
			continue
		}
		for _, k := range s.Kinds {
			if e.Kind() == k {
				filtered = append(filtered, u)
				break
			}
		}
	}
	if len(filtered) == 0 {
		return site, replay.NoPush()
	}
	return site, replay.PushList(site.Base.String(), filtered...)
}
