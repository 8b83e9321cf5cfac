// Package replay is the testbed's record-and-replay substrate, modelled
// on Mahimahi (Netravali et al., ATC'15) as adapted by the paper
// (Sec. 4.1): recorded request/response pairs are stored in a database;
// at replay time one virtual origin server is spawned per recorded IP, so
// the connection pattern matches the real deployment; certificates are
// generated per server covering all hostnames on that IP (Subject
// Alternative Names), which lets the browser coalesce connections exactly
// as Chromium does; and a per-site push plan defines what each server
// pushes and how responses are interleaved.
package replay

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/page"
)

// Entry is one recorded request/response pair plus the crawl-side
// metadata the deterministic browser model needs.
type Entry struct {
	URL         page.URL
	Status      int
	ContentType string
	// Body is read-only and may alias a buffer shared with other
	// entries and other sites (corpus payloads do): never write or
	// append to it in place. To change a body, copy it into a new Entry,
	// as scenario.ApplySiteInto and strategy's HTML rewrite do.
	Body []byte
	Meta page.Meta
}

// Kind classifies the entry by content type, falling back to the path.
func (e *Entry) Kind() page.Kind {
	if k := page.KindFromContentType(e.ContentType); k != page.KindOther {
		return k
	}
	return page.KindFromPath(e.URL.Path)
}

// DB is a recorded-site database: the Mahimahi record directory. The
// index is two-level (authority, then path) so the hot Lookup path
// never has to build a combined key string.
type DB struct {
	entries map[string]map[string]*Entry
	order   []dbKey
}

type dbKey struct{ authority, path string }

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{entries: make(map[string]map[string]*Entry)}
}

// Add stores an entry, replacing any previous one for the same URL.
func (db *DB) Add(e *Entry) {
	m := db.entries[e.URL.Authority]
	if m == nil {
		m = make(map[string]*Entry)
		db.entries[e.URL.Authority] = m
	}
	if _, dup := m[e.URL.Path]; !dup {
		db.order = append(db.order, dbKey{e.URL.Authority, e.URL.Path})
	}
	m[e.URL.Path] = e
}

// Lookup matches a request to a recorded response. Like Mahimahi, an
// exact match is preferred; otherwise the query string is ignored as a
// fallback for dynamic parameters.
func (db *DB) Lookup(authority, path string) *Entry {
	m := db.entries[authority]
	if e, ok := m[path]; ok {
		return e
	}
	stripped := path
	if i := strings.IndexByte(stripped, '?'); i >= 0 {
		stripped = stripped[:i]
		if e, ok := m[stripped]; ok {
			return e
		}
	}
	// Last resort: match a recorded URL whose path (sans query) equals
	// the requested path (sans query).
	for _, k := range db.order {
		e := db.entries[k.authority][k.path]
		p := e.URL.Path
		if j := strings.IndexByte(p, '?'); j >= 0 {
			p = p[:j]
		}
		if e.URL.Authority == authority && p == stripped {
			return e
		}
	}
	return nil
}

// Get returns the entry for an absolute URL string, or nil.
func (db *DB) Get(url string) *Entry {
	u, err := page.ParseURL(url, page.URL{})
	if err != nil {
		return nil
	}
	return db.Lookup(u.Authority, u.Path)
}

// Len returns the number of recorded objects.
func (db *DB) Len() int { return len(db.order) }

// Entries returns all entries in insertion order.
func (db *DB) Entries() []*Entry {
	out := make([]*Entry, 0, len(db.order))
	for _, k := range db.order {
		out = append(out, db.entries[k.authority][k.path])
	}
	return out
}

// Clone returns an independently mutable view of the database that
// shares the underlying entries. Entries are immutable once recorded
// (the zero-copy data plane already relies on that), so a rewrite
// replaces an entry via Add with a fresh *Entry rather than mutating
// one in place; the share-on-clone therefore costs no per-body copies
// and keeps entry identity stable, which is what lets a rewritten
// site's untouched stylesheets keep hitting the prepared-site caches.
func (db *DB) Clone() *DB {
	out := NewDB()
	for _, k := range db.order {
		out.Add(db.entries[k.authority][k.path])
	}
	return out
}

// Site is a replayable website: its database plus the deployment
// topology (which hostname lives on which IP, and which hostnames each
// server's certificate covers).
type Site struct {
	Name string
	Base page.URL // landing page URL
	DB   *DB
	// IPByHost emulates DNS: every recorded hostname resolves to the IP
	// of the local server replaying it.
	IPByHost map[string]string
	// SANsByIP lists the hostnames on each server's certificate. A
	// browser may coalesce connections for two hostnames when they share
	// an IP and the certificate covers both.
	SANsByIP map[string][]string

	// Parse-once state, computed lazily by Prepared. Variant sites (a
	// per-run third-party overlay) carry a parent pointer instead and
	// delegate, so they share the base site's preparation. Sites are
	// always handled by pointer; the sync.Once makes value copies
	// ill-formed (go vet copylocks), which is intentional.
	prepOnce sync.Once
	prep     *Prepared
	parent   *Site
}

// NewVariant returns a site with s's name, base and topology but a
// different database, sharing s's prepared state. It exists for per-run
// overlays (scenario third-party scaling) whose databases replace a few
// entries but keep the base document: entries shared by pointer with
// the base site keep hitting the prepared caches, replaced entries miss
// and are parsed per run. The variant must not outlive the base site's
// immutability assumptions — its shared entries are read-only.
func (s *Site) NewVariant(db *DB) *Site {
	base := s
	if s.parent != nil {
		base = s.parent
	}
	return &Site{
		Name: s.Name, Base: s.Base, DB: db,
		IPByHost: s.IPByHost, SANsByIP: s.SANsByIP,
		parent: base,
	}
}

// NewSite builds a Site from a database, assigning each distinct
// hostname its own IP and certificate (no coalescing) unless hosts were
// merged later via MergeHosts.
func NewSite(name string, base page.URL, db *DB) *Site {
	s := &Site{
		Name:     name,
		Base:     base,
		DB:       db,
		IPByHost: map[string]string{},
		SANsByIP: map[string][]string{},
	}
	hosts := map[string]bool{}
	for _, e := range db.Entries() {
		hosts[e.URL.Authority] = true
	}
	sorted := make([]string, 0, len(hosts))
	for h := range hosts {
		sorted = append(sorted, h)
	}
	sort.Strings(sorted)
	for i, h := range sorted {
		ip := fmt.Sprintf("10.0.%d.%d", i/250, i%250+1)
		s.IPByHost[h] = ip
		s.SANsByIP[ip] = []string{h}
	}
	return s
}

// MergeHosts relocates the given hostnames onto the primary host's
// server: same IP, certificate covering all of them. This models the
// paper's unification of same-infrastructure domains (Sec. 5:
// img.bbystatic.com merged with bestbuy.com) and its synthetic
// single-server relocation (Sec. 4.3).
func (s *Site) MergeHosts(primary string, others ...string) {
	ip, ok := s.IPByHost[primary]
	if !ok {
		return
	}
	for _, h := range others {
		old, ok := s.IPByHost[h]
		if !ok || old == ip {
			continue
		}
		s.IPByHost[h] = ip
		// Remove from old SAN list.
		var rest []string
		for _, x := range s.SANsByIP[old] {
			if x != h {
				rest = append(rest, x)
			}
		}
		if len(rest) == 0 {
			delete(s.SANsByIP, old)
		} else {
			s.SANsByIP[old] = rest
		}
		s.SANsByIP[ip] = append(s.SANsByIP[ip], h)
	}
}

// ConnKey returns the coalescing key for a hostname: hosts with the same
// key share one connection (same IP and covered by the same
// certificate). Unknown hosts get their own key.
func (s *Site) ConnKey(host string) string {
	ip, ok := s.IPByHost[host]
	if !ok {
		return "unknown:" + host
	}
	for _, san := range s.SANsByIP[ip] {
		if san == host {
			return ip
		}
	}
	return "nosan:" + host
}

// Authoritative reports whether the server for onBehalfOf may push url:
// the pushed URL's host must resolve to the same server and be covered
// by its certificate (RFC 7540 Section 10.1; the paper's "pushable
// objects", Sec. 4.2).
func (s *Site) Authoritative(onBehalfOf, pushHost string) bool {
	return s.ConnKey(onBehalfOf) == s.ConnKey(pushHost) &&
		!strings.HasPrefix(s.ConnKey(onBehalfOf), "unknown:")
}

// PushableFraction returns the fraction of the site's objects that the
// base document's server is authoritative for.
func (s *Site) PushableFraction() float64 {
	total, pushable := 0, 0
	for _, e := range s.DB.Entries() {
		if e.URL == s.Base {
			continue
		}
		total++
		if s.Authoritative(s.Base.Authority, e.URL.Authority) {
			pushable++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(pushable) / float64(total)
}

// Hosts returns all hostnames in deterministic order.
func (s *Site) Hosts() []string {
	out := make([]string, 0, len(s.IPByHost))
	for h := range s.IPByHost {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}
