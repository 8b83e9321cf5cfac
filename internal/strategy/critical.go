package strategy

import (
	"strings"

	"repro/internal/browser"
	"repro/internal/cssx"
	"repro/internal/htmlx"
	"repro/internal/page"
	"repro/internal/replay"
)

// CriticalCSSPath is where optimized strategies serve the computed
// critical stylesheet on the base host.
const CriticalCSSPath = "/__critical.css"

// analysis is the manual-inspection step of Sec. 4.3/5 automated: the
// render-critical resource set of a landing page.
type analysis struct {
	doc *htmlx.Document
	atf []cssx.ElementSig

	criticalCSS string   // extracted critical rules
	cssLinks    []string // absolute URLs of all linked stylesheets
	blockingJS  []string // head synchronous scripts
	atfImages   []string // images with above-the-fold area
	fonts       []string // webfonts used by ATF text

	interleaveOffset int
}

// analyze returns the site's render-critical analysis, computed once
// per site and cached on the site's prepared state: every optimized
// strategy shares one analysis instead of re-running layout and
// critical-CSS extraction. The result is read-only.
func analyze(site *replay.Site) *analysis {
	return site.Prepared().Memo("strategy.analysis", func() any {
		return analyzeUncached(site)
	}).(*analysis)
}

func analyzeUncached(site *replay.Site) *analysis {
	prep := site.Prepared()
	entry := site.DB.Lookup(site.Base.Authority, site.Base.Path)
	if entry == nil {
		return nil
	}
	a := &analysis{doc: prep.DocOf(entry)}
	// The browser's layout decides what lies above the fold: the
	// element signatures for critical CSS and the ATF images to push.
	a.atf, a.atfImages = browser.SiteATF(site)

	// Interleave offset: just past </head> plus the first bytes of
	// <body> (Sec. 5), bounded below so the client has the document
	// start to begin DOM construction.
	a.interleaveOffset = a.doc.HeadEnd + 512
	if a.interleaveOffset < 4096 {
		a.interleaveOffset = 4096
	}
	if a.interleaveOffset > len(entry.Body) {
		a.interleaveOffset = len(entry.Body) / 2
	}

	// Critical CSS across every linked stylesheet (penthouse runs on the
	// full included CSS), plus the fonts ATF text needs.
	usedFams := map[string]bool{}
	for i := range a.doc.Elements {
		el := &a.doc.Elements[i]
		for _, c := range el.Classes {
			if strings.HasPrefix(c, "wf-") {
				usedFams[c[3:]] = true
			}
		}
	}
	var critical strings.Builder
	fontSeen := map[string]bool{}
	for _, r := range a.doc.Resources {
		u, err := page.ParseURL(r.URL, site.Base)
		if err != nil {
			continue
		}
		abs := u.String()
		switch r.Tag {
		case "link":
			if r.Media == "print" {
				continue
			}
			a.cssLinks = append(a.cssLinks, abs)
			ce := site.DB.Lookup(u.Authority, u.Path)
			if ce == nil {
				continue
			}
			sheet := prep.Sheet(ce)
			if sheet == nil {
				sheet = cssx.Parse(ce.Body)
			}
			res := cssx.ExtractCritical(sheet, a.atf)
			critical.WriteString(res.CSS)
			for _, ff := range sheet.FontFaces {
				if usedFams[ff.Family] && ff.URL != "" && !fontSeen[ff.URL] {
					fu, err := page.ParseURL(ff.URL, u)
					if err == nil {
						fontSeen[ff.URL] = true
						a.fonts = append(a.fonts, fu.String())
					}
				}
			}
		case "script":
			if r.InHead && !r.Async && !r.Defer {
				a.blockingJS = append(a.blockingJS, abs)
			}
		}
	}
	a.criticalCSS = critical.String()
	return a
}

// criticalPushList assembles the ordered critical resource list:
// critical CSS (when rewritten), render-blocking JS, webfonts, then ATF
// images — all filtered to pushable objects.
func (a *analysis) criticalPushList(site *replay.Site, withCriticalCSS bool) []string {
	var list []string
	if withCriticalCSS {
		list = append(list, page.URL{
			Scheme: site.Base.Scheme, Authority: site.Base.Authority, Path: CriticalCSSPath,
		}.String())
	} else {
		list = append(list, a.cssLinks...)
	}
	list = append(list, a.blockingJS...)
	list = append(list, a.fonts...)
	list = append(list, a.atfImages...)
	return pushableOrder(site, list)
}

// rewriteSite clones the site, adds the critical stylesheet, references
// it in <head> and moves every original stylesheet link to the end of
// <body> (the paper's "no push optimized" document layout). The rewrite
// is a pure function of the site and its analysis, so it is computed
// once and cached on the site's prepared state: all three optimized
// strategies share one (immutable) rewritten site, and repeated
// evaluations stop re-cloning the database.
func rewriteSite(site *replay.Site, a *analysis) *replay.Site {
	return site.Prepared().Memo("strategy.rewrite", func() any {
		return rewriteSiteUncached(site, a)
	}).(*replay.Site)
}

func rewriteSiteUncached(site *replay.Site, a *analysis) *replay.Site {
	db := site.DB.Clone()
	entry := db.Lookup(site.Base.Authority, site.Base.Path)
	critURL := page.URL{Scheme: site.Base.Scheme, Authority: site.Base.Authority, Path: CriticalCSSPath}
	db.Add(&replay.Entry{
		URL: critURL, Status: 200,
		ContentType: page.ContentTypeFor(page.KindCSS),
		Body:        []byte(a.criticalCSS),
	})
	// Insert the critical link at the head start after the move, so the
	// move pass reads the original document's offsets.
	newHTML := insertHeadLink(htmlx.MoveStylesheetsToBodyEnd(entry.Body), CriticalCSSPath)
	ne := *entry
	ne.Body = newHTML
	db.Add(&ne)

	ns := &replay.Site{
		Name:     site.Name + "+opt",
		Base:     site.Base,
		DB:       db,
		IPByHost: site.IPByHost,
		SANsByIP: site.SANsByIP,
	}
	return ns
}

func insertHeadLink(html []byte, href string) []byte {
	doc := htmlx.Parse(html)
	link := []byte(`<link rel="stylesheet" href="` + href + `">`)
	at := doc.HeadStart
	out := make([]byte, 0, len(html)+len(link))
	out = append(out, html[:at]...)
	out = append(out, link...)
	out = append(out, html[at:]...)
	return out
}

// --- critical strategies (Sec. 4.3 / 5) ---

// PushCritical pushes only render-critical above-the-fold resources,
// with the default scheduler and the original document.
type PushCritical struct{}

func (PushCritical) Name() string { return "push critical" }
func (PushCritical) Apply(site *replay.Site, _ *Trace) (*replay.Site, replay.Plan) {
	a := analyze(site)
	if a == nil {
		return site, replay.NoPush()
	}
	list := a.criticalPushList(site, false)
	if len(list) == 0 {
		return site, replay.NoPush()
	}
	return site, replay.PushList(site.Base.String(), list...)
}

// NoPushOptimized rewrites the document with a critical stylesheet in
// <head> and the full CSS at the end of <body>; nothing is pushed.
type NoPushOptimized struct{}

func (NoPushOptimized) Name() string { return "no push optimized" }
func (NoPushOptimized) Apply(site *replay.Site, _ *Trace) (*replay.Site, replay.Plan) {
	a := analyze(site)
	if a == nil || a.criticalCSS == "" {
		return site, replay.NoPush()
	}
	return rewriteSite(site, a), replay.NoPush()
}

// PushAllOptimized rewrites the document, pushes the critical set
// interleaved with the document, and everything else afterwards.
type PushAllOptimized struct{}

func (PushAllOptimized) Name() string { return "push all optimized" }
func (PushAllOptimized) Apply(site *replay.Site, tr *Trace) (*replay.Site, replay.Plan) {
	a := analyze(site)
	if a == nil {
		return site, replay.NoPush()
	}
	ns := rewriteSite(site, a)
	critical := a.criticalPushList(ns, true)
	all := pushableOrder(ns, orderOrStatic(ns, tr))
	list := append(append([]string(nil), critical...), all...)
	list = dedupe(list)
	if len(list) == 0 {
		return ns, replay.NoPush()
	}
	plan := replay.PushList(ns.Base.String(), list...).
		WithInterleave(ns.Base.String(), replay.InterleaveSpec{
			OffsetBytes: a.interleaveOffset,
			Critical:    critical,
		})
	return ns, plan
}

// PushCriticalOptimized is the paper's headline strategy: the rewrite
// plus interleaved pushes of only the critical resources.
type PushCriticalOptimized struct{}

func (PushCriticalOptimized) Name() string { return "push critical optimized" }
func (PushCriticalOptimized) Apply(site *replay.Site, _ *Trace) (*replay.Site, replay.Plan) {
	a := analyze(site)
	if a == nil {
		return site, replay.NoPush()
	}
	ns := rewriteSite(site, a)
	critical := a.criticalPushList(ns, true)
	if len(critical) == 0 {
		return ns, replay.NoPush()
	}
	plan := replay.PushList(ns.Base.String(), critical...).
		WithInterleave(ns.Base.String(), replay.InterleaveSpec{
			OffsetBytes: a.interleaveOffset,
			Critical:    critical,
		})
	return ns, plan
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
