package browser

import (
	"sort"
	"strconv"

	"repro/internal/cssx"
	"repro/internal/htmlx"
	"repro/internal/page"
	"repro/internal/replay"
)

// preparedPage is the browser model's once-per-(site, viewport)
// derivation of a recorded page: the parsed document, the static
// layout, the milestone schedule, and every document/stylesheet URL
// pre-resolved against its base. It is computed once via the site's
// replay.Prepared memo and then shared read-only by every run of every
// worker; all per-run mutable state (what has been fetched, parsed or
// painted) stays on the Loader.
type preparedPage struct {
	doc *htmlx.Document
	lay *layoutResult

	milestones []milestone

	// Per doc.Resources index: the reference URL resolved against the
	// site base (refOK false when unparseable), its canonical string key,
	// its fetch kind (tag-adjusted, as discoverRef computed it) and its
	// site intern ID (-1 when the bundle was built without the site's
	// intern table).
	refURL  []page.URL
	refKey  []string
	refOK   []bool
	refKind []page.Kind
	refID   []int32

	// Render-blocking CSS references (link tags, non-print media) in
	// document order, by doc.Resources index.
	cssRefs []preparedCSSRef

	// unitImgKey[i] is the resolved resource key of lay.units[i]'s image
	// ("" for text units and unresolvable image URLs); unitImgID is its
	// intern ID and unitFontID the unit's font-family intern ID (-1 when
	// absent or unresolved).
	unitImgKey []string
	unitImgID  []int32
	unitFontID []int32

	// baseKey is the site base URL's canonical string.
	baseKey string

	// sheets maps the site's recorded CSS entries to their pre-resolved
	// reference lists. Entries replaced by an overlay or rewrite miss
	// here and are parsed per run.
	sheets map[*replay.Entry]*sheetInfo
}

type preparedCSSRef struct {
	offset int
	idx    int
}

// sheetInfo is a stylesheet's outgoing references resolved against the
// sheet's own recorded URL: the inputs to font/asset/import discovery.
type sheetInfo struct {
	fonts   []fontRef
	assets  []urlRef
	imports []urlRef
}

type fontRef struct {
	family string
	famID  int32 // intern font-family ID, -1 unresolved
	u      page.URL
	key    string
	id     int32 // intern resource ID, -1 unresolved
}

type urlRef struct {
	u   page.URL
	key string
	id  int32 // intern resource ID, -1 unresolved
}

// pageMemoKey names the browser's prepared-page memo slot for a
// viewport (different viewports lay out differently).
func pageMemoKey(w, h int) string {
	return "browser.page:" + strconv.Itoa(w) + "x" + strconv.Itoa(h)
}

// preparedPageFor returns the shared prepared page for site when its
// base entry is the prepared one, building and memoizing it on first
// use; otherwise (a per-run scaled base document) it builds a private,
// unshared bundle so behavior is identical either way. key is
// pageMemoKey(w, h), which a loader keeps across runs.
func preparedPageFor(site *replay.Site, baseEntry *replay.Entry, key string, w, h int) *preparedPage {
	prep := site.Prepared()
	if prep.BaseEntry() == baseEntry {
		return prep.Memo(key, func() any {
			return buildPreparedPage(prep.DocOf(baseEntry), site, w, h, prep)
		}).(*preparedPage)
	}
	return buildPreparedPage(htmlx.Parse(baseEntry.Body), site, w, h, nil)
}

// buildPreparedPage performs the full static derivation for one parsed
// document. prep may be nil (no shared stylesheet cache).
func buildPreparedPage(doc *htmlx.Document, site *replay.Site, w, h int, prep *replay.Prepared) *preparedPage {
	pp := &preparedPage{
		doc:     doc,
		lay:     layout(doc, w, h),
		baseKey: site.Base.String(),
	}
	var in *replay.Interns
	if prep != nil {
		in = prep.Interns()
	}

	// Milestone schedule: resource references, inline scripts and inline
	// styles in byte order.
	for i := range doc.Resources {
		r := &doc.Resources[i]
		pp.milestones = append(pp.milestones, milestone{offset: r.Offset, res: r, idx: i})
	}
	for i := range doc.InlineScripts {
		s := &doc.InlineScripts[i]
		pp.milestones = append(pp.milestones, milestone{offset: s.Offset, script: s})
	}
	for i := range doc.InlineStyles {
		st := &doc.InlineStyles[i]
		pp.milestones = append(pp.milestones, milestone{offset: st.Offset, style: st})
	}
	sort.SliceStable(pp.milestones, func(i, j int) bool {
		return pp.milestones[i].offset < pp.milestones[j].offset
	})

	// Resolve every document reference once.
	n := len(doc.Resources)
	pp.refURL = make([]page.URL, n)
	pp.refKey = make([]string, n)
	pp.refOK = make([]bool, n)
	pp.refKind = make([]page.Kind, n)
	pp.refID = make([]int32, n)
	for i := range pp.refID {
		pp.refID[i] = -1
	}
	for i := range doc.Resources {
		r := &doc.Resources[i]
		u, err := page.ParseURL(r.URL, site.Base)
		if err != nil {
			continue
		}
		pp.refOK[i] = true
		pp.refURL[i] = u
		pp.refKey[i] = u.String()
		if in != nil {
			if id, ok := in.Lookup(pp.refKey[i]); ok {
				pp.refID[i] = id
			}
		}
		kind := page.KindFromPath(u.Path)
		switch r.Tag {
		case "link":
			kind = page.KindCSS
		case "script":
			kind = page.KindJS
		case "img":
			kind = page.KindImage
		}
		pp.refKind[i] = kind
		if r.Tag == "link" && r.Media != "print" {
			pp.cssRefs = append(pp.cssRefs, preparedCSSRef{offset: r.Offset, idx: i})
		}
	}

	// Resolve the layout units' image URLs and font families once.
	pp.unitImgKey = make([]string, len(pp.lay.units))
	pp.unitImgID = make([]int32, len(pp.lay.units))
	pp.unitFontID = make([]int32, len(pp.lay.units))
	for i, u := range pp.lay.units {
		pp.unitImgID[i], pp.unitFontID[i] = -1, -1
		if u.isImage && u.imgURL != "" {
			if iu, err := page.ParseURL(u.imgURL, site.Base); err == nil {
				pp.unitImgKey[i] = iu.String()
				if in != nil {
					if id, ok := in.Lookup(pp.unitImgKey[i]); ok {
						pp.unitImgID[i] = id
					}
				}
			}
		}
		if u.fontFam != "" && in != nil {
			if id, ok := in.FamilyID(u.fontFam); ok {
				pp.unitFontID[i] = id
			}
		}
	}

	// Pre-resolve the outgoing references of every recorded stylesheet.
	if prep != nil {
		pp.sheets = make(map[*replay.Entry]*sheetInfo)
		for _, e := range site.DB.Entries() {
			if sheet := prep.Sheet(e); sheet != nil {
				pp.sheets[e] = buildSheetInfoIn(sheet, e.URL, in)
			}
		}
	}
	return pp
}

// SiteATFSignatures returns the above-the-fold element signatures of
// site's base document through the shared prepared page, so strategy
// analysis reuses (and warms) the same parse and layout the page loads
// run on. Returns nil when the site has no recorded base document.
func SiteATFSignatures(site *replay.Site, w, h int) []cssx.ElementSig {
	entry := site.DB.Lookup(site.Base.Authority, site.Base.Path)
	if entry == nil {
		return nil
	}
	return preparedPageFor(site, entry, pageMemoKey(w, h), w, h).lay.atfSigs
}

// buildSheetInfoIn resolves a parsed stylesheet's references against
// the URL the sheet is served from and, when in is non-nil, to site
// intern IDs.
func buildSheetInfoIn(sheet *cssx.Stylesheet, base page.URL, in *replay.Interns) *sheetInfo {
	si := &sheetInfo{}
	resolve := func(key string) int32 {
		if in != nil {
			if id, ok := in.Lookup(key); ok {
				return id
			}
		}
		return -1
	}
	for _, ff := range sheet.FontFaces {
		if ff.URL == "" || ff.Family == "" {
			continue
		}
		u, err := page.ParseURL(ff.URL, base)
		if err != nil {
			continue
		}
		key := u.String()
		famID := int32(-1)
		if in != nil {
			if id, ok := in.FamilyID(ff.Family); ok {
				famID = id
			}
		}
		si.fonts = append(si.fonts, fontRef{family: ff.Family, famID: famID, u: u, key: key, id: resolve(key)})
	}
	for _, asset := range sheet.AssetURLs {
		u, err := page.ParseURL(asset, base)
		if err != nil {
			continue
		}
		key := u.String()
		si.assets = append(si.assets, urlRef{u: u, key: key, id: resolve(key)})
	}
	for _, imp := range sheet.Imports {
		u, err := page.ParseURL(imp, base)
		if err != nil {
			continue
		}
		key := u.String()
		si.imports = append(si.imports, urlRef{u: u, key: key, id: resolve(key)})
	}
	return si
}
