package corpus

import (
	"fmt"
	"math/rand"

	"repro/internal/replay"
)

// popSpec parameterizes one modelled popular website (Table 1 of the
// paper, w1-w20). The structural features come from the paper's Sec. 5
// case-study descriptions; sites the paper does not detail get plausible
// models consistent with their aggregate figures (request counts, server
// counts). The models replace the paper's recorded Alexa sites, which
// cannot be redistributed; see README.md.
type popSpec struct {
	id, name string
	htmlKB   int // approximate document size as served
	// head resources
	headCSSKB    []int
	headJSKB     []int
	headJSExecMS float64
	// body resources
	bodyJSKB    []int
	lateJSKB    int // blocking JS referenced late in <body> (w5/s5 pattern)
	inlineJSKB  int // JS inlined into the document (w10 pattern)
	atfImages   int
	belowImages int
	imgKB       int
	fonts       int
	// already ships an inlined critical CSS (w16 pattern)
	preOptimized bool
	// deployment
	thirdHosts   int
	thirdObjects int
	mergedHosts  int // same-infrastructure hosts merged onto the base server
}

var popSpecs = []popSpec{
	// w1 wikipedia (article): very large HTML, CSS render-blocking, one
	// blocking JS, two ATF images, almost everything first-party.
	{id: "w1", name: "wikipedia", htmlKB: 236, headCSSKB: []int{55}, headJSKB: []int{28},
		headJSExecMS: 40, atfImages: 2, belowImages: 6, imgKB: 35},
	// w2 apple: several CSS in head blocking JS execution and DOM
	// construction.
	{id: "w2", name: "apple", htmlKB: 60, headCSSKB: []int{80, 60, 45}, headJSKB: []int{95},
		headJSExecMS: 70, atfImages: 3, belowImages: 10, imgKB: 90, mergedHosts: 1},
	// w3 yahoo: portal, many objects, mixed hosting.
	{id: "w3", name: "yahoo", htmlKB: 150, headCSSKB: []int{70}, headJSKB: []int{60, 40},
		headJSExecMS: 60, bodyJSKB: []int{50, 35}, atfImages: 4, belowImages: 18, imgKB: 45,
		thirdHosts: 12, thirdObjects: 30},
	// w4 amazon: large, image heavy, sprites, moderate third-party.
	{id: "w4", name: "amazon", htmlKB: 190, headCSSKB: []int{90}, headJSKB: []int{45},
		headJSExecMS: 50, bodyJSKB: []int{80, 60, 40}, atfImages: 6, belowImages: 24, imgKB: 40,
		thirdHosts: 6, thirdObjects: 14, mergedHosts: 1},
	// w5 craigslist: 8 requests, one server, tiny.
	{id: "w5", name: "craigslist", htmlKB: 30, headCSSKB: []int{15}, headJSKB: []int{12},
		headJSExecMS: 10, atfImages: 1, belowImages: 3, imgKB: 8},
	// w6 chase: bank landing page, moderate, some third-party.
	{id: "w6", name: "chase", htmlKB: 70, headCSSKB: []int{65, 30}, headJSKB: []int{85},
		headJSExecMS: 80, atfImages: 2, belowImages: 6, imgKB: 60, thirdHosts: 5, thirdObjects: 10},
	// w7 reddit: large blocking JS in the head dominates the critical
	// path; 87KB of CSS.
	{id: "w7", name: "reddit", htmlKB: 95, headCSSKB: []int{87}, headJSKB: []int{240},
		headJSExecMS: 320, atfImages: 3, belowImages: 14, imgKB: 25, thirdHosts: 4, thirdObjects: 8},
	// w8 bestbuy: like w7 plus a merged image host.
	{id: "w8", name: "bestbuy", htmlKB: 120, headCSSKB: []int{75}, headJSKB: []int{190},
		headJSExecMS: 260, atfImages: 4, belowImages: 16, imgKB: 50, thirdHosts: 6,
		thirdObjects: 12, mergedHosts: 1},
	// w9 paypal: no blocking code until the end of the HTML; benefits
	// from pushing everything.
	{id: "w9", name: "paypal", htmlKB: 45, headCSSKB: []int{40}, lateJSKB: 70,
		atfImages: 2, belowImages: 4, imgKB: 55},
	// w10 walmart: lots of images causing bandwidth contention between
	// push streams; a large portion of JS inlined into the HTML.
	{id: "w10", name: "walmart", htmlKB: 160, headCSSKB: []int{60}, inlineJSKB: 110,
		atfImages: 8, belowImages: 30, imgKB: 65, thirdHosts: 5, thirdObjects: 10, mergedHosts: 1},
	// w11 aliexpress: shop, many images, moderate scripts.
	{id: "w11", name: "aliexpress", htmlKB: 130, headCSSKB: []int{55}, headJSKB: []int{70},
		headJSExecMS: 55, bodyJSKB: []int{45, 35}, atfImages: 6, belowImages: 22, imgKB: 35,
		thirdHosts: 8, thirdObjects: 16},
	// w12 ebay: shop, mixed.
	{id: "w12", name: "ebay", htmlKB: 110, headCSSKB: []int{70, 25}, headJSKB: []int{55},
		headJSExecMS: 45, bodyJSKB: []int{40}, atfImages: 5, belowImages: 18, imgKB: 45,
		thirdHosts: 6, thirdObjects: 12},
	// w13 yelp: listings, webfont.
	{id: "w13", name: "yelp", htmlKB: 140, headCSSKB: []int{85}, headJSKB: []int{95},
		headJSExecMS: 90, fonts: 1, atfImages: 4, belowImages: 14, imgKB: 30,
		thirdHosts: 7, thirdObjects: 12},
	// w14 youtube: app shell, heavy JS.
	{id: "w14", name: "youtube", htmlKB: 85, headCSSKB: []int{45}, headJSKB: []int{210},
		headJSExecMS: 280, atfImages: 6, belowImages: 20, imgKB: 20, thirdHosts: 3, thirdObjects: 6},
	// w15 microsoft: corporate, moderate everything.
	{id: "w15", name: "microsoft", htmlKB: 65, headCSSKB: []int{50, 20}, headJSKB: []int{40},
		headJSExecMS: 35, atfImages: 3, belowImages: 8, imgKB: 70, thirdHosts: 4, thirdObjects: 8},
	// w16 twitter (profile): already ships an inlined critical CSS; 45KB
	// HTML; pushing 10.2KB of critical resources still helps.
	{id: "w16", name: "twitter", htmlKB: 45, headCSSKB: []int{38}, headJSKB: []int{120},
		headJSExecMS: 150, preOptimized: true, atfImages: 3, belowImages: 10, imgKB: 15},
	// w17 cnn: 369 requests to 81 servers; effects dilute in the page's
	// complexity.
	{id: "w17", name: "cnn", htmlKB: 170, headCSSKB: []int{95, 40}, headJSKB: []int{110, 70},
		headJSExecMS: 120, bodyJSKB: []int{60, 45, 30}, fonts: 2, atfImages: 6,
		belowImages: 40, imgKB: 35, thirdHosts: 78, thirdObjects: 300},
	// w18 wellsfargo: bank, conservative.
	{id: "w18", name: "wellsfargo", htmlKB: 55, headCSSKB: []int{45}, headJSKB: []int{65},
		headJSExecMS: 60, atfImages: 2, belowImages: 5, imgKB: 50, thirdHosts: 3, thirdObjects: 6},
	// w19 bankofamerica: bank, slightly heavier.
	{id: "w19", name: "bankofamerica", htmlKB: 75, headCSSKB: []int{60, 25}, headJSKB: []int{80},
		headJSExecMS: 75, atfImages: 2, belowImages: 6, imgKB: 55, thirdHosts: 4, thirdObjects: 8},
	// w20 nytimes: news, webfonts, many third-party objects.
	{id: "w20", name: "nytimes", htmlKB: 145, headCSSKB: []int{75}, headJSKB: []int{90},
		headJSExecMS: 100, bodyJSKB: []int{55, 40}, fonts: 2, atfImages: 5, belowImages: 24,
		imgKB: 40, thirdHosts: 14, thirdObjects: 40},
}

// PopularSite returns one site by id ("w1".."w20"), or nil.
func PopularSite(id string) *replay.Site {
	for _, spec := range popSpecs {
		if spec.id == id {
			return buildPopular(spec)
		}
	}
	return nil
}

func buildPopular(spec popSpec) *replay.Site {
	rng := rand.New(rand.NewSource(int64(len(spec.name)) * 7919))
	host := spec.name + ".com"
	b := NewPage(host).setTitle(spec.name)

	classes := []string{"hero", "masthead", "nav", "article", "aside", "footer-links"}
	var fontCSS string
	for f := 0; f < spec.fonts; f++ {
		fam := fmt.Sprintf("Brand%d", f)
		fURL := b.Font(fmt.Sprintf("/fonts/brand%d.woff2", f), 55*1024)
		fontCSS += FontFaceCSS(fam, fURL)
	}
	if spec.preOptimized {
		// The site already inlines its critical CSS in <head>.
		b.rawHead("<style>" + SimpleCSS(classes[:3], 8) + "</style>\n")
	}
	for i, kb := range spec.headCSSKB {
		css := SimpleCSS(classes, kb*1024/90)
		if i == 0 {
			css = fontCSS + css
		}
		b.CSS(fmt.Sprintf("/css/style%d.css", i), css)
	}
	for i, kb := range spec.headJSKB {
		exec := spec.headJSExecMS
		if i > 0 {
			exec /= 2
		}
		b.Script(fmt.Sprintf("/js/head%d.js", i), kb*1024, exec, true, false)
	}
	if spec.inlineJSKB > 0 {
		b.inlineScript(spec.inlineJSKB*1024, false)
	}

	// ATF content.
	b.Div("masthead", 100)
	for i := 0; i < spec.atfImages; i++ {
		w := 1280 / maxInt(1, spec.atfImages)
		b.Image(fmt.Sprintf("/img/atf%d.jpg", i), w, 300, spec.imgKB*1024)
	}
	fontClass := []string{"article"}
	if spec.fonts > 0 {
		fontClass = append(fontClass, "wf-Brand0")
	}
	b.Text(800, fontClass...)

	// Below the fold.
	mergedHost := ""
	if spec.mergedHosts > 0 {
		mergedHost = "img." + spec.name + "-static.com"
	}
	for i := 0; i < spec.belowImages; i++ {
		h := host
		if mergedHost != "" && i%2 == 0 {
			h = mergedHost
		}
		b.ImageOn(h, fmt.Sprintf("/img/btf%d.jpg", i), 400, 300, spec.imgKB*1024)
		if i%4 == 3 {
			b.Text(400, "aside")
		}
	}
	for i, kb := range spec.bodyJSKB {
		b.Script(fmt.Sprintf("/js/body%d.js", i), kb*1024, 20, false, i%2 == 1)
	}

	// Third-party content.
	for i := 0; i < spec.thirdObjects; i++ {
		h := fmt.Sprintf("cdn%d.%s-ext.test", i%maxInt(1, spec.thirdHosts), spec.name)
		switch i % 5 {
		case 0:
			b.ScriptOn(h, fmt.Sprintf("/tp/lib%d.js", i), 20*1024+rng.Intn(40*1024), 15, false, true)
		default:
			b.ImageOn(h, fmt.Sprintf("/tp/ad%d.jpg", i), 300, 250, 10*1024+rng.Intn(60*1024))
		}
	}

	// Late blocking JS (w9 pattern) goes after everything else.
	if spec.lateJSKB > 0 {
		b.Script("/js/late.js", spec.lateJSKB*1024, 60, false, false)
	}

	b.padHTMLTo(spec.htmlKB * 1024)
	site := b.Build(spec.id + "-" + spec.name)
	if mergedHost != "" {
		site.MergeHosts(host, mergedHost)
	}
	return site
}

// PopularSiteIDs lists the w-site identifiers in order.
func PopularSiteIDs() []string {
	out := make([]string, len(popSpecs))
	for i, s := range popSpecs {
		out[i] = s.id
	}
	return out
}
