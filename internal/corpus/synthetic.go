package corpus

import (
	"fmt"

	"repro/internal/replay"
)

// SyntheticSites builds the paper's s1-s10 set (Sec. 4.3): snapshots and
// templates relocated onto a single server. Three of them (s1, s5, s8)
// are described in detail in the case studies; the remainder are common
// templates (blog, shop, gallery, landing, news, docs, forum) with
// varied structure.
func SyntheticSites() []*replay.Site {
	return []*replay.Site{
		s1(), s2(), s3(), s4(), s5(), s6(), s7(), s8(), s9(), s10(),
	}
}

// s1: a loading icon fades and content is shown once the DOM is ready;
// DOM construction is blocked by JS and CSS in the head, plus hidden
// fonts referenced in the CSS. Pushing the blockers (309 KB) performs
// like push all (1057 KB).
func s1() *replay.Site {
	b := NewPage("s1.test").setTitle("s1 loading-icon app")
	fURL := b.Font("/fonts/app.woff2", 70*1024)
	css := FontFaceCSS("App", fURL) + SimpleCSS([]string{"hero", "content", "spinner"}, 300)
	b.CSS("/css/app.css", css)                               // render blocking, ~30KB
	b.Script("/js/framework.js", 140*1024, 180, true, false) // DOM-blocking
	b.Script("/js/app.js", 60*1024, 90, true, false)
	b.Div("spinner", 40)
	b.Div("hero", 280)
	b.Text(900, "content", "wf-App")
	for i := 0; i < 8; i++ {
		b.Image(fmt.Sprintf("/img/gallery%d.jpg", i), 420, 280, 85*1024)
	}
	b.Text(1200, "content")
	return b.Build("s1")
}

// s5: a blocking JS referenced late in the <body> requires the CSSOM;
// building it takes longer than the transfer — the browser is
// computation-bound, not network-bound. Large HTML leaves no network
// idle time.
func s5() *replay.Site {
	b := NewPage("s5.test").setTitle("s5 compute-bound page")
	b.CSS("/css/big.css", SimpleCSS([]string{"hero", "grid", "card"}, 1800)) // ~160KB, slow CSSOM
	b.Div("hero", 350)
	b.Image("/img/banner.jpg", 1280, 380, 90*1024)
	b.Text(1500, "grid")
	for i := 0; i < 6; i++ {
		b.Image(fmt.Sprintf("/img/card%d.jpg", i), 400, 260, 45*1024)
		b.Text(300, "card")
	}
	b.PadHTML(140 * 1024)                                        // large HTML: browser can request as fast as push
	b.Script("/js/late-blocking.js", 90*1024, 250, false, false) // late in body
	return b.Build("s5")
}

// s8: the HTML needs multiple round trips; six render-critical resources
// are referenced early, so after the first chunk the browser has already
// issued all the requests push would save.
func s8() *replay.Site {
	b := NewPage("s8.test").setTitle("s8 early-references page")
	b.CSS("/css/base.css", SimpleCSS([]string{"hero", "nav"}, 80))
	b.CSS("/css/theme.css", SimpleCSS([]string{"theme"}, 60))
	b.Script("/js/a.js", 30*1024, 25, true, false)
	b.Script("/js/b.js", 25*1024, 20, true, false)
	b.Script("/js/c.js", 20*1024, 15, true, false)
	b.Script("/js/d.js", 15*1024, 10, true, false)
	b.Div("hero", 400)
	b.Image("/img/top.jpg", 1280, 350, 70*1024)
	b.Text(1000, "nav")
	b.PadHTML(120 * 1024) // multiple RTTs of HTML after the references
	b.Text(2000, "theme")
	return b.Build("s8")
}

// s2: small blog template — tiny HTML, one CSS, one image.
func s2() *replay.Site {
	b := NewPage("s2.test").setTitle("s2 blog")
	b.CSS("/css/blog.css", SimpleCSS([]string{"post", "title"}, 60))
	b.Div("title", 80)
	b.Text(2200, "post")
	b.Image("/img/author.png", 120, 120, 12*1024)
	return b.Build("s2")
}

// s3: image-heavy gallery.
func s3() *replay.Site {
	b := NewPage("s3.test").setTitle("s3 gallery")
	b.CSS("/css/gallery.css", SimpleCSS([]string{"tile", "bar"}, 40))
	b.Div("bar", 60)
	for i := 0; i < 16; i++ {
		b.Image(fmt.Sprintf("/img/photo%02d.jpg", i), 320, 240, 95*1024)
	}
	return b.Build("s3")
}

// s4: shop template — CSS + several JS + product images.
func s4() *replay.Site {
	b := NewPage("s4.test").setTitle("s4 shop")
	b.CSS("/css/shop.css", SimpleCSS([]string{"product", "cart", "nav"}, 250))
	b.Script("/js/cart.js", 45*1024, 35, true, false)
	b.Div("nav", 120)
	for i := 0; i < 9; i++ {
		b.Image(fmt.Sprintf("/img/prod%d.jpg", i), 300, 300, 40*1024)
		b.Text(180, "product")
	}
	b.Script("/js/recommend.js", 70*1024, 60, false, true)
	return b.Build("s4")
}

// s6: landing page with webfont and async analytics.
func s6() *replay.Site {
	b := NewPage("s6.test").setTitle("s6 landing")
	fURL := b.Font("/fonts/display.woff2", 48*1024)
	b.CSS("/css/landing.css", FontFaceCSS("Display", fURL)+SimpleCSS([]string{"cta", "hero"}, 90))
	b.Div("hero", 200)
	b.Text(500, "cta", "wf-Display")
	b.Image("/img/product.png", 800, 500, 110*1024)
	b.Script("/js/analytics.js", 25*1024, 10, false, true)
	b.Text(900)
	return b.Build("s6")
}

// s7: news template — mid HTML, early CSS, mixed media.
func s7() *replay.Site {
	b := NewPage("s7.test").setTitle("s7 news")
	b.CSS("/css/news.css", SimpleCSS([]string{"headline", "teaser", "col"}, 400))
	b.Div("headline", 150)
	b.Image("/img/lead.jpg", 960, 540, 130*1024)
	for i := 0; i < 6; i++ {
		b.Text(400, "teaser")
		b.Image(fmt.Sprintf("/img/teaser%d.jpg", i), 240, 160, 28*1024)
	}
	b.PadHTML(45 * 1024)
	b.Script("/js/live.js", 55*1024, 45, false, false)
	return b.Build("s7")
}

// s9: docs template — text-dominant, no scripts.
func s9() *replay.Site {
	b := NewPage("s9.test").setTitle("s9 docs")
	b.CSS("/css/docs.css", SimpleCSS([]string{"toc", "content"}, 120))
	b.Div("toc", 600)
	b.Text(6000, "content")
	b.PadHTML(30 * 1024)
	return b.Build("s9")
}

// s10: forum template — inline scripts between posts.
func s10() *replay.Site {
	b := NewPage("s10.test").setTitle("s10 forum")
	b.CSS("/css/forum.css", SimpleCSS([]string{"post", "meta"}, 150))
	b.Script("/js/forum.js", 38*1024, 30, true, false)
	for i := 0; i < 10; i++ {
		b.Text(500, "post")
		b.inlineScript(800, false)
		b.Image(fmt.Sprintf("/img/avatar%d.png", i), 48, 48, 4*1024)
	}
	return b.Build("s10")
}
