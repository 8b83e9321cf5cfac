// Package corpus synthesizes replayable websites: an explicit page
// builder for hand-modelled sites (the paper's synthetic s1-s10 set and
// the w1-w20 popular-site models), and a seeded random generator whose
// distributions are calibrated to the paper's crawl observations (object
// mixes, sizes, third-party shares, pushable fractions — Sec. 4.2).
//
// The generator emits real HTML and CSS bytes, so the whole pipeline —
// preload scanning, dependency analysis, critical-CSS extraction,
// interleave offsets — operates on genuine documents rather than
// abstract object lists.
//
// Generated bodies are read-only. Image, font and padding payloads are
// slices of one process-wide buffer (see filler), so a holder must never
// write or append to an Entry.Body in place: copy first, as
// scenario.ApplySiteInto (third-party scaling) and strategy's HTML
// rewrite do.
package corpus

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/page"
	"repro/internal/replay"
)

// PageBuilder assembles one HTML page plus its subresources into a
// replayable Site.
type PageBuilder struct {
	host   string
	scheme string
	title  string

	head, body strings.Builder
	entries    []*replay.Entry
}

// NewPage starts a page on the given host, served at /.
func NewPage(host string) *PageBuilder {
	return &PageBuilder{host: host, scheme: "https", title: host}
}

// setTitle sets the document title.
func (b *PageBuilder) setTitle(t string) *PageBuilder { b.title = t; return b }

func (b *PageBuilder) addEntry(host, path string, kind page.Kind, body []byte, meta page.Meta) page.URL {
	u := page.URL{Scheme: b.scheme, Authority: host, Path: path}
	b.entries = append(b.entries, &replay.Entry{
		URL: u, Status: 200, ContentType: page.ContentTypeFor(kind),
		Body: body, Meta: meta,
	})
	return u
}

// section is the markup buffer a tag lands in.
func (b *PageBuilder) section(inHead bool) *strings.Builder {
	if inHead {
		return &b.head
	}
	return &b.body
}

// write appends the parts to a markup buffer.
func write(w *strings.Builder, parts ...string) {
	for _, p := range parts {
		w.WriteString(p)
	}
}

// CSS adds a stylesheet link in <head> served from the base host.
func (b *PageBuilder) CSS(path, css string) *PageBuilder {
	return b.cssOn(b.host, path, css, false)
}

// cssOn adds a stylesheet on an arbitrary host; atBodyEnd places the link
// at the end of <body> instead of <head>.
func (b *PageBuilder) cssOn(host, path, css string, atBodyEnd bool) *PageBuilder {
	b.addEntry(host, path, page.KindCSS, []byte(css), page.Meta{})
	write(b.section(!atBodyEnd), "<link rel=\"stylesheet\" href=\"", b.absRef(host, path), "\">\n")
	return b
}

// Script adds an external script of about sizeBytes with extra execution
// cost execMS.
func (b *PageBuilder) Script(path string, sizeBytes int, execMS float64, inHead, async bool) *PageBuilder {
	return b.ScriptOn(b.host, path, sizeBytes, execMS, inHead, async)
}

// ScriptOn adds an external script hosted on host.
func (b *PageBuilder) ScriptOn(host, path string, sizeBytes int, execMS float64, inHead, async bool) *PageBuilder {
	b.addEntry(host, path, page.KindJS, jsFiller(sizeBytes), page.Meta{ExecMS: execMS})
	attr := ""
	if async {
		attr = " async"
	}
	write(b.section(inHead), "<script src=\"", b.absRef(host, path), "\"", attr, "></script>\n")
	return b
}

// inlineScript embeds a script of about sizeBytes directly in the body.
func (b *PageBuilder) inlineScript(sizeBytes int, inHead bool) *PageBuilder {
	sec := b.section(inHead)
	sec.WriteString("<script>")
	sec.Write(jsFiller(sizeBytes))
	sec.WriteString("</script>\n")
	return b
}

// Image adds an <img> with explicit dimensions; sizeBytes is the payload.
func (b *PageBuilder) Image(path string, w, h, sizeBytes int) *PageBuilder {
	return b.ImageOn(b.host, path, w, h, sizeBytes)
}

// ImageOn adds an image hosted on host.
func (b *PageBuilder) ImageOn(host, path string, w, h, sizeBytes int) *PageBuilder {
	b.addEntry(host, path, page.KindImage, filler(sizeBytes), page.Meta{Width: w, Height: h})
	write(&b.body, "<img src=\"", b.absRef(host, path),
		"\" width=\"", strconv.Itoa(w), "\" height=\"", strconv.Itoa(h), "\">\n")
	return b
}

// Font registers a webfont file (referenced from CSS via @font-face).
func (b *PageBuilder) Font(path string, sizeBytes int) string {
	return b.addEntry(b.host, path, page.KindFont, filler(sizeBytes), page.Meta{}).String()
}

// Text appends a text block with the given classes (class "wf-Family"
// requires the webfont Family before the text paints).
func (b *PageBuilder) Text(chars int, classes ...string) *PageBuilder {
	b.body.WriteString("<p")
	if len(classes) > 0 {
		write(&b.body, " class=\"", strings.Join(classes, " "), "\"")
	}
	b.body.WriteString(">")
	textFiller(&b.body, chars)
	b.body.WriteString("</p>\n")
	return b
}

// Div opens and closes a div with text content.
func (b *PageBuilder) Div(class string, chars int) *PageBuilder {
	write(&b.body, "<div class=\"", class, "\">")
	textFiller(&b.body, chars)
	b.body.WriteString("</div>\n")
	return b
}

// RawBody appends raw markup to the body (padding, custom structures).
func (b *PageBuilder) RawBody(s string) *PageBuilder { b.body.WriteString(s); return b }

// rawHead appends raw markup to the head.
func (b *PageBuilder) rawHead(s string) *PageBuilder { b.head.WriteString(s); return b }

// PadHTML grows the document by adding comment filler to the body.
func (b *PageBuilder) PadHTML(bytes int) *PageBuilder {
	b.body.WriteString("<!-- ")
	b.body.Write(filler(bytes))
	b.body.WriteString(" -->\n")
	return b
}

// padHTMLTo pads a document shorter than target by the difference.
func (b *PageBuilder) padHTMLTo(target int) *PageBuilder {
	if cur := b.htmlLen(); cur < target {
		b.PadHTML(target - cur)
	}
	return b
}

func (b *PageBuilder) absRef(host, path string) string {
	if host == b.host {
		return path
	}
	return b.scheme + "://" + host + path
}

// The fixed parts of the document around title, head and body.
const (
	htmlOpen     = "<!DOCTYPE html>\n<html>\n<head>\n<title>"
	htmlTitleEnd = "</title>\n"
	htmlBodyOpen = "</head>\n<body>\n"
	htmlClose    = "</body>\n</html>\n"
)

// htmlLen is len(b.HTML()) without rendering it.
func (b *PageBuilder) htmlLen() int {
	return len(htmlOpen) + len(b.title) + len(htmlTitleEnd) + b.head.Len() + len(htmlBodyOpen) + b.body.Len() + len(htmlClose)
}

// HTML renders the document bytes as they would be served.
func (b *PageBuilder) HTML() []byte {
	out := make([]byte, 0, b.htmlLen())
	out = append(out, htmlOpen...)
	out = append(out, b.title...)
	out = append(out, htmlTitleEnd...)
	out = append(out, b.head.String()...)
	out = append(out, htmlBodyOpen...)
	out = append(out, b.body.String()...)
	return append(out, htmlClose...)
}

// Build assembles the Site. The base document is added last so builder
// mutations up to this point are reflected.
func (b *PageBuilder) Build(name string) *replay.Site {
	db := replay.NewDB()
	base := page.URL{Scheme: b.scheme, Authority: b.host, Path: "/"}
	db.Add(&replay.Entry{
		URL: base, Status: 200,
		ContentType: page.ContentTypeFor(page.KindHTML),
		Body:        b.HTML(),
	})
	for _, e := range b.entries {
		db.Add(e)
	}
	return replay.NewSite(name, base, db)
}

// --- content synthesis ---

// fillerPeriod is the payload pattern: compressible, and periodic so
// that every payload is a prefix of one buffer.
const fillerPeriod = "abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"

// fillerBackingMin is the shared buffer's first size; it covers every
// payload of the two random profiles and the hand-built sites.
const fillerBackingMin = 512 << 10

// fillerBacking is the one buffer all opaque payloads alias. It is
// written only before it is published here and replaced, never
// extended, when a larger payload is asked for: slices handed out
// earlier keep the old buffer alive and never see a byte move.
var fillerBacking struct {
	mu  sync.Mutex
	buf []byte
}

// filler returns n bytes of deterministic compressible payload. The
// result aliases a process-wide read-only buffer shared with every other
// payload: it must never be written, and its capacity is clipped to its
// length so that an append reallocates instead of writing into the
// shared bytes. Whoever needs to change a body copies it first, as
// scenario.ApplySiteInto and strategy's HTML rewrite do.
func filler(n int) []byte {
	if n <= 0 {
		return nil
	}
	fillerBacking.mu.Lock()
	buf := fillerBacking.buf
	if len(buf) < n {
		buf = make([]byte, max(n, 2*len(buf), fillerBackingMin))
		for done := copy(buf, fillerPeriod); done < len(buf); done *= 2 {
			copy(buf[done:], buf[:done])
		}
		fillerBacking.buf = buf
	}
	fillerBacking.mu.Unlock()
	return buf[:n:n]
}

// jsFiller produces syntactically plausible JS of n bytes.
func jsFiller(n int) []byte {
	// The last line overshoots n by less than its own length: two
	// counters of at most 19 digits and 27 bytes of text.
	out := make([]byte, 0, n+2*19+27)
	for i := int64(0); len(out) < n; i++ {
		out = append(out, "function f"...)
		out = strconv.AppendInt(out, i, 10)
		out = append(out, "(x){return x*"...)
		out = strconv.AppendInt(out, i, 10)
		out = append(out, "+1;}\n"...)
	}
	return out[:n]
}

// textFiller writes n characters of word-like text.
func textFiller(w *strings.Builder, n int) {
	const words = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor incididunt ut labore "
	for ; n > len(words); n -= len(words) {
		w.WriteString(words)
	}
	w.WriteString(words[:n])
}

// SimpleCSS generates a stylesheet with rules for the given class names
// plus optional bloat rules that match nothing on the page.
func SimpleCSS(classes []string, bloatRules int) string {
	var sb strings.Builder
	sb.Grow(72*len(classes) + 112*bloatRules) // a rule's length with short names and counters below 10^5
	var digits [20]byte
	num := func(v, base int) { sb.Write(strconv.AppendInt(digits[:0], int64(v), base)) }
	// Both colours start at six hex digits (0x333333, 0x111111) and only
	// grow, so the reference's %06x never pads.
	for i, c := range classes {
		write(&sb, ".", c, "{color:#")
		num(i*1234+0x333333, 16)
		sb.WriteString(";margin:")
		num(i%16, 10)
		sb.WriteString("px;padding:4px;display:block;}\n")
	}
	for i := 0; i < bloatRules; i++ {
		sb.WriteString(".unused-")
		num(i, 10)
		sb.WriteString(" .deep-")
		num(i, 10)
		sb.WriteString(">.child-")
		num(i, 10)
		sb.WriteString("{background:#")
		num(i*777+0x111111, 16)
		sb.WriteString(";border:1px solid #ccc;transform:translate(")
		num(i%7, 10)
		sb.WriteString("px,")
		num(i%11, 10)
		sb.WriteString("px);}\n")
	}
	return sb.String()
}

// FontFaceCSS returns an @font-face rule for family served at url.
func FontFaceCSS(family, url string) string {
	return "@font-face{font-family:\"" + family + "\";src:url(" + url + ") format(\"woff2\");}\n.wf-" +
		family + "{font-family:\"" + family + "\";}\n"
}
