// Package htmlx is a small incremental HTML tokenizer and document model
// built for the testbed's browser emulation and HTML rewriting: it
// extracts external resource references with their byte offsets (the
// input to preload scanning, dependency analysis and interleave offsets),
// inline scripts/styles, and the visual elements used by the layout
// model and critical-CSS extraction.
//
// It is not a spec-complete HTML5 parser; it handles the well-formed
// markup the corpus generates and typical crawled pages: comments,
// doctype, attributes with and without quotes, raw text elements
// (script/style), and void elements.
package htmlx

import (
	"bytes"
	"strconv"
	"strings"
)

// attr is one tag attribute.
type attr struct {
	Name, Value string
}

// Resource is an external resource reference found in the document.
type Resource struct {
	Tag    string // "link", "script", "img"
	URL    string
	Offset int  // byte offset just past the referencing tag
	InHead bool // referenced inside <head>
	Async  bool // <script async>
	Defer  bool // <script defer>
	Media  string
	Width  int // img width attribute (0 if absent)
	Height int
}

// InlineScript is a <script> block without src.
type InlineScript struct {
	Offset  int // offset just past the closing tag
	Content string
	InHead  bool
}

// InlineStyle is a <style> block.
type InlineStyle struct {
	Offset  int
	Content string
	InHead  bool
}

// Element is a visual/selector-bearing element for the layout model and
// critical-CSS matching.
type Element struct {
	Tag     string
	ID      string
	Classes []string
	Offset  int
	Width   int // explicit width attr (img)
	Height  int
	TextLen int // visible text characters directly following
}

// Document is the parsed view of an HTML page.
//
// A Document is immutable after Parse returns: nothing in this package
// or its consumers writes to it, which is what lets a prepared site
// share one parsed document (and the slices inside it) read-only across
// concurrent simulation workers. Per-run mutable state (what has been
// fetched, painted or parsed so far) lives in the browser model, never
// here.
type Document struct {
	Raw           []byte
	Resources     []Resource
	InlineScripts []InlineScript
	InlineStyles  []InlineStyle
	Elements      []Element
	// HeadStart is the offset just past <head>; HeadEnd just past </head>.
	HeadStart int
	HeadEnd   int
	// BodyEnd is the offset of </body> (len(Raw) if absent).
	BodyEnd int
	Title   string
}

type tag struct {
	name    string
	attrs   []attr
	start   int // offset of '<'
	end     int // offset just past '>'
	closing bool
}

func (t *tag) attr(name string) (string, bool) {
	for _, a := range t.attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

func (t *tag) attrVal(name string) string {
	v, _ := t.attr(name)
	return v
}

func (t *tag) attrInt(name string) int {
	v, ok := t.attr(name)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(v), "px"))
	if err != nil {
		return 0
	}
	return n
}

// nextTag scans raw from pos for the next tag, skipping comments and
// text. It returns nil when no further tag exists. textLen receives the
// number of visible text characters skipped.
func nextTag(raw []byte, pos int) (*tag, int) {
	textChars := 0
	for pos < len(raw) {
		i := indexByteFrom(raw, '<', pos)
		if i < 0 {
			textChars += countText(raw[pos:])
			return nil, textChars
		}
		textChars += countText(raw[pos:i])
		// Comment?
		if hasPrefixAt(raw, i, "<!--") {
			end := indexFrom(raw, needCommentEnd, i+4)
			if end < 0 {
				return nil, textChars
			}
			pos = end + 3
			continue
		}
		// Doctype or other declaration?
		if i+1 < len(raw) && raw[i+1] == '!' {
			end := indexByteFrom(raw, '>', i)
			if end < 0 {
				return nil, textChars
			}
			pos = end + 1
			continue
		}
		t := parseTag(raw, i)
		if t == nil {
			pos = i + 1
			continue
		}
		return t, textChars
	}
	return nil, textChars
}

func countText(b []byte) int {
	n := 0
	for _, c := range b {
		if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			n++
		}
	}
	return n
}

func indexByteFrom(b []byte, c byte, from int) int {
	for i := from; i < len(b); i++ {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// Closing-tag needles for indexFrom: searching with bytes.Index avoids
// the per-call []byte -> string copy of the document tail that a
// strings.Index search would cost.
var (
	needCommentEnd = []byte("-->")
	needTitleEnd   = []byte("</title>")
	needScriptEnd  = []byte("</script>")
	needStyleEnd   = []byte("</style>")
)

func indexFrom(b []byte, sub []byte, from int) int {
	if from > len(b) {
		return -1
	}
	idx := bytes.Index(b[from:], sub)
	if idx < 0 {
		return -1
	}
	return from + idx
}

func hasPrefixAt(b []byte, at int, s string) bool {
	if at+len(s) > len(b) {
		return false
	}
	return string(b[at:at+len(s)]) == s
}

// parseTag parses one tag starting at raw[start] == '<'. Returns nil for
// malformed fragments.
func parseTag(raw []byte, start int) *tag {
	i := start + 1
	t := &tag{start: start}
	if i < len(raw) && raw[i] == '/' {
		t.closing = true
		i++
	}
	// Tag name.
	nameStart := i
	for i < len(raw) && isNameChar(raw[i]) {
		i++
	}
	if i == nameStart {
		return nil
	}
	t.name = strings.ToLower(string(raw[nameStart:i]))
	// Attributes.
	for i < len(raw) {
		// Skip whitespace and stray slashes.
		for i < len(raw) && (raw[i] == ' ' || raw[i] == '\n' || raw[i] == '\t' || raw[i] == '\r' || raw[i] == '/') {
			i++
		}
		if i >= len(raw) {
			return nil
		}
		if raw[i] == '>' {
			t.end = i + 1
			return t
		}
		aStart := i
		for i < len(raw) && raw[i] != '=' && raw[i] != '>' && raw[i] != ' ' &&
			raw[i] != '\n' && raw[i] != '\t' && raw[i] != '\r' && raw[i] != '/' {
			i++
		}
		name := strings.ToLower(string(raw[aStart:i]))
		if name == "" {
			i++
			continue
		}
		var val string
		if i < len(raw) && raw[i] == '=' {
			i++
			if i < len(raw) && (raw[i] == '"' || raw[i] == '\'') {
				q := raw[i]
				i++
				vStart := i
				for i < len(raw) && raw[i] != q {
					i++
				}
				val = string(raw[vStart:i])
				if i < len(raw) {
					i++
				}
			} else {
				vStart := i
				for i < len(raw) && raw[i] != ' ' && raw[i] != '>' &&
					raw[i] != '\n' && raw[i] != '\t' && raw[i] != '\r' {
					i++
				}
				val = string(raw[vStart:i])
			}
		}
		t.attrs = append(t.attrs, attr{Name: name, Value: val})
	}
	return nil
}

func isNameChar(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '-'
}

// Parse tokenizes a complete HTML document.
func Parse(raw []byte) *Document {
	d := &Document{Raw: raw, BodyEnd: len(raw)}
	inHead := false
	pos := 0
	var pendingText *int // TextLen accumulator of the last element
	for {
		t, textChars := nextTag(raw, pos)
		if pendingText != nil {
			*pendingText += textChars
			pendingText = nil
		} else if textChars > 0 && len(d.Elements) > 0 {
			d.Elements[len(d.Elements)-1].TextLen += textChars
		}
		if t == nil {
			break
		}
		pos = t.end
		if t.closing {
			switch t.name {
			case "head":
				d.HeadEnd = t.end
				inHead = false
			case "body":
				d.BodyEnd = t.start
			}
			continue
		}
		switch t.name {
		case "head":
			d.HeadStart = t.end
			inHead = true
		case "body":
			inHead = false
		case "title":
			end := indexFrom(raw, needTitleEnd, t.end)
			if end >= 0 {
				d.Title = strings.TrimSpace(string(raw[t.end:end]))
				pos = end + len("</title>")
			}
		case "link":
			rel := strings.ToLower(t.attrVal("rel"))
			href := t.attrVal("href")
			if href == "" {
				break
			}
			switch rel {
			case "stylesheet":
				d.Resources = append(d.Resources, Resource{
					Tag: "link", URL: href, Offset: t.end, InHead: inHead,
					Media: t.attrVal("media"),
				})
			case "preload", "icon", "shortcut icon":
				// Tracked as generic references; the browser model fetches
				// icons lazily and ignores preload hints (Vroom-style
				// client schedulers are out of scope).
			}
		case "script":
			if src, ok := t.attr("src"); ok && src != "" {
				_, async := t.attr("async")
				_, deferA := t.attr("defer")
				d.Resources = append(d.Resources, Resource{
					Tag: "script", URL: src, Offset: t.end, InHead: inHead,
					Async: async, Defer: deferA,
				})
				// Skip optional closing tag.
				if end := indexFrom(raw, needScriptEnd, t.end); end >= 0 && end-t.end < 16 {
					pos = end + len("</script>")
				}
			} else {
				end := indexFrom(raw, needScriptEnd, t.end)
				if end < 0 {
					end = len(raw)
				}
				content := string(raw[t.end:end])
				off := end + len("</script>")
				if off > len(raw) {
					off = len(raw)
				}
				d.InlineScripts = append(d.InlineScripts, InlineScript{
					Offset: off, Content: content, InHead: inHead,
				})
				pos = off
			}
		case "style":
			end := indexFrom(raw, needStyleEnd, t.end)
			if end < 0 {
				end = len(raw)
			}
			off := end + len("</style>")
			if off > len(raw) {
				off = len(raw)
			}
			d.InlineStyles = append(d.InlineStyles, InlineStyle{
				Offset: off, Content: string(raw[t.end:end]), InHead: inHead,
			})
			pos = off
		case "img":
			src := t.attrVal("src")
			if src != "" {
				d.Resources = append(d.Resources, Resource{
					Tag: "img", URL: src, Offset: t.end, InHead: inHead,
					Width: t.attrInt("width"), Height: t.attrInt("height"),
				})
			}
			d.Elements = append(d.Elements, Element{
				Tag: "img", ID: t.attrVal("id"), Classes: classes(t),
				Offset: t.end, Width: t.attrInt("width"), Height: t.attrInt("height"),
			})
		default:
			if !inHead && isVisualTag(t.name) {
				el := Element{
					Tag: t.name, ID: t.attrVal("id"), Classes: classes(t),
					Offset: t.end,
					Width:  t.attrInt("width"), Height: t.attrInt("height"),
				}
				d.Elements = append(d.Elements, el)
				pendingText = &d.Elements[len(d.Elements)-1].TextLen
			}
		}
	}
	if d.HeadEnd == 0 {
		d.HeadEnd = d.HeadStart
	}
	return d
}

func classes(t *tag) []string {
	v := t.attrVal("class")
	if v == "" {
		return nil
	}
	return strings.Fields(v)
}

func isVisualTag(name string) bool {
	switch name {
	case "div", "p", "h1", "h2", "h3", "h4", "h5", "h6", "span", "a",
		"section", "article", "header", "footer", "nav", "main", "aside",
		"ul", "ol", "li", "table", "td", "th", "tr", "button", "form",
		"input", "figure", "figcaption", "blockquote", "pre":
		return true
	}
	return false
}

// ExternalURLs returns the URLs of all external resources in document
// order.
func (d *Document) ExternalURLs() []string {
	out := make([]string, len(d.Resources))
	for i, r := range d.Resources {
		out[i] = r.URL
	}
	return out
}
