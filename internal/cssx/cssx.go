// Package cssx is a pragmatic CSS parser for the testbed: it extracts
// rules with their selectors and declarations, @font-face sources,
// @import references and url() assets, and implements critical-CSS
// extraction against a set of above-the-fold elements — the substitute
// for the penthouse tool the paper uses for its "optimized" strategies.
package cssx

import (
	"bytes"
	"strings"
)

// rule is one style rule: selectors and raw declaration block.
type rule struct {
	Selectors []string
	Body      string // declarations without braces
	// Media is the enclosing @media condition, empty at top level.
	Media string
}

// FontFace is an @font-face at-rule.
type FontFace struct {
	Family string
	URL    string
	Body   string
}

// Stylesheet is a parsed CSS file.
type Stylesheet struct {
	Rules     []rule
	FontFaces []FontFace
	Imports   []string // @import URLs
	AssetURLs []string // url(...) references from declarations (images)
}

// Parse tokenizes CSS source. It tolerates the usual real-world noise
// (comments, stray semicolons) and recurses one level into @media blocks.
//
// The source is taken as a byte slice and is only read, never retained
// or mutated: every string the Stylesheet carries is a fresh copy of the
// retained fragment, so callers may pass transport buffers (or recorded
// response bodies) directly without an up-front []byte -> string copy of
// the whole sheet.
func Parse(src []byte) *Stylesheet {
	s := &Stylesheet{}
	parseBlock(stripComments(src), "", s)
	return s
}

// ParseString is Parse for callers that hold the source as a string.
func ParseString(src string) *Stylesheet { return Parse([]byte(src)) }

// stripComments removes /* */ comments. Comment-free input (the common
// case for generated and minified sheets) is returned as-is, without a
// copy; otherwise a compacted copy is built.
func stripComments(s []byte) []byte {
	i := bytes.Index(s, []byte("/*"))
	if i < 0 {
		return s
	}
	var b bytes.Buffer
	b.Grow(len(s))
	for {
		b.Write(s[:i])
		j := bytes.Index(s[i+2:], []byte("*/"))
		if j < 0 {
			return b.Bytes()
		}
		s = s[i+2+j+2:]
		i = bytes.Index(s, []byte("/*"))
		if i < 0 {
			b.Write(s)
			return b.Bytes()
		}
	}
}

func parseBlock(src []byte, media string, out *Stylesheet) {
	pos := 0
	for pos < len(src) {
		// Skip whitespace and stray semicolons.
		for pos < len(src) && (src[pos] == ' ' || src[pos] == '\n' || src[pos] == '\t' || src[pos] == '\r' || src[pos] == ';') {
			pos++
		}
		if pos >= len(src) {
			return
		}
		if src[pos] == '@' {
			pos = parseAtRule(src, pos, media, out)
			continue
		}
		// Ordinary rule: selector { body }
		open := bytes.IndexByte(src[pos:], '{')
		if open < 0 {
			return
		}
		selText := strings.TrimSpace(string(src[pos : pos+open]))
		bodyStart := pos + open + 1
		bodyEnd := matchBrace(src, pos+open)
		if bodyEnd < 0 {
			return
		}
		body := strings.TrimSpace(string(src[bodyStart:bodyEnd]))
		var sels []string
		for _, s := range strings.Split(selText, ",") {
			if s = strings.TrimSpace(s); s != "" {
				sels = append(sels, s)
			}
		}
		if len(sels) > 0 {
			out.Rules = append(out.Rules, rule{Selectors: sels, Body: body, Media: media})
			out.AssetURLs = append(out.AssetURLs, extractURLs(body)...)
		}
		pos = bodyEnd + 1
	}
}

// parseAtRule handles @media, @font-face, @import and skips the rest.
func parseAtRule(src []byte, pos int, media string, out *Stylesheet) int {
	nameEnd := pos + 1
	for nameEnd < len(src) && isIdent(src[nameEnd]) {
		nameEnd++
	}
	name := strings.ToLower(string(src[pos+1 : nameEnd]))
	switch name {
	case "import":
		semi := bytes.IndexByte(src[nameEnd:], ';')
		if semi < 0 {
			return len(src)
		}
		arg := strings.TrimSpace(string(src[nameEnd : nameEnd+semi]))
		if u := parseImportURL(arg); u != "" {
			out.Imports = append(out.Imports, u)
		}
		return nameEnd + semi + 1
	case "font-face":
		open := bytes.IndexByte(src[nameEnd:], '{')
		if open < 0 {
			return len(src)
		}
		end := matchBrace(src, nameEnd+open)
		if end < 0 {
			return len(src)
		}
		body := string(src[nameEnd+open+1 : end])
		ff := FontFace{Body: strings.TrimSpace(body)}
		for _, decl := range strings.Split(body, ";") {
			k, v, ok := strings.Cut(decl, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(strings.ToLower(k)) {
			case "font-family":
				ff.Family = strings.Trim(strings.TrimSpace(v), `"'`)
			case "src":
				if urls := extractURLs(v); len(urls) > 0 {
					ff.URL = urls[0]
				}
			}
		}
		out.FontFaces = append(out.FontFaces, ff)
		return end + 1
	case "media":
		open := bytes.IndexByte(src[nameEnd:], '{')
		if open < 0 {
			return len(src)
		}
		cond := strings.TrimSpace(string(src[nameEnd : nameEnd+open]))
		end := matchBrace(src, nameEnd+open)
		if end < 0 {
			return len(src)
		}
		inner := src[nameEnd+open+1 : end]
		parseBlock(inner, cond, out)
		return end + 1
	default:
		// @keyframes, @supports, ... : skip the block or statement.
		open := bytes.IndexByte(src[nameEnd:], '{')
		semi := bytes.IndexByte(src[nameEnd:], ';')
		if semi >= 0 && (open < 0 || semi < open) {
			return nameEnd + semi + 1
		}
		if open < 0 {
			return len(src)
		}
		end := matchBrace(src, nameEnd+open)
		if end < 0 {
			return len(src)
		}
		return end + 1
	}
}

func isIdent(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b == '-'
}

// matchBrace returns the index of the '}' matching the '{' at src[open].
func matchBrace(src []byte, open int) int {
	depth := 0
	for i := open; i < len(src); i++ {
		switch src[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

func parseImportURL(arg string) string {
	arg = strings.TrimSpace(arg)
	if urls := extractURLs(arg); len(urls) > 0 {
		return urls[0]
	}
	return strings.Trim(arg, `"'`)
}

// extractURLs pulls url(...) references out of declaration text.
func extractURLs(s string) []string {
	var out []string
	for {
		i := strings.Index(s, "url(")
		if i < 0 {
			return out
		}
		s = s[i+4:]
		j := strings.IndexByte(s, ')')
		if j < 0 {
			return out
		}
		u := strings.Trim(strings.TrimSpace(s[:j]), `"'`)
		if u != "" && !strings.HasPrefix(u, "data:") {
			out = append(out, u)
		}
		s = s[j+1:]
	}
}

// serialize renders rules back to CSS text.
func serialize(rules []rule, fontFaces []FontFace) string {
	var b strings.Builder
	var curMedia string
	closeMedia := func() {
		if curMedia != "" {
			b.WriteString("}\n")
			curMedia = ""
		}
	}
	for _, ff := range fontFaces {
		b.WriteString("@font-face{")
		b.WriteString(ff.Body)
		b.WriteString("}\n")
	}
	for _, r := range rules {
		if r.Media != curMedia {
			closeMedia()
			if r.Media != "" {
				b.WriteString("@media ")
				b.WriteString(r.Media)
				b.WriteString("{\n")
				curMedia = r.Media
			}
		}
		b.WriteString(strings.Join(r.Selectors, ","))
		b.WriteString("{")
		b.WriteString(r.Body)
		b.WriteString("}\n")
	}
	closeMedia()
	return b.String()
}
