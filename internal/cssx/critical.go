package cssx

import "strings"

// ElementSig is the selector-relevant signature of a DOM element used for
// critical-CSS matching: its tag plus id and classes.
type ElementSig struct {
	Tag     string
	ID      string
	Classes []string
}

func (e ElementSig) hasClass(c string) bool {
	for _, x := range e.Classes {
		if x == c {
			return true
		}
	}
	return false
}

// compound is a parsed simple-selector compound (the rightmost part of a
// complex selector), e.g. "div.hero#main".
type compound struct {
	tag     string
	id      string
	classes []string
	univ    bool // *
}

// parseRightmostCompound extracts the rightmost compound of a complex
// selector, ignoring combinators and pseudo-classes/elements.
func parseRightmostCompound(sel string) compound {
	sel = strings.TrimSpace(sel)
	// Split on combinators; take the last part.
	last := sel
	for _, comb := range []string{" ", ">", "+", "~"} {
		if i := strings.LastIndex(last, comb); i >= 0 {
			last = last[i+len(comb):]
		}
	}
	last = strings.TrimSpace(last)
	// Strip pseudo (":hover", "::before") and attribute selectors.
	if i := strings.IndexByte(last, ':'); i >= 0 {
		last = last[:i]
	}
	if i := strings.IndexByte(last, '['); i >= 0 {
		last = last[:i]
	}
	var c compound
	for len(last) > 0 {
		switch last[0] {
		case '*':
			c.univ = true
			last = last[1:]
		case '.':
			last = last[1:]
			n := identLen(last)
			c.classes = append(c.classes, last[:n])
			last = last[n:]
		case '#':
			last = last[1:]
			n := identLen(last)
			c.id = last[:n]
			last = last[n:]
		default:
			n := identLen(last)
			if n == 0 {
				return c
			}
			c.tag = strings.ToLower(last[:n])
			last = last[n:]
		}
	}
	return c
}

func identLen(s string) int {
	i := 0
	for i < len(s) {
		b := s[i]
		if b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '-' || b == '_' {
			i++
		} else {
			break
		}
	}
	return i
}

// matches reports whether the compound can match the element.
func (c compound) matches(e ElementSig) bool {
	if c.tag != "" && c.tag != strings.ToLower(e.Tag) {
		return false
	}
	if c.id != "" && c.id != e.ID {
		return false
	}
	for _, cl := range c.classes {
		if cl == "" || !e.hasClass(cl) {
			return false
		}
	}
	// A bare universal or empty compound matches anything.
	return true
}

// CriticalResult is the output of ExtractCritical.
type CriticalResult struct {
	// CSS is the serialized critical stylesheet.
	CSS string
	// Rules are the retained rules.
	Rules []rule
	// FontFaces retained because an ATF rule references their family.
	FontFaces []FontFace
	// KeptBytes / TotalBytes measure the reduction.
	KeptBytes, TotalBytes int
}

// ExtractCritical computes the critical CSS of sheet for the given
// above-the-fold elements: every rule whose rightmost compound selector
// can match an ATF element is retained, as are @font-face rules whose
// family is used by a retained rule. This mirrors what penthouse does
// with a real render: the paper inlines the result in <head> and moves
// the full stylesheets to the end of <body>.
func ExtractCritical(sheet *Stylesheet, atf []ElementSig) CriticalResult {
	var res CriticalResult
	usedFamilies := map[string]bool{}
	for _, r := range sheet.Rules {
		res.TotalBytes += ruleBytes(r)
		// Print-only media never matters for first paint.
		if strings.Contains(r.Media, "print") {
			continue
		}
		kept := false
		for _, sel := range r.Selectors {
			cp := parseRightmostCompound(sel)
			for _, e := range atf {
				if cp.matches(e) {
					kept = true
					break
				}
			}
			if kept {
				break
			}
		}
		if !kept {
			continue
		}
		res.Rules = append(res.Rules, r)
		res.KeptBytes += ruleBytes(r)
		for _, decl := range strings.Split(r.Body, ";") {
			k, v, ok := strings.Cut(decl, ":")
			if !ok {
				continue
			}
			if strings.TrimSpace(strings.ToLower(k)) == "font-family" {
				for _, fam := range strings.Split(v, ",") {
					usedFamilies[strings.Trim(strings.TrimSpace(fam), `"'`)] = true
				}
			}
		}
	}
	for _, ff := range sheet.FontFaces {
		res.TotalBytes += len(ff.Body) + 14
		if usedFamilies[ff.Family] {
			res.FontFaces = append(res.FontFaces, ff)
			res.KeptBytes += len(ff.Body) + 14
		}
	}
	res.CSS = serialize(res.Rules, res.FontFaces)
	return res
}

func ruleBytes(r rule) int {
	n := len(r.Body) + 2
	for _, s := range r.Selectors {
		n += len(s) + 1
	}
	return n
}
