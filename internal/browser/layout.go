package browser

import (
	"strings"

	"repro/internal/cssx"
	"repro/internal/htmlx"
)

// visualUnit is one paintable piece of the page in the block layout
// model: an image or a run of text. Units stack vertically in document
// order; the portion above the fold contributes to visual progress.
// Units are immutable once laid out — they are part of the shared
// prepared page; per-run paint state is the Loader's painted bitset.
type visualUnit struct {
	offset  int     // byte offset in the document (DOM availability)
	area    float64 // above-the-fold area in px^2
	isImage bool
	imgURL  string // for images: the resource that must be loaded
	fontFam string // for text: required webfont family ("" = system font)
}

// layoutResult is the static layout pass over a parsed document.
type layoutResult struct {
	units        []*visualUnit
	totalATFArea float64
	// atfSigs are the selector signatures of above-the-fold elements,
	// the input to critical CSS extraction.
	atfSigs []cssx.ElementSig
	// atfOffsets: largest document offset of an ATF unit — interleave
	// offset heuristics use it.
	lastATFOffset int
}

// webfontFamily extracts the testbed's webfont convention from element
// classes: class "wf-Name" means the text requires font family "Name".
func webfontFamily(classes []string) string {
	for _, c := range classes {
		if strings.HasPrefix(c, "wf-") && len(c) > 3 {
			return c[3:]
		}
	}
	return ""
}

// layout performs the stacking layout: elements in document order, each
// occupying its own height; images use width/height attributes, text
// blocks derive height from character count. ATF = y < viewport height.
func layout(doc *htmlx.Document) *layoutResult {
	res := &layoutResult{}
	y := 0
	addUnit := func(u *visualUnit, w, h int) {
		if h <= 0 {
			return
		}
		top, bottom := y, y+h
		y = bottom
		visible := 0
		if top < viewportH {
			visible = minInt(bottom, viewportH) - top
		}
		if visible > 0 {
			if w <= 0 || w > viewportW {
				w = viewportW
			}
			u.area = float64(w * visible)
			res.units = append(res.units, u)
			res.totalATFArea += u.area
			if u.offset > res.lastATFOffset {
				res.lastATFOffset = u.offset
			}
		}
	}
	for i := range doc.Elements {
		el := &doc.Elements[i]
		atfBefore := y < viewportH
		if el.Tag == "img" {
			w, h := el.Width, el.Height
			if w == 0 {
				w = defaultImgEdge
			}
			if h == 0 {
				h = defaultImgEdge
			}
			u := &visualUnit{offset: el.Offset, isImage: true}
			// The image URL is matched later (resources carry offsets too).
			addUnit(u, w, h)
		} else if el.TextLen > 0 {
			lines := (el.TextLen + charsPerLine - 1) / charsPerLine
			u := &visualUnit{
				offset:  el.Offset,
				fontFam: webfontFamily(el.Classes),
			}
			addUnit(u, viewportW, lines*lineHeightPx)
		}
		if atfBefore {
			res.atfSigs = append(res.atfSigs, cssx.ElementSig{
				Tag: el.Tag, ID: el.ID, Classes: el.Classes,
			})
		}
	}
	// Match image units to image resources by offset proximity: the
	// resource reference ends at the same tag end offset.
	imgByOffset := map[int]string{}
	for _, r := range doc.Resources {
		if r.Tag == "img" {
			imgByOffset[r.Offset] = r.URL
		}
	}
	for _, u := range res.units {
		if u.isImage {
			u.imgURL = imgByOffset[u.offset]
		}
	}
	return res
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
