package htmlx

import (
	"bytes"
	"strings"
)

// MoveStylesheetsToBodyEnd relocates every <link rel=stylesheet> of an
// HTML document to just before </body>, so the stylesheets stop blocking
// the critical render path: the document half of the paper's "optimized"
// strategies (Sec. 5). It returns the new bytes; raw is left untouched.
func MoveStylesheetsToBodyEnd(raw []byte) []byte {
	d := Parse(raw)
	type cut struct{ start, end int }
	var cuts []cut
	var moved [][]byte

	// Find the byte ranges of stylesheet link tags to relocate.
	pos := 0
	for {
		t, _ := nextTag(raw, pos)
		if t == nil {
			break
		}
		pos = t.end
		if t.closing || t.name != "link" {
			continue
		}
		if strings.ToLower(t.attrVal("rel")) != "stylesheet" {
			continue
		}
		cuts = append(cuts, cut{t.start, t.end})
		moved = append(moved, append([]byte(nil), raw[t.start:t.end]...))
	}

	var out bytes.Buffer
	out.Grow(len(raw))
	// write copies raw[from:to] to the output, omitting cut ranges (which
	// are in document order).
	write := func(from, to int) {
		for _, c := range cuts {
			if c.end <= from || c.start >= to {
				continue
			}
			if c.start > from {
				out.Write(raw[from:c.start])
			}
			from = c.end
		}
		if from < to {
			out.Write(raw[from:to])
		}
	}

	write(0, d.BodyEnd)
	for _, m := range moved {
		out.Write(m)
	}
	write(d.BodyEnd, len(raw))
	return out.Bytes()
}
