package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DirectivePrefix marks a repolint directive comment. Directives use
// the Go toolchain's directive shape (no space after //, lower-case
// verb), so gofmt leaves them alone:
//
//	//repolint:ordered <reason>    escape hatch: map iteration is order-safe
//	//repolint:owns                function takes ownership of []byte params
//	//repolint:hotpath             enforce the hot-path allocation contract
//	//repolint:pooled              type's Reset must cover every field
//	//repolint:keep <reason>       field deliberately survives Reset
//	//repolint:notpooled <reason>  a Reset method that is not a pool reset
//
// A reason runs to the end of the line, except that "//" cuts it short
// so analysistest fixtures can carry expectations on the same line.
const DirectivePrefix = "//repolint:"

// Directive verbs.
const (
	VerbOrdered   = "ordered"
	VerbOwns      = "owns"
	VerbHotpath   = "hotpath"
	VerbPooled    = "pooled"
	VerbKeep      = "keep"
	VerbNotPooled = "notpooled"
)

// reasonRequired lists the verbs whose escape only counts with a
// written justification; knownVerbs is the full vocabulary.
var (
	reasonRequired = map[string]bool{VerbOrdered: true, VerbKeep: true, VerbNotPooled: true}
	knownVerbs     = map[string]bool{
		VerbOrdered: true, VerbOwns: true, VerbHotpath: true,
		VerbPooled: true, VerbKeep: true, VerbNotPooled: true,
	}
)

// A Directive is one parsed //repolint: comment.
type directive struct {
	Verb   string
	Reason string
	Pos    token.Pos
}

// parseDirective parses a single comment line. ok is false for
// ordinary comments.
func parseDirective(c *ast.Comment) (d directive, ok bool) {
	if !strings.HasPrefix(c.Text, DirectivePrefix) {
		return directive{}, false
	}
	rest := c.Text[len(DirectivePrefix):]
	verb, reason := rest, ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		verb, reason = rest[:i], rest[i+1:]
	}
	// Let a trailing comment-in-comment (analysistest "// want"
	// expectations) terminate the reason.
	if i := strings.Index(reason, "//"); i >= 0 {
		reason = reason[:i]
	}
	return directive{Verb: verb, Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// groupDirective returns the first directive with the given verb in a
// comment group (doc comment or trailing line comment).
func groupDirective(g *ast.CommentGroup, verb string) (directive, bool) {
	if g == nil {
		return directive{}, false
	}
	for _, c := range g.List {
		if d, ok := parseDirective(c); ok && d.Verb == verb {
			return d, true
		}
	}
	return directive{}, false
}

// hasDirective reports whether the comment group carries the verb.
func hasDirective(g *ast.CommentGroup, verb string) bool {
	_, ok := groupDirective(g, verb)
	return ok
}

// lineOf is a shorthand for the fset line of a position.
func lineOf(fset *token.FileSet, pos token.Pos) int {
	return fset.Position(pos).Line
}

// directives validates directive syntax and placement, so a typo'd or
// misattached escape hatch fails the build instead of silently
// disabling a contract check. The four contract analyzers assume
// well-placed directives and leave malformed ones to this analyzer.
var directives = &Analyzer{
	Name: "directives",
	Doc: "check that every //repolint: directive uses a known verb, carries " +
		"a reason where one is required, and is attached to the node kind " +
		"its verb applies to",
	Run: runDirectives,
}

// directiveHomes records, per comment position, what kind of node the
// comment documents.
type directiveHome struct {
	kind string        // "func", "type", "field", or "" for free-floating
	fn   *ast.FuncDecl // set for kind "func"
	spec *ast.TypeSpec // set for kind "type"
}

func runDirectives(pass *Pass) error {
	for _, file := range pass.Files {
		homes := collectHomes(file)
		rangeLines := collectRangeLines(pass, file)
		for _, g := range file.Comments {
			for _, c := range g.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				checkDirective(pass, d, homes[c.Pos()], rangeLines)
			}
		}
	}
	return nil
}

// collectHomes maps each comment position inside a doc/field comment to
// the node it documents.
func collectHomes(file *ast.File) map[token.Pos]directiveHome {
	homes := make(map[token.Pos]directiveHome)
	claim := func(g *ast.CommentGroup, h directiveHome) {
		if g == nil {
			return
		}
		for _, c := range g.List {
			homes[c.Pos()] = h
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			claim(n.Doc, directiveHome{kind: "func", fn: n})
		case *ast.GenDecl:
			// A doc comment on a single-spec type declaration documents
			// the type itself.
			if n.Tok == token.TYPE && len(n.Specs) == 1 {
				if ts, ok := n.Specs[0].(*ast.TypeSpec); ok {
					claim(n.Doc, directiveHome{kind: "type", spec: ts})
				}
			}
		case *ast.TypeSpec:
			claim(n.Doc, directiveHome{kind: "type", spec: n})
		case *ast.StructType:
			for _, f := range n.Fields.List {
				claim(f.Doc, directiveHome{kind: "field"})
				claim(f.Comment, directiveHome{kind: "field"})
			}
		}
		return true
	})
	return homes
}

// collectRangeLines maps source lines to the range statement starting
// there (for //repolint:ordered attachment) plus whether it ranges over
// a map.
func collectRangeLines(pass *Pass, file *ast.File) map[int]bool {
	lines := make(map[int]bool) // line -> ranges over a map
	ast.Inspect(file, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		overMap := false
		if tv, ok := pass.TypesInfo.Types[rs.X]; ok {
			_, overMap = tv.Type.Underlying().(*types.Map)
		}
		lines[lineOf(pass.Fset, rs.Pos())] = overMap
		return true
	})
	return lines
}

func checkDirective(pass *Pass, d directive, home directiveHome, rangeLines map[int]bool) {
	if !knownVerbs[d.Verb] {
		pass.reportf(d.Pos, "unknown repolint directive %q (known: ordered, owns, hotpath, pooled, keep, notpooled)", d.Verb)
		return
	}
	if reasonRequired[d.Verb] && d.Reason == "" {
		pass.reportf(d.Pos, "//repolint:%s requires a reason", d.Verb)
	}
	switch d.Verb {
	case VerbOrdered:
		line := lineOf(pass.Fset, d.Pos)
		// Attached when it trails the range line or immediately
		// precedes it.
		overMap, onRange := rangeLines[line]
		if !onRange {
			overMap, onRange = rangeLines[line+1]
		}
		switch {
		case !onRange:
			pass.reportf(d.Pos, "//repolint:ordered is not attached to a range statement")
		case !overMap:
			pass.reportf(d.Pos, "//repolint:ordered on a range that does not iterate a map")
		}
	case VerbHotpath:
		if home.kind != "func" {
			pass.reportf(d.Pos, "//repolint:hotpath must be in a function's doc comment")
		}
	case VerbOwns:
		if home.kind != "func" {
			pass.reportf(d.Pos, "//repolint:owns must be in a function's doc comment")
			return
		}
		if !funcHasByteSliceParam(pass, home.fn) {
			pass.reportf(d.Pos, "//repolint:owns on a function without []byte parameters")
		}
	case VerbPooled:
		if home.kind != "type" || home.spec == nil {
			pass.reportf(d.Pos, "//repolint:pooled must be in a struct type's doc comment")
			return
		}
		if _, ok := home.spec.Type.(*ast.StructType); !ok {
			pass.reportf(d.Pos, "//repolint:pooled must be in a struct type's doc comment")
		}
	case VerbKeep:
		if home.kind != "field" {
			pass.reportf(d.Pos, "//repolint:keep must be attached to a struct field")
		}
	case VerbNotPooled:
		if home.kind != "func" || home.fn.Recv == nil || !isResetName(home.fn.Name.Name) {
			pass.reportf(d.Pos, "//repolint:notpooled must be in the doc comment of a Reset method")
		}
	}
}

func funcHasByteSliceParam(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, f := range fn.Type.Params.List {
		if tv, ok := pass.TypesInfo.Types[f.Type]; ok {
			if isByteSlice(tv.Type) || isByteSliceSlice(tv.Type) {
				return true
			}
		}
	}
	return false
}

// isResetName reports whether name is a pool-reset method name; both
// exported and package-internal spellings count.
func isResetName(name string) bool { return name == "Reset" || name == "reset" }
