// Package analysis is repolint's in-tree static-analysis framework: a
// minimal mirror of golang.org/x/tools/go/analysis built on the
// standard library's go/ast and go/types, plus the Analyzers that
// machine-check the engine's hand-enforced contracts (determinism,
// Reset completeness, hot-path allocation discipline, []byte ownership
// transfer, and an internal/ API with no unread exports — see doc.go at
// the repository root for the invariant catalog and the directive
// syntax).
//
// The framework exists because the repository is intentionally
// dependency-free: golang.org/x/tools is not vendored, so the
// Analyzer/Pass/Diagnostic types are redeclared here with the same
// shape and cmd/repolint plays the role of the multichecker. Analyzers
// written against this package would port to the real go/analysis API
// nearly verbatim.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the
	// cmd/repolint command line.
	Name string

	// Doc is a one-paragraph description of the contract enforced.
	Doc string

	// Scope restricts which packages the analyzer runs over in the
	// repolint driver: a package is in scope when its import path
	// equals an entry or is underneath one. Empty means every package.
	// Scope is driver policy only — Run itself checks whatever package
	// it is handed, which is what lets analysistest fixtures use a
	// throwaway package path.
	Scope []string

	// Run applies the analyzer to one type-checked package.
	Run func(*Pass) error
}

// InScope reports whether the analyzer applies to the import path under
// the driver's scoping policy.
func (a *Analyzer) InScope(path string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for its findings.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// Module is every package of the module, for the analyzers whose
	// contract spans packages (unusedexport); per-package analyzers
	// ignore it.
	Module []*Package
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// reportf reports a formatted finding at pos.
func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer suite in the order the driver runs it.
func All() []*Analyzer {
	return []*Analyzer{directives, determinism, resetComplete, hotpath, retain, unusedExport}
}

// objectOf resolves an identifier to its object, checking uses first
// and falling back to definitions.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil for builtins, conversions and calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := objectOf(info, id).(*types.Func)
	return fn
}

// isByteSlice reports whether t is []byte (after following named types).
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isByteSliceSlice reports whether t is [][]byte.
func isByteSliceSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isByteSlice(s.Elem())
}
