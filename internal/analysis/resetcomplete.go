package analysis

import (
	"go/ast"
	"go/token"
)

// resetComplete enforces the pooled-reuse contract: every type whose
// instances cycle through a pool has a Reset method, and that method
// (directly or through other pointer-receiver methods it calls on the
// same receiver) must account for every field — either by assigning it
// or via an explicit //repolint:keep <reason> on the field. A field
// added in a future PR without Reset coverage therefore fails the
// build instead of leaking state between pooled runs.
//
// The analyzer is driven by annotations rather than a hard-coded type
// list: a struct marked //repolint:pooled gets full coverage checking,
// and any Reset method on an unannotated struct is itself a finding —
// the author must declare whether it is a pool reset (annotate the
// type //repolint:pooled) or protocol semantics that merely shares the
// name (annotate the method //repolint:notpooled <reason>, e.g. h2's
// Stream.reset, which sends RST_STREAM).
var resetComplete = &Analyzer{
	Name: "resetcomplete",
	Doc: "verify that the Reset method of every //repolint:pooled type " +
		"covers all fields not annotated //repolint:keep",
	Run: runResetComplete,
}

// pooledType gathers one struct declaration's annotation state.
type pooledType struct {
	name   string
	spec   *ast.TypeSpec
	st     *ast.StructType
	pooled bool
}

// methodInfo summarizes one pointer-receiver method body: the receiver
// fields it assigns and the same-receiver pointer-receiver methods it
// calls.
type methodInfo struct {
	decl      *ast.FuncDecl
	covers    map[string]bool
	calls     []string
	coversAll bool // *recv = T{...} wholesale
}

func runResetComplete(pass *Pass) error {
	structs := make(map[string]*pooledType)
	methods := make(map[string]map[string]*ast.FuncDecl) // type -> method name -> decl

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GenDecl:
				if n.Tok != token.TYPE {
					return true
				}
				for _, spec := range n.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					pooled := hasDirective(ts.Doc, VerbPooled) ||
						(len(n.Specs) == 1 && hasDirective(n.Doc, VerbPooled))
					structs[ts.Name.Name] = &pooledType{
						name: ts.Name.Name, spec: ts, st: st, pooled: pooled,
					}
				}
			case *ast.FuncDecl:
				if recv := recvTypeName(n); recv != "" {
					if methods[recv] == nil {
						methods[recv] = make(map[string]*ast.FuncDecl)
					}
					methods[recv][n.Name.Name] = n
				}
				return false // no nested method decls
			}
			return true
		})
	}

	for _, pt := range structs {
		reset, hasReset := findReset(methods[pt.name])
		switch {
		case pt.pooled && !hasReset:
			pass.reportf(pt.spec.Name.Pos(), "type %s is annotated //repolint:pooled but has no Reset method", pt.name)
		case pt.pooled:
			checkResetCoverage(pass, pt, reset, methods[pt.name])
		case hasReset && !hasDirective(reset.Doc, VerbNotPooled):
			pass.reportf(reset.Name.Pos(),
				"type %s has a %s method but is not annotated: mark the type //repolint:pooled (pool reset, field coverage enforced) or the method //repolint:notpooled <reason>",
				pt.name, reset.Name.Name)
		}
	}
	return nil
}

// findReset locates the pool-reset method among a type's methods,
// preferring the exported spelling.
func findReset(ms map[string]*ast.FuncDecl) (*ast.FuncDecl, bool) {
	if m, ok := ms["Reset"]; ok {
		return m, true
	}
	if m, ok := ms["reset"]; ok {
		return m, true
	}
	return nil, false
}

func checkResetCoverage(pass *Pass, pt *pooledType, reset *ast.FuncDecl, ms map[string]*ast.FuncDecl) {
	if hasDirective(reset.Doc, VerbNotPooled) {
		pass.reportf(reset.Name.Pos(), "type %s is //repolint:pooled but its %s method is //repolint:notpooled — pick one", pt.name, reset.Name.Name)
		return
	}
	if !pointerReceiver(reset) {
		pass.reportf(reset.Name.Pos(), "pooled type %s has a value-receiver %s method, which cannot clear fields", pt.name, reset.Name.Name)
		return
	}

	// Transitive closure of covered fields over same-receiver
	// pointer-method calls, so Reset helpers (Farm.Reset calling
	// resolvePlan, for instance) count.
	covered := make(map[string]bool)
	coversAll := false
	seen := map[string]bool{}
	var walk func(name string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		mi := summarizeMethod(pass, ms[name], ms)
		if mi == nil {
			return
		}
		if mi.coversAll {
			coversAll = true
		}
		for f := range mi.covers {
			covered[f] = true
		}
		for _, callee := range mi.calls {
			walk(callee)
		}
	}
	walk(reset.Name.Name)
	if coversAll {
		return
	}

	for _, field := range pt.st.Fields.List {
		keep := hasDirective(field.Doc, VerbKeep) || hasDirective(field.Comment, VerbKeep)
		if keep {
			continue
		}
		names := field.Names
		if len(names) == 0 {
			// Embedded field: named after its type.
			if id := embeddedName(field.Type); id != nil {
				names = []*ast.Ident{id}
			}
		}
		for _, name := range names {
			if name.Name == "_" || covered[name.Name] {
				continue
			}
			pass.reportf(name.Pos(),
				"field %s.%s is not assigned by %s (or the methods it calls) and carries no //repolint:keep <reason>; pooled reuse would leak it across runs",
				pt.name, name.Name, reset.Name.Name)
		}
	}
}

// summarizeMethod computes the coverage summary of one method; nil when
// the method is unknown or has no usable receiver.
func summarizeMethod(pass *Pass, decl *ast.FuncDecl, ms map[string]*ast.FuncDecl) *methodInfo {
	if decl == nil || decl.Body == nil || !pointerReceiver(decl) {
		return nil
	}
	recvName := receiverName(decl)
	if recvName == "" {
		return nil
	}
	recvObj := objectOf(pass.TypesInfo, receiverIdent(decl))
	mi := &methodInfo{decl: decl, covers: make(map[string]bool)}

	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && objectOf(pass.TypesInfo, id) == recvObj
	}
	// fieldOf unwraps element/pointer accesses and returns the receiver
	// field an lvalue roots in, or "" when it is not receiver-rooted.
	var fieldOf func(e ast.Expr) string
	fieldOf = func(e ast.Expr) string {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if isRecv(e.X) {
				return e.Sel.Name
			}
			return fieldOf(e.X)
		case *ast.IndexExpr:
			return fieldOf(e.X)
		case *ast.StarExpr:
			return fieldOf(e.X)
		case *ast.SliceExpr:
			return fieldOf(e.X)
		}
		return ""
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if se, ok := ast.Unparen(lhs).(*ast.StarExpr); ok && isRecv(se.X) {
					mi.coversAll = true
					continue
				}
				if f := fieldOf(lhs); f != "" {
					mi.covers[f] = true
				}
			}
		case *ast.IncDecStmt:
			if f := fieldOf(n.X); f != "" {
				mi.covers[f] = true
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.SelectorExpr:
				if isRecv(fun.X) {
					// recv.m(...): coverage propagates only through
					// pointer-receiver methods of the same type.
					if callee, ok := ms[fun.Sel.Name]; ok && pointerReceiver(callee) {
						mi.calls = append(mi.calls, fun.Sel.Name)
					}
				} else if f := fieldOf(fun.X); f != "" {
					// recv.f.Method(...): the field manages its own
					// state (c.Tree.Reset(), s.src.Seed(seed), ...).
					mi.covers[f] = true
				}
			case *ast.Ident:
				// clear(recv.f) / copy(recv.f, ...) reset in place.
				if fun.Name == "clear" || fun.Name == "copy" {
					if len(n.Args) > 0 {
						if f := fieldOf(n.Args[0]); f != "" {
							mi.covers[f] = true
						}
					}
				}
			}
			// &recv.f passed anywhere hands the field off for reuse.
			for _, arg := range n.Args {
				if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
					if f := fieldOf(ue.X); f != "" {
						mi.covers[f] = true
					}
				}
			}
		}
		return true
	})
	return mi
}

// recvTypeName returns the receiver's type name, or "".
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	// Strip type-parameter instantiation on generic receivers.
	if ie, ok := t.(*ast.IndexExpr); ok {
		t = ie.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func pointerReceiver(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	_, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	return ok
}

func receiverIdent(fn *ast.FuncDecl) *ast.Ident {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return fn.Recv.List[0].Names[0]
}

func receiverName(fn *ast.FuncDecl) string {
	id := receiverIdent(fn)
	if id == nil || id.Name == "_" {
		return ""
	}
	return id.Name
}

// embeddedName digs the type identifier out of an embedded field.
func embeddedName(t ast.Expr) *ast.Ident {
	switch t := t.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}
