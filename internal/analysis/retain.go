package analysis

import (
	"go/ast"
	"go/types"
)

// retain encodes the zero-copy ownership-transfer contract:
// in the transport layers (netem, h2), a []byte parameter is borrowed
// unless the function's doc comment says //repolint:owns. Storing a
// borrowed slice — the parameter itself, a subslice of it, or an
// element of a [][]byte parameter — into a struct field or
// package-level variable silently extends the caller's write
// obligation past the call, which is exactly the aliasing bug class
// the writer-owned transfer discipline exists to prevent.
var retain = &Analyzer{
	Name: "retain",
	Doc: "flag []byte parameters stored into fields or package state " +
		"by functions not annotated //repolint:owns",
	Scope: []string{"repro/internal/netem", "repro/internal/h2"},
	Run:   runRetain,
}

func runRetain(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || hasDirective(fn.Doc, VerbOwns) {
				continue
			}
			checkRetain(pass, fn)
		}
	}
	return nil
}

func checkRetain(pass *Pass, fn *ast.FuncDecl) {
	params := byteSliceParams(pass, fn)
	if len(params) == 0 {
		return
	}

	// paramOf resolves an expression to the borrowed parameter it
	// aliases: the parameter itself, a subslice, an element of a
	// [][]byte parameter, or an append chain seeded or extended with
	// one of those.
	var paramOf func(e ast.Expr) *ast.Ident
	paramOf = func(e ast.Expr) *ast.Ident {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := objectOf(pass.TypesInfo, e); obj != nil && params[obj] != nil {
				return params[obj]
			}
		case *ast.SliceExpr:
			return paramOf(e.X)
		case *ast.IndexExpr:
			return paramOf(e.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := objectOf(pass.TypesInfo, id).(*types.Builtin); isBuiltin {
					for i, arg := range e.Args {
						// append(dst, p) and append(dst, bs...) retain
						// slice headers; append(dst, b...) of a []byte
						// into a []byte copies bytes and is safe.
						if tv, ok := pass.TypesInfo.Types[arg]; ok && i > 0 &&
							e.Ellipsis.IsValid() && i == len(e.Args)-1 && isByteSlice(tv.Type) {
							continue
						}
						if p := paramOf(arg); p != nil {
							return p
						}
					}
				}
			}
		}
		return nil
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			target := escapingTarget(pass, lhs)
			if target == "" {
				continue
			}
			if p := paramOf(as.Rhs[i]); p != nil {
				pass.reportf(as.Rhs[i].Pos(),
					"storing []byte parameter %s into %s retains the caller's buffer past the call; the transport contract is borrow-only — annotate the function //repolint:owns if ownership really transfers here",
					p.Name, target)
			}
		}
		return true
	})
}

// byteSliceParams maps the object of each []byte / [][]byte parameter
// (including the receiver's — not applicable — and named results — also
// excluded) to its declaring identifier.
func byteSliceParams(pass *Pass, fn *ast.FuncDecl) map[types.Object]*ast.Ident {
	params := make(map[types.Object]*ast.Ident)
	if fn.Type.Params == nil {
		return params
	}
	for _, f := range fn.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[f.Type]
		if !ok || !(isByteSlice(tv.Type) || isByteSliceSlice(tv.Type)) {
			continue
		}
		for _, name := range f.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				params[obj] = name
			}
		}
	}
	if len(params) == 0 {
		return nil
	}
	return params
}

// escapingTarget describes lhs when assigning to it publishes the value
// beyond the function's locals: a field of anything, or a package-level
// variable. It returns "" for plain locals.
func escapingTarget(pass *Pass, lhs ast.Expr) string {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		// Only field stores count; a qualified package identifier
		// (pkg.Var) resolves below through the Ident case instead.
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return "field " + e.Sel.Name
		}
		if obj := objectOf(pass.TypesInfo, e.Sel); obj != nil && isPackageLevelVar(obj) {
			return "package variable " + e.Sel.Name
		}
	case *ast.IndexExpr:
		return escapingTarget(pass, e.X)
	case *ast.StarExpr:
		return escapingTarget(pass, e.X)
	case *ast.Ident:
		if obj := objectOf(pass.TypesInfo, e); obj != nil && isPackageLevelVar(obj) {
			return "package variable " + e.Name
		}
	}
	return ""
}

func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}
