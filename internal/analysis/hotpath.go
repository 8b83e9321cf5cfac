package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath enforces the allocation discipline of the warm replay loop:
// a function marked //repolint:hotpath (the browser loader's per-frame
// callbacks, the h2 frame/queue paths, the farm serve path, the sim
// scheduler) must not allocate per call. Concretely it must not call
// into package fmt, concatenate strings, build closures (function
// literals that are not immediately invoked, or method values), or box
// non-pointer-shaped values into interfaces — the conversions that
// made AtCall's pointer-argument convention necessary in the first
// place.
//
// Two escape valves keep the rule honest rather than annoying:
// anything feeding a panic call is exempt (panics are the cold error
// path; sim.At's "scheduling in the past" Sprintf stays), and return
// statements are not checked (error returns box a struct exactly once
// on the cold failure path).
var hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "forbid fmt calls, string concatenation, closures and " +
		"interface boxing in functions marked //repolint:hotpath",
	Run: runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, VerbHotpath) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	exempt := panicArgNodes(pass, fn.Body)
	inExempt := func(n ast.Node) bool { return exempt[n.Pos()] }

	// A stack-tracking walk: closure and method-value checks need the
	// parent node to tell immediate invocation from value use.
	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		parent := ast.Node(nil)
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if !immediatelyInvoked(n, parent, stack) && !inExempt(n) {
				pass.reportf(n.Pos(), "closure allocates in hot path %s; hoist it to a cached field or use a static callback with sim.AtCall", fn.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, inExempt)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pass, n) && !inExempt(n) {
				pass.reportf(n.Pos(), "string concatenation allocates in hot path %s", fn.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pass, n.Lhs[0]) && !inExempt(n) {
				pass.reportf(n.Pos(), "string concatenation allocates in hot path %s", fn.Name.Name)
			}
			checkHotAssign(pass, fn, n)
		case *ast.ValueSpec:
			checkHotValueSpec(pass, fn, n)
		case *ast.SelectorExpr:
			checkMethodValue(pass, fn, n, parent, inExempt)
		}
		stack = append(stack, n)
		for _, c := range childNodes(n) {
			walk(c)
		}
		stack = stack[:len(stack)-1]
	}
	walk(fn.Body)
}

// panicArgNodes marks every node inside a panic(...) argument list;
// those subtrees are the cold error path.
func panicArgNodes(pass *Pass, body *ast.BlockStmt) map[token.Pos]bool {
	exempt := make(map[token.Pos]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if _, isBuiltin := objectOf(pass.TypesInfo, id).(*types.Builtin); !isBuiltin {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if m != nil {
					exempt[m.Pos()] = true
				}
				return true
			})
		}
		return true
	})
	return exempt
}

// immediatelyInvoked reports whether lit is the callee of its parent
// call — func(){...}() — and the call is not deferred or spawned as a
// goroutine (both of which still materialize the closure).
func immediatelyInvoked(lit *ast.FuncLit, parent ast.Node, stack []ast.Node) bool {
	call, ok := parent.(*ast.CallExpr)
	if !ok || call.Fun != lit {
		return false
	}
	if len(stack) >= 2 {
		switch stack[len(stack)-2].(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		}
	}
	return true
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, inExempt func(ast.Node) bool) {
	if inExempt(call) {
		return
	}
	// fmt anywhere in a hot function is a formatting allocation.
	if callee := calleeFunc(pass.TypesInfo, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		pass.reportf(call.Pos(), "fmt.%s call in hot path %s", callee.Name(), fn.Name.Name)
		return
	}

	funTV, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if funTV.IsType() {
		// Explicit conversion: T(x) boxing into an interface.
		if len(call.Args) == 1 {
			checkBoxing(pass, fn, funTV.Type, call.Args[0], "conversion")
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		// append into an interface-element slice boxes each appended
		// element; the other builtins cannot box.
		if _, isBuiltin := objectOf(pass.TypesInfo, id).(*types.Builtin); isBuiltin {
			if id.Name == "append" && len(call.Args) > 1 && !call.Ellipsis.IsValid() {
				if s, ok := pass.TypesInfo.Types[call.Args[0]].Type.Underlying().(*types.Slice); ok {
					for _, arg := range call.Args[1:] {
						checkBoxing(pass, fn, s.Elem(), arg, "append")
					}
				}
			}
			return
		}
	}
	sig, ok := funTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // spread passes the slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkBoxing(pass, fn, pt, arg, "argument")
	}
}

func checkHotAssign(pass *Pass, fn *ast.FuncDecl, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return // multi-value form: types come straight from the callee
	}
	for i, lhs := range as.Lhs {
		var lt types.Type
		if as.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		} else if tv, ok := pass.TypesInfo.Types[lhs]; ok {
			lt = tv.Type
		}
		if lt != nil {
			checkBoxing(pass, fn, lt, as.Rhs[i], "assignment")
		}
	}
}

func checkHotValueSpec(pass *Pass, fn *ast.FuncDecl, vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		if obj := pass.TypesInfo.Defs[name]; obj != nil {
			checkBoxing(pass, fn, obj.Type(), vs.Values[i], "assignment")
		}
	}
}

// checkMethodValue flags method values (x.M used as a value): each one
// allocates a bound-method closure. Cold setup code caches them in
// fields (SimEndpoint.recvFn); hot code must use the cached copy.
func checkMethodValue(pass *Pass, fn *ast.FuncDecl, sel *ast.SelectorExpr, parent ast.Node, inExempt func(ast.Node) bool) {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	if call, ok := parent.(*ast.CallExpr); ok && call.Fun == sel {
		return // ordinary method call
	}
	if inExempt(sel) {
		return
	}
	pass.reportf(sel.Pos(), "method value %s allocates a bound closure in hot path %s; cache it in a field during setup", sel.Sel.Name, fn.Name.Name)
}

// checkBoxing reports when assigning rhs to something of type dst boxes
// a non-pointer-shaped concrete value into an interface.
func checkBoxing(pass *Pass, fn *ast.FuncDecl, dst types.Type, rhs ast.Expr, what string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := pass.TypesInfo.Types[rhs]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	rt := tv.Type
	if types.IsInterface(rt) || pointerShaped(rt) {
		return
	}
	pass.reportf(rhs.Pos(), "interface %s boxes %s (not pointer-shaped) and allocates in hot path %s; pass a pointer instead", what, rt.String(), fn.Name.Name)
}

// pointerShaped reports whether values of t fit in an interface word
// without allocating: pointers, channels, maps, functions and
// unsafe.Pointer.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isStringExpr reports whether e's type is a string.
func isStringExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// childNodes returns n's immediate children in source order.
func childNodes(n ast.Node) []ast.Node {
	var kids []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true // enter n itself
		}
		if m == nil {
			return false
		}
		kids = append(kids, m)
		return false // do not descend; walk recurses explicitly
	})
	return kids
}
