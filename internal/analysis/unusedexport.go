package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// unusedExport keeps internal/'s API to what the module uses: an
// exported package-level func, type or var, or an exported method on
// an exported type, needs a reader outside its own package — any
// non-test file of the module (cmd/, bench/ and examples/ count) or a
// test file of a different package. A name that only its own package
// and that package's tests read is package-private in all but spelling.
// Constants are exempt (enum members and protocol code points stay
// exported as a set), and so is a method that implements an interface
// by name and signature (String, Error, the methods a Frame or
// rand.Source must have), since such a method is called through the
// interface rather than by name. Struct fields are out of scope.
//
// The check is module-wide: it reads Pass.Module, every package with
// its test files type-checked against the module's packages.
var unusedExport = &Analyzer{
	Name: "unusedexport",
	Doc: "flag exported funcs, types, vars and methods in internal/ that " +
		"nothing outside their package reads (constants and interface methods exempt)",
	Scope: []string{"repro/internal"},
	Run:   runUnusedExport,
}

func runUnusedExport(pass *Pass) error {
	read := make(map[types.Object]bool)
	for _, pkg := range pass.Module {
		if pkg.Types == pass.Pkg {
			continue // the package's own files and tests are not readers
		}
		for _, info := range append([]*types.Info{pkg.TypesInfo}, pkg.TestInfos...) {
			for _, obj := range info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin() // a method of an instantiated generic type
				}
				if obj.Pkg() == pass.Pkg {
					read[obj] = true
				}
			}
			// A value of the type crossing the boundary reads the type
			// even when the reader never spells its name.
			for _, tv := range info.Types {
				if n := derefNamed(tv.Type); n != nil && n.Obj().Pkg() == pass.Pkg {
					read[n.Origin().Obj()] = true
				}
			}
		}
	}
	ifaces := interfacesByMethod(pass.Module)

	check := func(id *ast.Ident, kind, name string) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil && id.IsExported() && !read[obj] {
			pass.reportf(id.Pos(), "exported %s %s has no reader outside package %s: delete or unexport it",
				kind, name, pass.Pkg.Name())
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name, "func", d.Name.Name)
					continue
				}
				m := pass.TypesInfo.Defs[d.Name].(*types.Func)
				recv := derefNamed(m.Type().(*types.Signature).Recv().Type())
				if recv != nil && recv.Obj().Exported() && !implementsByName(recv, m.Name(), ifaces) {
					check(d.Name, "method", recv.Obj().Name()+"."+m.Name())
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type", s.Name.Name)
					case *ast.ValueSpec:
						if d.Tok == token.VAR {
							for _, id := range s.Names {
								check(id, "var", id.Name)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// derefNamed returns the named type t or *t names, or nil.
func derefNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// interfacesByMethod indexes, by method name, every non-generic named
// interface declared in the module or in a package it imports
// (transitively), plus error.
func interfacesByMethod(module []*Package) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return
		}
		n, ok := tn.Type().(*types.Named)
		if !ok || n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := n.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error"))
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			add(p.Scope().Lookup(name))
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range module {
		visit(pkg.Types)
	}
	return byName
}

// implementsByName reports whether recv or *recv implements an
// interface that has a method called name.
func implementsByName(recv *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	if recv.TypeParams().Len() > 0 {
		return len(ifaces[name]) > 0 // Implements is unspecified on generic types
	}
	for _, it := range ifaces[name] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}
