package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// A Package is one type-checked package of the module under analysis.
type Package struct {
	Path      string // import path, e.g. repro/internal/h2
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// TestInfos hold what type-checking the package's _test.go files
	// recorded: the in-package test variant and the external _test
	// package, each present only when it has files. They exist for the
	// module-wide unusedexport check, which counts a use in another
	// package's test as a reader.
	TestInfos []*types.Info
}

// LoadModule parses and type-checks every package of the Go module
// rooted at root, in dependency order, and returns them sorted by
// import path. Standard-library dependencies are type-checked from
// source (the repository is stdlib-only, so no module cache or export
// data is needed).
func LoadModule(root string) ([]*Package, *token.FileSet, error) {
	return loadModule(os.DirFS(root), root)
}

// loadModule is LoadModule over any file system; positions name files
// as root joined with their slash path in fsys.
func loadModule(fsys fs.FS, root string) ([]*Package, *token.FileSet, error) {
	modPath, err := modulePath(fsys)
	if err != nil {
		return nil, nil, err
	}

	// The source importer consults go/build to locate stdlib packages;
	// with cgo off it selects the pure-Go file sets, which is what a
	// type-check (as opposed to a build) wants.
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	dirs, err := moduleDirs(fsys)
	if err != nil {
		return nil, nil, err
	}

	type rawPkg struct {
		path         string
		files        []*ast.File
		tests, xtest []*ast.File // in-package and external _test.go files
		imports      []string
	}
	raws := make(map[string]*rawPkg)
	for _, dir := range dirs {
		path := modPath
		if dir != "." {
			path = modPath + "/" + dir
		}
		entries, err := fs.ReadDir(fsys, dir)
		if err != nil {
			return nil, nil, err
		}
		rp := &rawPkg{path: path}
		importSet := make(map[string]bool)
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			src, err := fs.ReadFile(fsys, pathpkg.Join(dir, name))
			if err != nil {
				return nil, nil, err
			}
			f, err := parser.ParseFile(fset, filepath.Join(root, filepath.FromSlash(dir), name), src, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				rp.files = append(rp.files, f)
				for _, imp := range f.Imports {
					p, err := strconv.Unquote(imp.Path.Value)
					if err == nil && (p == modPath || strings.HasPrefix(p, modPath+"/")) {
						importSet[p] = true
					}
				}
			case strings.HasSuffix(f.Name.Name, "_test"):
				rp.xtest = append(rp.xtest, f)
			default:
				rp.tests = append(rp.tests, f)
			}
		}
		if len(rp.files) == 0 {
			continue
		}
		for p := range importSet {
			rp.imports = append(rp.imports, p)
		}
		sort.Strings(rp.imports)
		raws[path] = rp
	}

	// Topological order over intra-module imports so every dependency
	// is type-checked before its importers.
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, dep := range raws[path].imports {
			if _, ok := raws[dep]; !ok {
				return fmt.Errorf("%s imports %s, which has no source in the module", path, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	var paths []string
	for p := range raws {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, nil, err
		}
	}

	imp := &moduleImporter{
		std:    importer.ForCompiler(fset, "source", nil),
		module: make(map[string]*types.Package),
	}
	var pkgs []*Package
	for _, path := range order {
		rp := raws[path]
		info := newTypesInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, rp.files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		imp.module[path] = tpkg
		pkgs = append(pkgs, &Package{Path: path, Files: rp.files, Types: tpkg, TypesInfo: info})
	}

	// Test files are checked only for what they use, against the
	// non-test packages above, so type errors are ignored: an external
	// test that reaches its package through another import, or names
	// an export_test.go helper, needs the recompiled package graph the
	// go tool builds, which a use scan does not.
	checkTests := func(path string, files []*ast.File) *types.Info {
		info := newTypesInfo()
		conf := types.Config{Importer: imp, Error: func(error) {}}
		conf.Check(path, fset, files, info)
		return info
	}
	for _, pkg := range pkgs {
		rp := raws[pkg.Path]
		if len(rp.tests) > 0 {
			pkg.TestInfos = append(pkg.TestInfos, checkTests(pkg.Path, append(slices.Clip(rp.files), rp.tests...)))
		}
		if len(rp.xtest) > 0 {
			pkg.TestInfos = append(pkg.TestInfos, checkTests(pkg.Path+"_test", rp.xtest))
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, fset, nil
}

// moduleDirs returns every directory of fsys that may hold package
// source, skipping VCS metadata, testdata and hidden/underscore trees.
func moduleDirs(fsys fs.FS) ([]string, error) {
	var dirs []string
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return fs.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// modulePath extracts the module path from fsys's go.mod.
func modulePath(fsys fs.FS) (string, error) {
	data, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("go.mod: no module directive")
}

// newTypesInfo allocates a fully populated types.Info.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// moduleImporter serves module-internal packages from the already
// type-checked set and everything else from the stdlib source importer.
type moduleImporter struct {
	std    types.Importer
	module map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	if from, ok := m.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return m.std.Import(path)
}
