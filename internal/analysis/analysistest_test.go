package analysis

// The fixture harness: each analyzer has a txtar archive under testdata/
// holding a small package seeded with violations. Lines that should
// produce a diagnostic carry a trailing
//
//	// want `regexp`
//
// comment (several backtick-quoted patterns on one line expect several
// diagnostics on that line). The harness type-checks the fixture with
// the repolint driver's loader, runs one analyzer over every package,
// and requires an exact match: every diagnostic wanted, every want
// satisfied.

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"testing/fstest"
)

// fixtureFile is one file of a txtar archive.
type fixtureFile struct {
	name string
	data string
}

// parseTxtar splits a txtar archive into its files. Only the subset of
// the format the fixtures use is supported: "-- name --" separators with
// everything before the first separator ignored.
func parseTxtar(data string) []fixtureFile {
	var files []fixtureFile
	var cur *fixtureFile
	for _, line := range strings.SplitAfter(data, "\n") {
		trimmed := strings.TrimSuffix(line, "\n")
		if name, ok := txtarName(trimmed); ok {
			files = append(files, fixtureFile{name: name})
			cur = &files[len(files)-1]
			continue
		}
		if cur != nil {
			cur.data += line
		}
	}
	return files
}

func txtarName(line string) (string, bool) {
	if !strings.HasPrefix(line, "-- ") || !strings.HasSuffix(line, " --") {
		return "", false
	}
	name := strings.TrimSpace(line[3 : len(line)-3])
	return name, name != ""
}

// wantRE extracts the backtick-quoted patterns after a "want" marker.
var wantRE = regexp.MustCompile("want((?:\\s+`[^`]*`)+)")

// expectation is one "// want" pattern at a file:line.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

type lineKey struct {
	file string
	line int
}

// loadFixture type-checks the archive as a module: its .go files keep
// their archive paths, a go.mod declaring module fixture is supplied
// when the archive has none, and so a flat archive is the single
// package fixture while a/x.go, b/y.go lay out several packages. The
// wants are collected from every non-test file.
func loadFixture(t *testing.T, path string) ([]*Package, *token.FileSet, map[lineKey][]*expectation) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fsys := fstest.MapFS{"go.mod": {Data: []byte("module fixture\n")}}
	for _, ff := range parseTxtar(string(data)) {
		if strings.HasSuffix(ff.name, ".go") || ff.name == "go.mod" {
			fsys[ff.name] = &fstest.MapFile{Data: []byte(ff.data)}
		}
	}
	pkgs, fset, err := loadModule(fsys, "")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s holds no package", path)
	}

	wants := make(map[lineKey][]*expectation)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fname := fset.Position(f.Pos()).Filename
			for _, g := range f.Comments {
				for _, c := range g.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					key := lineKey{fname, fset.Position(c.Pos()).Line}
					for _, pat := range regexp.MustCompile("`[^`]*`").FindAllString(m[1], -1) {
						re, err := regexp.Compile(pat[1 : len(pat)-1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", fname, key.line, pat, err)
						}
						wants[key] = append(wants[key], &expectation{re: re})
					}
				}
			}
		}
	}
	return pkgs, fset, wants
}

// runFixture runs one analyzer over testdata/<name>.txtar and reports
// every mismatch between produced and expected diagnostics.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	pkgs, fset, wants := loadFixture(t, filepath.Join("testdata", a.Name+".txtar"))

	var unexpected []string
	report := func(d Diagnostic) {
		p := fset.Position(d.Pos)
		key := lineKey{p.Filename, p.Line}
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				return
			}
		}
		unexpected = append(unexpected, fmt.Sprintf("%s: unexpected diagnostic: %s", p, d.Message))
	}
	for _, pkg := range pkgs {
		pass := &Pass{
			Analyzer: a, Fset: fset, Files: pkg.Files, Pkg: pkg.Types,
			TypesInfo: pkg.TypesInfo, Report: report, Module: pkgs,
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
		}
	}

	for _, msg := range unexpected {
		t.Error(msg)
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.file, key.line, w.re.String())
			}
		}
	}
}

func TestDeterminismFixture(t *testing.T)   { runFixture(t, determinism) }
func TestResetCompleteFixture(t *testing.T) { runFixture(t, resetComplete) }
func TestHotpathFixture(t *testing.T)       { runFixture(t, hotpath) }
func TestRetainFixture(t *testing.T)        { runFixture(t, retain) }
func TestDirectivesFixture(t *testing.T)    { runFixture(t, directives) }
func TestUnusedExportFixture(t *testing.T)  { runFixture(t, unusedExport) }
