// Command repolint is the repository's multichecker: it type-checks
// every package of the module and runs the internal/analysis suite —
// directives, determinism, resetcomplete, hotpath, retain,
// unusedexport — that machine-checks the engine's contracts (see doc.go
// at the repository root for the invariant catalog). Findings print as
//
//	path/file.go:line:col: [analyzer] message
//
// and any finding makes the exit status 1, which is how CI gates PRs
// on the invariants. Run it from anywhere inside the module:
//
//	go run ./cmd/repolint ./...
//
// Package patterns other than ./... are matched as import-path
// suffixes, so `go run ./cmd/repolint internal/h2` checks one package.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	var (
		only = flag.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
		list = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	suite := analysis.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		names := make(map[string]bool)
		for _, n := range strings.Split(*only, ",") {
			names[strings.TrimSpace(n)] = true
		}
		var picked []*analysis.Analyzer
		for _, a := range suite {
			if names[a.Name] {
				picked = append(picked, a)
				delete(names, a.Name)
			}
		}
		for n := range names {
			fmt.Fprintf(os.Stderr, "repolint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
		suite = picked
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	pkgs, fset, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}

	type finding struct {
		pos       string
		file      string
		line, col int
		analyzer  string
		msg       string
	}
	var findings []finding
	for _, pkg := range pkgs {
		if !selected(pkg.Path, flag.Args()) {
			continue
		}
		for _, a := range suite {
			if !a.InScope(pkg.Path) {
				continue
			}
			a := a
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Module:    pkgs,
				Report: func(d analysis.Diagnostic) {
					p := fset.Position(d.Pos)
					file := p.Filename
					if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
						file = rel
					}
					findings = append(findings, finding{
						pos: p.String(), file: file, line: p.Line, col: p.Column,
						analyzer: a.Name, msg: d.Message,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "repolint: %s on %s: %v\n", a.Name, pkg.Path, err)
				os.Exit(2)
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.analyzer < b.analyzer
	})
	for _, f := range findings {
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.file, f.line, f.col, f.analyzer, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// selected reports whether the package matches the command-line
// patterns. No patterns and ./... mean everything; other patterns match
// as import-path suffixes (internal/h2 matches repro/internal/h2).
func selected(path string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
		if p == "..." || p == "" {
			return true
		}
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			if path == rest || strings.HasSuffix(path, "/"+rest) ||
				strings.Contains(path+"/", "/"+rest+"/") {
				return true
			}
			continue
		}
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}
