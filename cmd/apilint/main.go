// Command apilint enforces the serving-API surface contract introduced with
// the core.Recommender redesign: recommendation entry points live in
// internal/core (the Recommender interface and its package-level shims) and
// internal/cache (the caching wrappers) and nowhere else. Any new exported
// `Recommend*` function or method elsewhere re-grows the method sprawl the
// redesign collapsed, so CI fails on it (`make check-api`).
//
// Usage:
//
//	apilint [dir]
//
// dir defaults to ".". Exit status 1 lists every violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// allowedDirs may declare exported Recommend* identifiers: the interface
// seam itself and the result cache's wrappers around it.
var allowedDirs = map[string]bool{
	filepath.Join("internal", "core"):  true,
	filepath.Join("internal", "cache"): true,
}

// allowedNames may appear anywhere: implementations of the
// core.Recommender interface's own method set.
var allowedNames = map[string]bool{
	"RecommendBatchIDs": true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var violations []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			// Like the go tool's ./..., skip testdata and anything starting
			// with "_" or "." (.git, and .bench_build with its exported
			// parent checkouts) — but not the root itself when it is ".".
			if name == "testdata" || strings.HasPrefix(name, "_") || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		if allowedDirs[filepath.Dir(rel)] {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if !strings.HasPrefix(name, "Recommend") || !fn.Name.IsExported() {
				continue
			}
			if allowedNames[name] {
				continue
			}
			pos := fset.Position(fn.Pos())
			violations = append(violations,
				fmt.Sprintf("%s:%d: exported %s %q outside internal/core and internal/cache — express it over core.Recommender instead",
					pos.Filename, pos.Line, declKind(fn), name))
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "apilint:", err)
		os.Exit(2)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "apilint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
}

func declKind(fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		return "method"
	}
	return "function"
}
