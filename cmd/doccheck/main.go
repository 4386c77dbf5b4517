// Command doccheck fails when an exported symbol lacks a doc comment. It is
// the `make check-docs` gate: the serving-critical packages
// (internal/compiled, internal/core) promise their invariants — endianness,
// allocation-free guarantees, format compatibility — in godoc, so an
// undocumented exported symbol is a CI failure, not a style nit.
//
// It also fails when ARCHITECTURE.md or README.md, read from the directory it
// runs in, still names a function the repository retired on purpose: a
// walkthrough that sends the reader to a parser that no longer exists is
// worse than none.
//
// Usage:
//
//	doccheck ./internal/compiled ./internal/core
//
// For each package directory it parses every non-test file and requires a
// doc comment on: the package clause (in at least one file), every exported
// top-level func, every exported method on an exported type, and every
// exported type/const/var spec (a doc comment on the enclosing group
// covers its members, matching godoc's rendering).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// retired matches the functions deleted when internal/jsonspan became the one
// owner of the request grammar (CHANGES.md, PR 28): the per-package body
// parsers, query decoders and envelope encoders it replaced.
var retired = regexp.MustCompile(`\b(parseBatchBody|parseItems|parseItem|parseContext|skipContextString|isHex|` +
	`splitRequests|hashJSONContext|hashJSONStringInto|hashRawQueryContext|hashStringContext|appendQueryUnescaped|` +
	`UnescapeByte|appendErrorMember|appendReadAll|wantsNDJSONStream|AppendJSONString)\b`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("doccheck: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: doccheck <package dir>...")
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		missing, err := checkDir(dir)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range missing {
			fmt.Println(m)
		}
		bad += len(missing)
	}
	if bad > 0 {
		log.Fatalf("%d exported symbols lack doc comments", bad)
	}
	for _, name := range []string{"ARCHITECTURE.md", "README.md"} {
		prose, err := os.ReadFile(name)
		if err != nil {
			log.Fatal(err)
		}
		for i, line := range strings.Split(string(prose), "\n") {
			if m := retired.FindString(line); m != "" {
				fmt.Printf("%s:%d: names %s, which no longer exists\n", name, i+1, m)
				bad++
			}
		}
	}
	if bad > 0 {
		log.Fatalf("%d mentions of retired functions in the prose", bad)
	}
}

// checkDir parses one package directory and returns a report line for every
// undocumented exported symbol.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %v", dir, err)
	}
	var missing []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s has no doc comment", p.Filename, p.Line, what))
	}
	for _, pkg := range pkgs {
		pkgDocumented := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				pkgDocumented = true
			}
		}
		if !pkgDocumented {
			missing = append(missing, fmt.Sprintf("%s: package %s has no package doc comment", dir, pkg.Name))
		}
		// Exported types, collected first so methods on unexported types
		// (unreachable through the API) are skipped.
		exportedTypes := map[string]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						exportedTypes[ts.Name.Name] = true
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if recv := receiverType(d); recv != "" {
						if exportedTypes[recv] {
							report(d.Pos(), fmt.Sprintf("method %s.%s", recv, d.Name.Name))
						}
						continue
					}
					report(d.Pos(), "func "+d.Name.Name)
				case *ast.GenDecl:
					if d.Doc != nil {
						continue // group doc covers the members
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type "+s.Name.Name)
							}
						case *ast.ValueSpec:
							if s.Doc != nil || s.Comment != nil {
								continue
							}
							for _, name := range s.Names {
								if name.IsExported() {
									report(name.Pos(), fmt.Sprintf("%s %s", strings.ToLower(d.Tok.String()), name.Name))
								}
							}
						}
					}
				}
			}
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no Go package in %s", filepath.Clean(dir))
	}
	return missing, nil
}

// receiverType resolves a method's receiver type name, or "" for plain
// functions.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
