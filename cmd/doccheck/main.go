// Command doccheck fails when an exported symbol lacks a doc comment. It is
// the `make check-docs` gate: the serving-critical packages
// (internal/compiled, internal/core) promise their invariants — endianness,
// allocation-free guarantees, format compatibility — in godoc, so an
// undocumented exported symbol is a CI failure, not a style nit.
//
// It also reads ARCHITECTURE.md and README.md from the directory it runs in
// (the repository root) and fails when either still names something the
// repository retired on purpose (retired.txt), or when a README flag-table
// row documents a -flag that its command — the `cmd/<name>` the table
// follows — does not define.
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
	_ "embed"
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

//go:embed retired.txt
var retiredList string

// retired matches, as a whole word, every name in retired.txt: what the
// repository retired on purpose — PR 28's per-package request parsers, query
// decoders and envelope encoders (internal/jsonspan owns the grammar now) and
// PR 29's per-handler admin endpoints, legacy-path redirects, constructor
// shims and second GET latency window (internal/obs owns the admin surface),
// the model-family container and second-stage reranker (one model family is
// served), and the second prediction interface with the benchmarks that gated
// it (model.Predictor is the one interface; the blob-size ceiling is a test).
var retired = regexp.MustCompile(`\b(` + strings.Join(strings.Fields(retiredList), "|") + `)\b`)

var (
	// cmdHeading is the line that introduces a command's flag table.
	cmdHeading = regexp.MustCompile("^`cmd/(\\w+)`")
	// flagRow is a flag-table row; it captures the flag's name.
	flagRow = regexp.MustCompile("^\\| `-([\\w-]+)`")
	// flagDef is a flag definition in a command's source, flag.String("name",
	// …) or flag.StringVar(&v, "name", …); it captures the name.
	flagDef = regexp.MustCompile(`flag\.\w+\((?:&[\w.]+, )?"([\w-]+)"`)
)

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
		var flags map[string]bool // those of the command whose table this is
		for i, line := range strings.Split(string(prose), "\n") {
			if m := retired.FindString(line); m != "" {
				fmt.Printf("%s:%d: names %s, which no longer exists\n", name, i+1, m)
				bad++
			}
			if m := cmdHeading.FindStringSubmatch(line); m != nil {
				flags = cmdFlags(filepath.Join("cmd", m[1]))
			} else if m := flagRow.FindStringSubmatch(line); m != nil && flags != nil && !flags[m[1]] {
				fmt.Printf("%s:%d: documents -%s, which its command does not define\n", name, i+1, m[1])
				bad++
			}
		}
	}
	if bad > 0 {
		log.Fatalf("%d stale mentions in the prose (retired names, undefined flags)", bad)
	}
}

// cmdFlags returns the names of the flags the command in dir defines.
func cmdFlags(dir string) map[string]bool {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		log.Fatalf("no Go command in %s", dir)
	}
	flags := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range flagDef.FindAllSubmatch(src, -1) {
			flags[string(m[1])] = true
		}
	}
	return flags
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
