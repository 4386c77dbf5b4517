// Command doccheck fails when an exported symbol lacks a doc comment. It is
// the `make check-docs` gate: the serving-critical packages
// (internal/compiled, internal/core) promise their invariants — endianness,
// allocation-free guarantees, format compatibility — in godoc, so an
// undocumented exported symbol is a CI failure, not a style nit.
//
// It also reads ARCHITECTURE.md and README.md from the directory it runs in
// (the repository root) and fails when either still names something the
// repository retired on purpose (retired.txt), when a README flag-table
// row documents a -flag that its command — the `cmd/<name>` the table
// follows — does not define, or when that command defines a flag its table
// has no row for; when a comment in any Go file under it cites a
// *.md file, by its path from the root, that does not exist; and when a
// heading of the recorded experiment output
// (internal/experiments/testdata/quick.golden) has no row in EXPERIMENTS.md.
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
	"go/scanner"
	"go/token"
	"io/fs"
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
// served), the second prediction interface, the benchmark gate tool and the
// benchmarks they kept (model.Predictor is one interface; ceilings are tests),
// the router's anti-entropy admin cache (/v1/fleet asks the shards), the
// exact CPS3 blob encoding (CPS5 is the one), serve.Handler's
// single-model serving mode with its own swap, reload and generation (a
// single model is a one-arm fleet), and the HMM and click-graph cluster
// models with the harness switches and benchmarks that ran them (they scored
// below every baseline; EXPERIMENTS.md keeps their numbers), the mixture's
// per-ε growth, its merge in Compile and the model decoders nothing called
// (the components are views of one tree), and the standalone ingest command
// with its own flag names and the mmap paging hints no benchmark measured
// (cmd/serve -role ingest runs the loop), the training-context list and the
// MLE KL only tests called (NGram's states are the contexts), and the shard
// router's test-only failure knobs (its breaker and backoff use constants),
// and the options no deployment set to a second value (ARCHITECTURE.md §10).
var retired = regexp.MustCompile(`\b(` + strings.Join(strings.Fields(retiredList), "|") + `)\b`)

var (
	// cmdHeading is the line that introduces a command's flag table.
	cmdHeading = regexp.MustCompile("^`cmd/(\\w+)`")
	// flagRow is a flag-table row; it captures the flag's name.
	flagRow = regexp.MustCompile("^\\| `-([\\w-]+)`")
	// flagDef is a flag definition in a command's source on the flag package
	// or on a *flag.FlagSet, flag.String("name", …) or fs.StringVar(&v,
	// "name", …); it captures the name.
	flagDef = regexp.MustCompile(`\b\w+\.(?:Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64)(?:Var|Func)?\((?:&[\w.]+, )?"([\w-]+)"`)
	// mdCite is a Markdown file a comment cites.
	mdCite = regexp.MustCompile(`[\w./-]+\.md\b`)
	// resultHeading is a heading of the experiment harness's output; it
	// captures the heading's text.
	resultHeading = regexp.MustCompile(`(?m)^== (.+) ==$`)
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
		var cmd string                       // the command whose table this is
		var flags map[string]bool            // those it defines
		rows := map[string]map[string]bool{} // per command, the flags its table documents
		for i, line := range strings.Split(string(prose), "\n") {
			if m := retired.FindString(line); m != "" {
				fmt.Printf("%s:%d: names %s, which no longer exists\n", name, i+1, m)
				bad++
			}
			if m := cmdHeading.FindStringSubmatch(line); m != nil {
				cmd, flags = m[1], cmdFlags(m[1])
			} else if m := flagRow.FindStringSubmatch(line); m != nil && cmd != "" {
				if !flags[m[1]] {
					fmt.Printf("%s:%d: documents -%s, which its command does not define\n", name, i+1, m[1])
					bad++
				}
				if rows[cmd] == nil {
					rows[cmd] = map[string]bool{}
				}
				rows[cmd][m[1]] = true
			}
		}
		for cmd, documented := range rows {
			for flag := range cmdFlags(cmd) {
				if !documented[flag] {
					fmt.Printf("%s: cmd/%s defines -%s, which its flag table has no row for\n", name, cmd, flag)
					bad++
				}
			}
		}
	}
	for _, m := range append(danglingCitations(), unrecordedResults()...) {
		fmt.Println(m)
		bad++
	}
	if bad > 0 {
		log.Fatalf("%d stale mentions in the prose (retired names, undefined flags, missing documents, unrecorded results)", bad)
	}
}

// unrecordedResults returns a report line for every heading of the recorded
// -quick harness output that no EXPERIMENTS.md table row covers. A row covers
// a heading when its first cell and the heading agree on their title up to
// " — ", e.g. "Fig. 8(a)".
func unrecordedResults() []string {
	const golden = "internal/experiments/testdata/quick.golden"
	out, err := os.ReadFile(golden)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		log.Fatal(err)
	}
	title := func(s string) string {
		t, _, _ := strings.Cut(s, " — ")
		return strings.TrimSpace(t)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if cell, ok := strings.CutPrefix(line, "| "); ok {
			cell, _, _ = strings.Cut(cell, "|")
			rows[title(cell)] = true
		}
	}
	var missing []string
	for _, m := range resultHeading.FindAllStringSubmatch(string(out), -1) {
		if !rows[title(m[1])] {
			missing = append(missing, fmt.Sprintf("EXPERIMENTS.md: no row for %s, a heading of %s", title(m[1]), golden))
		}
	}
	return missing
}

// danglingCitations returns a report line for every comment in a Go file
// under the working directory (dot-directories skipped) that cites a *.md
// file which does not exist there.
func danglingCitations() []string {
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
		for pos, tok, lit := s.Scan(); tok != token.EOF; pos, tok, lit = s.Scan() {
			if tok != token.COMMENT {
				continue
			}
			for _, doc := range mdCite.FindAllString(lit, -1) {
				if _, err := os.Stat(doc); err != nil {
					out = append(out, fmt.Sprintf("%s: cites %s, which does not exist", fset.Position(pos), doc))
				}
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return out
}

// cmdFlags returns the names of the flags the command cmd/<name> defines.
func cmdFlags(name string) map[string]bool {
	dir := filepath.Join("cmd", name)
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
