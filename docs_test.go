package ceal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose backticked references must name
// something the repo declares.
var docFiles = []string{"DESIGN.md", "README.md"}

// docForeign are the lowercase qualifiers the documents may use that are
// not repo packages: standard-library and external names.
var docForeign = map[string]bool{
	"context": true, "http": true, "json": true, "math": true, "reflect": true,
	"sort": true, "sync": true, "time": true, "xgboost": true,
}

// docIndex is what the repo declares, read from its Go sources.
type docIndex struct {
	pkgs    map[string]map[string]bool // package name → its top-level names
	members map[string]map[string]bool // type name → its fields and methods
	embeds  map[string][]string        // type name → its embedded types' names
	tests   map[string]bool            // Test, Fuzz and Benchmark functions
}

func newDocIndex(t *testing.T) *docIndex {
	t.Helper()
	ix := &docIndex{
		pkgs:    map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		embeds:  map[string][]string{},
		tests:   map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.add(f, strings.HasSuffix(path, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// add records f's top-level declarations.
func (ix *docIndex) add(f *ast.File, test bool) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if ix.pkgs[pkg] == nil {
		ix.pkgs[pkg] = map[string]bool{}
	}
	decls := ix.pkgs[pkg]
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
				continue
			}
			decls[d.Name.Name] = true
			if test && docTest.MatchString(d.Name.Name) {
				ix.tests[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						decls[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					decls[typ] = true
					member(typ, "") // a type with no members is still a type
					var fields *ast.FieldList
					switch st := s.Type.(type) {
					case *ast.StructType:
						fields = st.Fields
					case *ast.InterfaceType:
						fields = st.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 {
							ix.embeds[typ] = append(ix.embeds[typ], typeName(fl.Type))
						}
						for _, n := range fl.Names {
							member(typ, n.Name)
						}
					}
				}
			}
		}
	}
}

// typeName is the name of the named type e denotes, with any pointer,
// package qualifier or type arguments stripped.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// hasMember reports whether typ, or a type it embeds, declares name.
func (ix *docIndex) hasMember(typ, name string) bool {
	if ix.members[typ][name] {
		return true
	}
	for _, e := range ix.embeds[typ] {
		if e != typ && ix.hasMember(e, name) {
			return true
		}
	}
	return false
}

// check returns why the dotted reference chain names nothing the repo
// declares, or "" if it does. After a type's member the chain is not
// followed further: that needs the member's type.
func (ix *docIndex) check(chain []string) string {
	q, rest := chain[0], chain[1:]
	typ := q
	if decls, ok := ix.pkgs[q]; ok {
		if !decls[rest[0]] {
			return "package " + q + " declares no " + rest[0]
		}
		if len(rest) == 1 || ix.members[rest[0]] == nil {
			return ""
		}
		typ, rest = rest[0], rest[1:]
	} else if ix.members[q] == nil {
		if docForeign[q] {
			return ""
		}
		return q + " is neither a repo package nor a repo type"
	}
	if !ix.hasMember(typ, rest[0]) {
		return "type " + typ + " has no field or method " + rest[0]
	}
	return ""
}

var (
	docFence    = regexp.MustCompile("(?s)```.*?```")
	docSpan     = regexp.MustCompile("`([^`\n]+)`")
	docChain    = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+(\(.*\))?$`)
	docTest     = regexp.MustCompile(`\b(Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	docPath     = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:internal|cmd)/[\w./-]*\w)`)
	docFileName = regexp.MustCompile(`\.(go|json|jsonl|md|txt|yml)$`)
	docMetric   = regexp.MustCompile(`^[a-z0-9_.]+$`)
)

// TestDocIdentifiers fails on a backticked reference in DESIGN.md or
// README.md that the repo does not declare: a pkg.Name whose pkg is a
// repo package, a Type.Member whose Type is a repo type, a Test, Fuzz or
// Benchmark function, or an internal/ or cmd/ path. A lowercase
// qualifier that is neither must be a listed standard-library or
// external name, so a reference to a deleted package fails. Ledger metric
// names (lowercase, with an underscore or three or more parts) and bare
// file names are not Go references and are skipped; fenced code blocks
// are not read.
func TestDocIdentifiers(t *testing.T) {
	ix := newDocIndex(t)
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := docFence.ReplaceAllString(string(b), "")
		for _, m := range docSpan.FindAllStringSubmatch(text, -1) {
			span := m[1]
			for _, name := range docTest.FindAllString(span, -1) {
				if !ix.tests[name] {
					t.Errorf("%s: `%s`: no test function %s", doc, span, name)
				}
			}
			for _, p := range docPath.FindAllStringSubmatch(span, -1) {
				// A package path may be followed by a declared name:
				// internal/drift.Env.
				path, why := p[1], ""
				dir, base := filepath.Split(path)
				if pkg, name, ok := strings.Cut(base, "."); ok && name[0] >= 'A' && name[0] <= 'Z' {
					path = dir + pkg
					why = ix.check(append([]string{pkg}, strings.Split(name, ".")...))
				}
				if _, err := os.Stat(path); err != nil {
					why = "no path " + path
				}
				if why != "" {
					t.Errorf("%s: `%s`: %s", doc, span, why)
				}
			}
			if !docChain.MatchString(span) || docFileName.MatchString(span) {
				continue
			}
			ref, _, _ := strings.Cut(span, "(")
			chain := strings.Split(ref, ".")
			if docMetric.MatchString(ref) && (strings.Contains(ref, "_") || len(chain) >= 3) {
				continue
			}
			if why := ix.check(chain); why != "" {
				t.Errorf("%s: `%s`: %s", doc, span, why)
			}
		}
	}
}
