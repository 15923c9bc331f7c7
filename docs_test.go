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
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

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

// TestDocIdentifiers fails on a backticked reference in docFiles that the
// repo does not declare: a pkg.Name whose pkg is a repo package, a
// Type.Member whose Type is a repo type, a Test, Fuzz or Benchmark
// function, or an internal/ or cmd/ path. A lowercase
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

// designMaxLines bounds DESIGN.md, an index: each mechanism once, with the
// invariant it keeps, the test that holds it and the package whose doc
// comment carries the detail.
const designMaxLines = 600

// designInvariants are the §14 bullets DESIGN.md must keep.
var designInvariants = []string{"Determinism", "Validity", "Objectives", "Cost accounting", "Property invariants", "Cancellation"}

// designRef is a citation of a DESIGN.md section or of a numbered item in
// one: "DESIGN.md §13", "DESIGN §5.1".
var designRef = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)(?:\.(\d+))?`)

var (
	designHeading = regexp.MustCompile(`^## (\d+)\. `)
	designItem    = regexp.MustCompile(`^(\d+)\. `)
	designBullet  = regexp.MustCompile(`^- \*\*(.+?)\.?\*\*`)
)

// designSections returns DESIGN.md's numbered sections, each as its body's
// lines.
func designSections(t *testing.T) map[string][]string {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	secs := map[string][]string{}
	cur := ""
	for _, line := range strings.Split(string(b), "\n") {
		if m := designHeading.FindStringSubmatch(line); m != nil {
			cur = m[1]
			secs[cur] = nil
			continue
		}
		if strings.HasPrefix(line, "## ") {
			cur = ""
		}
		if cur != "" {
			secs[cur] = append(secs[cur], line)
		}
	}
	return secs
}

// TestDesignIndex fails when DESIGN.md grows past designMaxLines, when §14
// drops one of designInvariants, or when a §14 bullet names no Test, Fuzz or
// Benchmark function the repo declares.
func TestDesignIndex(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n > designMaxLines {
		t.Errorf("DESIGN.md is %d lines, more than %d: state each mechanism once and move detail to its package doc", n, designMaxLines)
	}
	ix := newDocIndex(t)
	var bullets []string
	for _, line := range designSections(t)["14"] {
		switch {
		case strings.HasPrefix(line, "- "):
			bullets = append(bullets, line)
		case strings.HasPrefix(line, "  ") && len(bullets) > 0:
			bullets[len(bullets)-1] += " " + strings.TrimSpace(line)
		}
	}
	kept := map[string]bool{}
	for _, bullet := range bullets {
		name := bullet
		if m := designBullet.FindStringSubmatch(bullet); m != nil {
			name = m[1]
		}
		kept[name] = true
		held := false
		for _, test := range docTest.FindAllString(bullet, -1) {
			held = held || ix.tests[test]
		}
		if !held {
			t.Errorf("DESIGN.md §14 %q names no test the repo declares", name)
		}
	}
	for _, name := range designInvariants {
		if !kept[name] {
			t.Errorf("DESIGN.md §14 lost its %q invariant", name)
		}
	}
}

// TestDesignSectionRefs fails on a citation of DESIGN.md, in the results
// files, the other documents or the Go sources, that names no section
// heading ("## N.") or numbered item of a section ("M." in section N) of
// DESIGN.md.
func TestDesignSectionRefs(t *testing.T) {
	exists := map[string]bool{}
	for sec, lines := range designSections(t) {
		exists[sec] = true
		for _, line := range lines {
			if m := designItem.FindStringSubmatch(line); m != nil {
				exists[sec+"."+m[1]] = true
			}
		}
	}
	files, err := filepath.Glob("results/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "EXPERIMENTS.md", "README.md", "ROADMAP.md")
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designRef.FindAllStringSubmatch(string(b), -1) {
			ref := m[1]
			if m[2] != "" {
				ref += "." + m[2]
			}
			if !exists[ref] {
				t.Errorf("%s: %q cites no section or numbered item of DESIGN.md", f, m[0])
			}
		}
	}
}
