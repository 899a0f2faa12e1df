package lint

import (
	"fmt"
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

// corpusPaths assigns each corpus the package path it is loaded under.
// floateq only fires inside the delay-math packages, so its corpus
// masquerades as one of them.
var corpusPaths = map[string]string{
	"slotmath":    "tcsa/internal/lint/testdata/slotmath",
	"checkerr":    "tcsa/internal/lint/testdata/checkerr",
	"floateq":     "tcsa/internal/delaymodel",
	"copylock":    "tcsa/internal/lint/testdata/copylock",
	"exhaustenum": "tcsa/internal/lint/testdata/exhaustenum",
	"nopanic":     "tcsa/internal/lint/testdata/nopanic",
	"detmap":      "tcsa/internal/lint/testdata/detmap",
	"wallclock":   "tcsa/internal/lint/testdata/wallclock",
	"ctxflow":     "tcsa/internal/lint/testdata/ctxflow",
	"atomicmix":   "tcsa/internal/lint/testdata/atomicmix",
	"lockbal":     "tcsa/internal/lint/testdata/lockbal",
}

// moduleCorpora lays out, as a module tree, the corpus of an analyzer
// that judges a whole load: it runs from dir over pattern.
var moduleCorpora = map[string]struct{ dir, pattern string }{
	"testonly": {"testdata/testonly/ext", "onlymod/..."},
}

// TestAnalyzerCorpora checks every analyzer against its testdata corpus:
// each `// want "substring"` line must produce a matching finding, and no
// unmarked line may produce one.
func TestAnalyzerCorpora(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			var got []Diagnostic
			if mc, ok := moduleCorpora[a.Name]; ok {
				if testing.Short() {
					t.Skip("module corpora shell out to the go tool")
				}
				var err error
				if got, err = Run(mc.dir, []string{mc.pattern}, []*Analyzer{a}); err != nil {
					t.Fatalf("running corpus: %v", err)
				}
			} else {
				pkg, err := loadDir(dir, corpusPaths[a.Name])
				if err != nil {
					t.Fatalf("loading corpus: %v", err)
				}
				got = analyze(pkg, []*Analyzer{a}, ComputeFacts([]*Package{pkg}))
				sortDiagnostics(got)
			}
			wants := parseWants(t, dir)
			used := map[string]bool{}
			for _, d := range got {
				key := wantKey(t, d.Pos.Filename, d.Pos.Line)
				substr, ok := wants[key]
				if !ok {
					t.Errorf("unexpected finding: %s", d)
					continue
				}
				if !strings.Contains(d.Message, substr) {
					t.Errorf("finding at %s = %q, want substring %q", key, d.Message, substr)
				}
				used[key] = true
			}
			for key, substr := range wants {
				if !used[key] {
					t.Errorf("missing finding at %s (want %q)", key, substr)
				}
			}
		})
	}
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// wantKey identifies a source line by absolute path, so findings from
// loadDir (relative names) and Run (absolute ones) key alike.
func wantKey(t *testing.T, file string, line int) string {
	t.Helper()
	abs, err := filepath.Abs(file)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s:%d", abs, line)
}

// parseWants extracts `// want "..."` markers, from every Go file under
// dir, keyed by wantKey.
func parseWants(t *testing.T, dir string) map[string]string {
	t.Helper()
	wants := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants[wantKey(t, path, i+1)] = m[1]
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("corpus %s has no want markers", dir)
	}
	return wants
}

func TestByName(t *testing.T) {
	got, err := ByName("slotmath, nopanic")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "slotmath" || got[1].Name != "nopanic" {
		t.Errorf("ByName = %v", got)
	}
	if _, err := ByName("nosuchcheck"); err == nil {
		t.Error("unknown analyzer accepted")
	}
	if _, err := ByName(" , "); err == nil {
		t.Error("empty selection accepted")
	}
}

// TestIgnoreDirectives exercises the suppression scanner directly: same
// line and line-above placement, unrelated analyzers, and the malformed
// (justification-free) form.
func TestIgnoreDirectives(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //lint:ignore demo same-line placement
	//lint:ignore demo,other line-above placement
	_ = 2
	//lint:ignore demo
	_ = 3
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	set, malformed := collectIgnores(fset, []*ast.File{file})
	if len(malformed) != 1 || !strings.Contains(malformed[0].Message, "malformed") {
		t.Fatalf("malformed = %v", malformed)
	}
	cases := []struct {
		line     int
		analyzer string
		covered  bool
	}{
		{4, "demo", true},
		{6, "demo", true},
		{6, "other", true},
		{6, "slotmath", false},
		{8, "demo", false}, // malformed directive suppresses nothing
	}
	for _, c := range cases {
		d := Diagnostic{Analyzer: c.analyzer, Pos: token.Position{Filename: "p.go", Line: c.line}}
		if got := set.covers(d); got != c.covered {
			t.Errorf("covers(line %d, %s) = %v, want %v", c.line, c.analyzer, got, c.covered)
		}
	}
}

// TestTestOnlySubsets: a load that leaves out some importer of a package
// judges none of its names, so runs over part of the corpus report only
// what the import graph alone proves: the package nothing imports.
func TestTestOnlySubsets(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	for _, tc := range []struct {
		dir, pattern string
		want         int
	}{
		{"testdata/testonly", "./...", 1}, // ext, which calls lib.ExtOnly, is not loaded
		{"testdata/testonly", "./internal/lib", 0},
		{"testdata/testonly/ext", "onlymod/internal/...", 1},
	} {
		diags, err := Run(tc.dir, []string{tc.pattern}, []*Analyzer{TestOnly})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != tc.want {
			t.Errorf("%s %s: %d findings, want %d:\n%s", tc.dir, tc.pattern, len(diags), tc.want, diagLines(diags))
			continue
		}
		for _, d := range diags {
			if !strings.Contains(d.Message, "package onlymod/internal/orphan") {
				t.Errorf("%s %s: unexpected finding %s", tc.dir, tc.pattern, d)
			}
		}
	}
}

// loadDir loads a single directory of Go files (an analyzer test corpus)
// as though it were package asPath of module "tcsa". Export data for its
// imports is fetched through the regular go list path, so corpora may
// import both the standard library and this module's packages.
func loadDir(dir, asPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		root, err := moduleRoot(dir)
		if err != nil {
			return nil, err
		}
		var patterns []string
		for imp := range importSet {
			patterns = append(patterns, imp)
		}
		listed, err := goList(root, patterns, "-deps", "-export")
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return check(fset, newExportImporter(fset, exports), asPath, "tcsa", files)
}
