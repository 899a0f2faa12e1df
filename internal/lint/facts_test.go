package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseTestPackage type-checks a single in-memory source file as its own
// package, resolving stdlib imports through the same export-data path the
// loader uses.
func parseTestPackage(t *testing.T, name, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing %s: %v", name, err)
	}
	exports := map[string]string{}
	if len(f.Imports) > 0 {
		var patterns []string
		for _, imp := range f.Imports {
			patterns = append(patterns, strings.Trim(imp.Path.Value, `"`))
		}
		listed, err := goList(".", patterns, "-deps", "-export")
		if err != nil {
			t.Fatalf("listing imports of %s: %v", name, err)
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	pkg, err := check(fset, newExportImporter(fset, exports), name, "", []*ast.File{f})
	if err != nil {
		t.Fatalf("type-checking %s: %v", name, err)
	}
	return pkg
}

// TestFactsCrossPackageChain loads the self-contained testdata module
// factsmod (three packages: entry -> mid -> leaf) and asserts the
// wallclock analyzer blames the annotated entry point for a time.Now
// buried two package boundaries away — with the full witness call chain
// in the message. This is the facts engine's core contract: summaries
// propagate across packages, not just within a file.
func TestFactsCrossPackageChain(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	diags, err := Run("testdata/factsmod", []string{"./..."}, []*Analyzer{WallClock})
	if err != nil {
		t.Fatalf("running wallclock over factsmod: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1:\n%s", len(diags), diagLines(diags))
	}
	d := diags[0]
	if !strings.HasSuffix(d.Pos.Filename, "entry/entry.go") {
		t.Errorf("diagnostic fired at %s, want the entry package", d.Pos.Filename)
	}
	if !strings.Contains(d.Message, "entry point Run") {
		t.Errorf("diagnostic does not blame Run: %s", d.Message)
	}
	for _, hop := range []string{"entry.Run", "entry.prepare", "mid.Tick", "leaf.Stamp", "time.Now()"} {
		if !strings.Contains(d.Message, hop) {
			t.Errorf("witness chain missing hop %q: %s", hop, d.Message)
		}
	}
}

func diagLines(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	return sb.String()
}

// TestDeterministicDirective checks annotation detection and the module
// bookkeeping of ComputeFacts on a directly constructed package.
func TestDeterministicDirective(t *testing.T) {
	pkg := parseTestPackage(t, "det", `
// Package det does deterministic things.
//
//lint:deterministic test annotation
package det

func F() int { return 1 }
`)
	facts := ComputeFacts([]*Package{pkg})
	if !facts.Deterministic("det") {
		t.Error("//lint:deterministic annotation not detected")
	}
	if facts.Deterministic("other") {
		t.Error("unannotated package reported deterministic")
	}
}

// TestFactsDirectAndPropagated exercises the collector and propagation
// inside a single package: direct facts, one-hop inheritance, and the
// deterministic witness chain.
func TestFactsDirectAndPropagated(t *testing.T) {
	pkg := parseTestPackage(t, "p", `
package p

import "time"

func direct() time.Time { return time.Now() }

func oneHop() time.Time { return direct() }

func twoHops() time.Time { return oneHop() }

func clean(a int) int { return a * 2 }
`)
	facts := ComputeFacts([]*Package{pkg})
	for _, name := range []string{"p.direct", "p.oneHop", "p.twoHops"} {
		steps, what, _, ok := facts.chain(name, factWallClock)
		if !ok {
			t.Errorf("%s: wallclock fact not propagated", name)
			continue
		}
		if what != "time.Now()" {
			t.Errorf("%s: chain terminates at %q, want time.Now()", name, what)
		}
		if len(steps) == 0 {
			t.Errorf("%s: empty witness chain", name)
		}
	}
	if steps, _, _, _ := facts.chain("p.twoHops", factWallClock); len(steps) != 3 {
		t.Errorf("p.twoHops chain length = %d (%v), want 3", len(steps), steps)
	}
	if _, _, _, ok := facts.chain("p.clean", factWallClock); ok {
		t.Error("p.clean inherited a wallclock fact from nowhere")
	}
}

// TestFactsBlocksGuarded checks that channel ops inside a multi-clause
// select do not produce the blocks fact, while naked ones do.
func TestFactsBlocksGuarded(t *testing.T) {
	pkg := parseTestPackage(t, "b", `
package b

func naked(ch chan int) int { return <-ch }

func guarded(ch, done chan int) int {
	select {
	case v := <-ch:
		return v
	case <-done:
		return 0
	}
}

func singleCase(ch chan int) int {
	select {
	case v := <-ch:
		return v
	}
}
`)
	facts := ComputeFacts([]*Package{pkg})
	if _, _, _, ok := facts.chain("b.naked", factBlocks); !ok {
		t.Error("naked receive did not produce the blocks fact")
	}
	if _, _, _, ok := facts.chain("b.guarded", factBlocks); ok {
		t.Error("multi-clause select receive wrongly produced the blocks fact")
	}
	if _, _, _, ok := facts.chain("b.singleCase", factBlocks); !ok {
		t.Error("single-case select should still count as blocking")
	}
}
