// Package lint is a small, stdlib-only static-analysis framework plus the
// repo-specific analyzer suite behind cmd/airvet. It exists because the
// paper's validity guarantees (Theorems 3.1-3.3) are only as strong as the
// structural invariants of the code that computes them: slot arithmetic
// must go through the core accessors, constructor errors must be handled,
// delay math must not compare floats for equality, and the concurrent
// netcast/opt paths must not copy their locks.
//
// The framework deliberately depends on nothing outside the standard
// library (go/ast, go/parser, go/token, go/types): package loading shells
// out to the go tool for metadata and export data, so go.mod stays
// dependency-free.
//
// # Suppression
//
// A finding can be silenced with a directive comment on the flagged line
// or the line directly above it:
//
//	//lint:ignore slotmath tie detection needs the raw cycle index here
//
// The first word after "ignore" is a comma-separated list of analyzer
// names (or "all"); the rest is a mandatory justification. A directive
// with no justification is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at one source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Analyzer is a single named check over one type-checked package.
type Analyzer struct {
	// Name is the identifier used by -only flags and //lint:ignore.
	Name string
	// Doc is a one-line description shown by airvet -list.
	Doc string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Fset *token.FileSet
	// Files are the parsed non-test sources of the package.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's expression facts.
	Info *types.Info
	// Module is the module path ("tcsa"); analyzers use it to distinguish
	// module-local declarations from imported ones.
	Module string
	// Facts is the interprocedural facts engine computed once over the
	// whole loaded package set (see facts.go); nil only in direct unit
	// tests of analyzers that never consult it.
	Facts *Facts

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the complete airvet analyzer suite in stable order: the
// six intraprocedural checks, the five facts-engine analyzers
// (determinism, context-flow and lock-safety) and testonly, which reads
// the references and import graph of the whole load.
func All() []*Analyzer {
	return []*Analyzer{
		SlotMath, CheckErr, FloatEq, CopyLock, ExhaustEnum, NoPanic,
		DetMap, WallClock, CtxFlow, AtomicMix, LockBal, TestOnly,
	}
}

// ByName resolves a comma-separated analyzer subset against All.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no analyzers selected from %q", names)
	}
	return out, nil
}

// analyze runs the analyzers over one loaded package and applies the
// //lint:ignore directives found in its files. facts carries the
// cross-package summaries computed over the whole load.
func analyze(pkg *Package, analyzers []*Analyzer, facts *Facts) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Module:   pkg.Module,
			Facts:    facts,
			analyzer: a.Name,
			diags:    &diags,
		}
		a.Run(pass)
	}
	sup, malformed := collectIgnores(pkg.Fset, pkg.Files)
	diags = append(diags, malformed...)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.covers(d) {
			kept = append(kept, d)
		}
	}
	return kept
}

// ignoreRange is the line span one //lint:ignore directive suppresses.
type ignoreRange struct {
	from, to int
	names    []string
}

// ignoreSet indexes //lint:ignore directive spans by file.
type ignoreSet map[string][]ignoreRange

func (s ignoreSet) covers(d Diagnostic) bool {
	for _, r := range s[d.Pos.Filename] {
		if d.Pos.Line < r.from || d.Pos.Line > r.to {
			continue
		}
		for _, name := range r.names {
			if name == "all" || name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// collectIgnores scans comments for lint:ignore directives. A directive
// suppresses matching findings on its own line and the line below it —
// and, when that next (or same) line starts a statement or declaration,
// anywhere inside that whole statement, so a directive above a
// multi-line call or literal covers every line of it. Malformed
// directives (missing analyzer list or justification) are reported as
// findings of the pseudo-analyzer "lint".
func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []Diagnostic) {
	spans := stmtSpans(fset, files)
	set := ignoreSet{}
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzers> <justification>\"",
					})
					continue
				}
				r := ignoreRange{from: pos.Line, to: pos.Line + 1, names: strings.Split(fields[0], ",")}
				// Extend over the statement starting on the directive's
				// line (trailing placement) or the line below it
				// (line-above placement).
				for _, start := range []int{pos.Line, pos.Line + 1} {
					if end, ok := spans[pos.Filename][start]; ok && end > r.to {
						r.to = end
					}
				}
				set[pos.Filename] = append(set[pos.Filename], r)
			}
		}
	}
	return set, malformed
}

// stmtSpans maps, per file, a statement's (or non-function declaration's)
// starting line to the last line of the longest statement starting there.
// Function declarations are excluded so a directive above a func does not
// blanket its entire body.
func stmtSpans(fset *token.FileSet, files []*ast.File) map[string]map[int]int {
	spans := map[string]map[int]int{}
	record := func(n ast.Node) {
		start := fset.Position(n.Pos())
		end := fset.Position(n.End())
		byLine := spans[start.Filename]
		if byLine == nil {
			byLine = map[int]int{}
			spans[start.Filename] = byLine
		}
		if end.Line > byLine[start.Line] {
			byLine[start.Line] = end.Line
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case ast.Stmt:
				record(n)
			case *ast.GenDecl:
				record(n)
			case *ast.Field:
				record(n)
			case *ast.FuncDecl:
				// Do not record: descend for the body's statements.
				_ = n
			}
			return true
		})
	}
	return spans
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
