// Command airvet runs this repository's static-analysis suite: twelve
// type-aware analyzers enforcing the structural invariants behind the
// paper's validity theorems — six intraprocedural checks (slotmath,
// checkerr, floateq, copylock, exhaustenum, nopanic), five built on the
// cross-package facts engine (detmap, wallclock, ctxflow, atomicmix,
// lockbal) and testonly, which flags internal/ code only tests reach. It
// is part of the scripts/check.sh gate and must exit 0 on the repo at all
// times — a site that must break a rule carries a justified
// //lint:ignore instead; the gate runs it from bench/ over `tcsa/...`,
// which loads both modules. See docs/airvet.md.
//
// Usage:
//
//	airvet [-list] [-only analyzer,...] [-json] [packages]
//
// Packages default to ./... resolved from the current directory. File
// names in -json output are relative to the outermost enclosing module's
// root, so a run from bench/ and one from the repository root name files
// alike. -json emits machine-readable findings for the CI artifact. Exit
// status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tcsa/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("airvet", flag.ContinueOnError)
	fs.SetOutput(errw)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: airvet [-list] [-only analyzer,...] [-json] [packages]")
		fs.PrintDefaults()
		fmt.Fprintln(errw, "\nanalyzers:")
		for _, a := range lint.All() {
			fmt.Fprintf(errw, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := lint.All()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(*only)
		if err != nil {
			fmt.Fprintln(errw, "airvet:", err)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintln(errw, "airvet:", err)
		return 2
	}
	if *asJSON {
		root, err := lint.RootDir(".")
		if err != nil {
			fmt.Fprintln(errw, "airvet:", err)
			return 2
		}
		report := []jsonDiagnostic{}
		for _, d := range diags {
			file := d.Pos.Filename
			if rel, err := filepath.Rel(root, file); err == nil {
				file = rel
			}
			report = append(report, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     filepath.ToSlash(file),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(errw, "airvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(errw, "airvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
