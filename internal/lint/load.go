package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked target package.
type Package struct {
	Path   string
	Module string
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Run loads the packages matching patterns (resolved by the go tool
// relative to dir), type-checks their non-test sources and applies the
// analyzers. Findings are returned sorted; a non-nil error means the
// analysis itself could not run (broken code, missing export data), not
// that findings exist.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := load(dir, patterns)
	if err != nil {
		return nil, err
	}
	facts := ComputeFacts(pkgs)
	if facts.importers, err = listImporters(dir); err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analyze(pkg, analyzers, facts)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// load shells out to the go tool for package metadata plus compiled export
// data of every dependency, then parses and type-checks each non-dependency
// match from source.
func load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns, "-deps", "-export")
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err))
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: %s uses cgo, which the loader does not support", p.ImportPath)
		}
		pkg, err := typecheck(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list -e -json` with the extra flags and decodes the
// package stream.
func goList(dir string, patterns []string, flags ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-json"}, flags...)
	args = append(append(args, "--"), patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("lint: starting go list: %w", err)
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(out)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	return pkgs, nil
}

// newExportImporter returns a types.Importer that reads gc export data
// from the files go list reported, so imports resolve without recompiling
// anything from source.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheck parses p's sources and runs the type checker over them.
func typecheck(fset *token.FileSet, imp types.Importer, p *listedPackage) (*Package, error) {
	files, err := parseFiles(fset, p.Dir, p.GoFiles)
	if err != nil {
		return nil, err
	}
	module := ""
	if p.Module != nil {
		module = p.Module.Path
	}
	return check(fset, imp, p.ImportPath, module, files)
}

// parseFiles parses the named files in dir with comments retained (the
// suppression scanner needs them).
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// check runs go/types over already-parsed files.
func check(fset *token.FileSet, imp types.Importer, path, module string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:   path,
		Module: module,
		Fset:   fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}, nil
}

// RootDir returns the root of the outermost module enclosing dir: dir's
// module root, widened to each parent directory with a go.mod of its own.
// From a nested module such as bench/ it is the repository root.
func RootDir(dir string) (string, error) {
	root, err := moduleRoot(dir)
	for err == nil {
		parent := filepath.Dir(root)
		if _, statErr := os.Stat(filepath.Join(parent, "go.mod")); parent == root || statErr != nil {
			break
		}
		root = parent
	}
	return root, err
}

// moduleRoot locates the enclosing module's root directory.
func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("lint: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("lint: %s is not inside a module", dir)
	}
	return filepath.Dir(gomod), nil
}
