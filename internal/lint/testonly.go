package lint

import (
	"go/ast"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
)

// TestOnly flags code under internal/ that only tests reach: an exported
// package-level func, method, type, const or var of a non-main package
// that no non-test file references, and a package nothing outside itself
// imports. References match by qualified name (objKey), because an
// importer sees a name through export data while its own package is
// type-checked from source. A name is judged only when its package and
// every package importing it, directly or not, are loaded, so a run over
// part of the tree stays silent rather than wrong. A method that
// implements an interface declaring it (heap.Interface, fmt.Stringer,
// json.Marshaler, netcast.Transport) is called through it and is exempt.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "exported internal/ name, or internal/ package, that only tests reach",
	Run:  runTestOnly,
}

func runTestOnly(pass *Pass) {
	path := pass.Pkg.Path()
	if pass.Facts == nil || pass.Facts.importers == nil || pass.Pkg.Name() == "main" ||
		!strings.Contains("/"+path+"/", "/internal/") {
		return
	}
	if len(pass.Facts.importers[path]) == 0 {
		pass.Reportf(pass.Files[0].Name.Pos(),
			"package %s is imported by no non-test code outside itself: give it an importer or delete it", path)
		return
	}
	if !pass.Facts.closedOver(path) {
		return
	}
	report := func(id *ast.Ident, kind string) {
		obj := pass.Info.Defs[id]
		if obj == nil || !id.IsExported() || pass.Facts.refs[objKey(obj)] {
			return
		}
		pass.Reportf(id.Pos(),
			"exported %s %s is referenced only by tests: delete it, move it into test code, or give it a non-test caller", kind, id.Name)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					report(decl.Name, "func")
				} else if m, ok := pass.Info.Defs[decl.Name].(*types.Func); ok && !pass.Facts.satisfiesInterface(m) {
					report(decl.Name, "method")
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						report(spec.Name, "type")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							report(id, decl.Tok.String())
						}
					}
				}
			}
		}
	}
}

// listImporters maps each package path to the packages whose non-test
// code imports it, over every module under RootDir(dir): the outermost
// module and those nested in it, such as bench/. Directories the go tool
// ignores (testdata, vendor, dot and underscore prefixes) are skipped.
func listImporters(dir string) (map[string][]string, error) {
	root, err := RootDir(dir)
	if err != nil {
		return nil, err
	}
	var modules []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root &&
			(name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && name == "go.mod" {
			modules = append(modules, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	importers := map[string][]string{}
	for _, m := range modules {
		listed, err := goList(m, []string{"./..."})
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			for _, imp := range p.Imports {
				importers[imp] = append(importers[imp], p.ImportPath)
			}
		}
	}
	return importers, nil
}

// closedOver reports whether every package that imports path, directly
// or through other packages, is loaded: only then can a name of path
// with no recorded reference be called test-only.
func (f *Facts) closedOver(path string) bool {
	seen := map[string]bool{path: true}
	stack := []string{path}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !f.local[p] {
			return false
		}
		for _, imp := range f.importers[p] {
			if !seen[imp] {
				seen[imp] = true
				stack = append(stack, imp)
			}
		}
	}
	return true
}

// satisfiesInterface reports whether m's receiver type implements an
// interface that declares m, so m may be called without its name.
func (f *Facts) satisfiesInterface(m *types.Func) bool {
	t := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(t))
	for _, iface := range f.interfaces()[m.Name()] {
		if implements(mset, iface) {
			return true
		}
	}
	return false
}

// implements reports whether mset has every method of iface. It looks
// methods up by name because iface may come from export data while mset
// comes from source.
func implements(mset *types.MethodSet, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		im := iface.Method(i)
		sel := mset.Lookup(im.Pkg(), im.Name())
		if sel == nil || !types.Identical(sel.Obj().Type(), im.Type()) {
			return false
		}
	}
	return true
}

// interfaces indexes, by method name, every interface the loaded code can
// see: error and the named interfaces of each loaded package and of
// everything it imports, the standard library included.
func (f *Facts) interfaces() map[string][]*types.Interface {
	if f.ifaces != nil {
		return f.ifaces
	}
	f.ifaces = map[string][]*types.Interface{}
	added := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || added[iface] {
			return
		}
		added[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			f.ifaces[name] = append(f.ifaces[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range f.pkgs {
		visit(pkg.Types)
	}
	return f.ifaces
}
