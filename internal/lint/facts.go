package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is the interprocedural facts engine: a layer between the
// package loader and the analyzers that computes one summary per module
// function ("reads the wall clock", "uses the global math/rand source",
// "blocks without honoring a context") and propagates those summaries
// along call edges across package boundaries. The per-file analyzers in
// PR 1 could only see one function body at a time; the facts layer is
// what lets wallclock blame `sim.MeasureStream` for a `time.Now` three
// calls and two packages away — the property the paper's replayable-seed
// contract (Theorems 3.1-3.3, PR 5's chaos digests) actually depends on.
//
// Scope and approximations:
//
//   - Only statically resolved calls propagate: interface method calls
//     and calls through function values are not edges. A fact hidden
//     behind an interface needs a direct annotation or review.
//   - Function literals fold into their enclosing declaration: if a
//     closure inside f reads time.Now, f reads time.Now.
//   - Propagation runs to a fixed point over keys in sorted order, so
//     the recorded witness chains are deterministic.

// factKind enumerates the facts the engine tracks per function.
type factKind int

const (
	factWallClock factKind = iota // reads the wall clock (time.Now & friends)
	factGlobalRNG                 // uses the global math/rand source
	factBlocks                    // contains an unguarded blocking operation
	nFactKinds
)

// factSource is the evidence for one fact on one function: either the
// direct operation (next == "") or the call edge leading toward it.
type factSource struct {
	pos  token.Pos
	what string // human-readable operation, e.g. "time.Now()"
	next string // key of the callee the fact was inherited from, "" if direct
}

// callEdge is one statically resolved call to a module-local function.
type callEdge struct {
	callee    string
	pos       token.Pos
	passesCtx bool // a context.Context value is among the arguments
}

// funcInfo is the per-function summary node of the facts graph.
type funcInfo struct {
	key   string
	pkg   string
	decl  *ast.FuncDecl
	facts [nFactKinds]*factSource
	calls []callEdge
}

// Facts holds the propagated summaries for every function of the loaded
// package set plus the //lint:deterministic package annotations.
type Facts struct {
	fset    *token.FileSet
	fns     map[string]*funcInfo
	det     map[string]bool // package path -> annotated deterministic
	modules map[string]bool // module paths of the loaded packages
	local   map[string]bool // package paths whose sources were summarized
	refs    map[string]bool // objKey of every package-level name non-test code uses

	importers map[string][]string // see listImporters; nil for a lone corpus
	pkgs      []*Package
	ifaces    map[string][]*types.Interface // by method name, built on first use
}

// ComputeFacts builds and propagates function summaries over the whole
// loaded package set. It is called once per Run, before any analyzer.
func ComputeFacts(pkgs []*Package) *Facts {
	f := &Facts{
		fns:     map[string]*funcInfo{},
		det:     map[string]bool{},
		modules: map[string]bool{},
		local:   map[string]bool{},
		refs:    map[string]bool{},
		pkgs:    pkgs,
	}
	for _, pkg := range pkgs {
		if f.fset == nil {
			f.fset = pkg.Fset
		}
		if pkg.Module != "" {
			f.modules[pkg.Module] = true
		}
		f.local[pkg.Path] = true
		if hasDeterministicDirective(pkg.Files) {
			f.det[pkg.Path] = true
		}
	}
	for _, pkg := range pkgs {
		f.collectPackage(pkg)
		for _, obj := range pkg.Info.Uses {
			if key := objKey(obj); key != "" {
				f.refs[key] = true
			}
		}
	}
	f.propagate()
	return f
}

// Deterministic reports whether pkgPath carries a //lint:deterministic
// annotation.
func (f *Facts) Deterministic(pkgPath string) bool { return f.det[pkgPath] }

// hasDeterministicDirective scans file comments for the package-level
// //lint:deterministic annotation.
func hasDeterministicDirective(files []*ast.File) bool {
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if c.Text == "//lint:deterministic" || strings.HasPrefix(c.Text, "//lint:deterministic ") {
					return true
				}
			}
		}
	}
	return false
}

// moduleLocal reports whether pkgPath is a package whose sources we
// summarized — either a direct load target or any package of a loaded
// module (call edges into the latter resolve once that package is in
// the same Run).
func (f *Facts) moduleLocal(pkgPath string) bool {
	if f.local[pkgPath] {
		return true
	}
	for m := range f.modules {
		if pkgPath == m || strings.HasPrefix(pkgPath, m+"/") {
			return true
		}
	}
	return false
}

// funcObjKey canonicalizes a function object to its cross-package key:
// "pkg/path.Name" for functions, "pkg/path.(Recv).Name" for methods.
// The key is derived purely from names so that the object seen through
// export data (at a call site in an importing package) and the object
// type-checked from source (at the declaration) agree.
func funcObjKey(obj *types.Func) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // method on an unnamed type; not addressable by key
		}
		return pkg.Path() + ".(" + named.Obj().Name() + ")." + obj.Name()
	}
	return pkg.Path() + "." + obj.Name()
}

// objKey extends funcObjKey to the other package-level names: a type,
// const or var is keyed "pkg/path.Name". Fields, locals and names of
// unnamed receivers key to "".
func objKey(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		return funcObjKey(obj)
	case *types.TypeName, *types.Const, *types.Var:
		if pkg := obj.Pkg(); pkg != nil && obj.Parent() == pkg.Scope() {
			return pkg.Path() + "." + obj.Name()
		}
	}
	return ""
}

// declKey returns the facts key of a function declaration in pass's
// package, or "" if the declaration did not type-check.
func (p *Pass) declKey(decl *ast.FuncDecl) string {
	obj, ok := p.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return ""
	}
	return funcObjKey(obj)
}

// collectPackage computes the direct facts and call edges of every
// function declared in pkg.
func (f *Facts) collectPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := funcObjKey(obj)
			if key == "" {
				continue
			}
			fn := &funcInfo{key: key, pkg: pkg.Path, decl: fd}
			c := &factCollector{facts: f, info: pkg.Info, fn: fn}
			c.walkStmts(fd.Body.List)
			f.fns[key] = fn
		}
	}
}

// factCollector walks one function body recording direct facts and call
// edges. guarded is true while inside a select clause that offers an
// alternative path (>= 2 clauses), where a channel op cannot block alone.
type factCollector struct {
	facts   *Facts
	info    *types.Info
	fn      *funcInfo
	guarded bool
}

func (c *factCollector) setFact(kind factKind, pos token.Pos, what string) {
	if c.fn.facts[kind] == nil {
		c.fn.facts[kind] = &factSource{pos: pos, what: what}
	}
}

func (c *factCollector) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		c.walk(s)
	}
}

func (c *factCollector) walk(n ast.Node) {
	switch n := n.(type) {
	case nil:
		return

	case *ast.SelectStmt:
		guarded := len(n.Body.List) >= 2
		for _, cl := range n.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil {
				saved := c.guarded
				c.guarded = c.guarded || guarded
				c.walk(cc.Comm)
				c.guarded = saved
			}
			c.walkStmts(cc.Body)
		}
		return

	case *ast.SendStmt:
		if !c.guarded {
			c.setFact(factBlocks, n.Arrow, "channel send")
		}

	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !c.guarded {
			c.setFact(factBlocks, n.OpPos, "channel receive")
		}

	case *ast.CallExpr:
		c.classifyCall(n)

	case *ast.FuncLit:
		// Fold the literal's facts into the enclosing function; channel
		// guards do not extend across the closure boundary.
		saved := c.guarded
		c.guarded = false
		c.walkStmts(n.Body.List)
		c.guarded = saved
		return
	}
	for _, child := range childNodes(n) {
		c.walk(child)
	}
}

// classifyCall records the fact or call edge a single call expression
// contributes.
func (c *factCollector) classifyCall(call *ast.CallExpr) {
	obj, ok := calleeObject(c.info, call).(*types.Func)
	if !ok {
		return
	}
	pkg := obj.Pkg()
	if pkg == nil {
		return // builtins: append, len, ...
	}
	sig, _ := obj.Type().(*types.Signature)
	switch pkg.Path() {
	case "time":
		switch obj.Name() {
		case "Now", "Since", "Until", "After", "Tick", "NewTicker", "NewTimer", "AfterFunc":
			c.setFact(factWallClock, call.Pos(), "time."+obj.Name()+"()")
		case "Sleep":
			if !c.guarded {
				c.setFact(factBlocks, call.Pos(), "time.Sleep()")
			}
		}
	case "math/rand", "math/rand/v2":
		if sig != nil && sig.Recv() == nil && !isRandConstructor(obj.Name()) {
			c.setFact(factGlobalRNG, call.Pos(), pkg.Path()+"."+obj.Name()+"()")
		}
	case "sync":
		if sig != nil && sig.Recv() != nil && obj.Name() == "Wait" && !c.guarded {
			recv := sig.Recv().Type()
			if isNamed(recv, "sync", "WaitGroup") || isNamed(recv, "sync", "Cond") {
				c.setFact(factBlocks, call.Pos(), "sync."+typeShortName(recv)+".Wait()")
			}
		}
	}
	if c.facts.moduleLocal(pkg.Path()) {
		key := funcObjKey(obj)
		if key != "" {
			c.fn.calls = append(c.fn.calls, callEdge{
				callee:    key,
				pos:       call.Pos(),
				passesCtx: callPassesContext(c.info, call),
			})
		}
	}
}

// isRandConstructor reports whether name is a math/rand function that
// only builds an explicitly seeded source rather than touching the
// global one.
func isRandConstructor(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return true
	}
	return false
}

func typeShortName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// callPassesContext reports whether any argument of call has type
// context.Context.
func callPassesContext(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && isNamed(tv.Type, "context", "Context") {
			return true
		}
	}
	return false
}

// propagate closes the facts over call edges to a fixed point. Keys are
// visited in sorted order each round, so the witness chain recorded for
// a fact is deterministic across runs and worker counts.
func (f *Facts) propagate() {
	keys := make([]string, 0, len(f.fns))
	for k := range f.fns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			fn := f.fns[k]
			for _, edge := range fn.calls {
				callee := f.fns[edge.callee]
				if callee == nil || callee == fn {
					continue
				}
				for kind := factKind(0); kind < nFactKinds; kind++ {
					if callee.facts[kind] != nil && fn.facts[kind] == nil {
						fn.facts[kind] = &factSource{pos: edge.pos, what: edge.callee, next: edge.callee}
						changed = true
					}
				}
			}
		}
	}
}

// fn returns the summary for key, or nil.
func (f *Facts) fn(key string) *funcInfo { return f.fns[key] }

// chain reconstructs the witness call chain from key to the direct
// operation behind fact kind. It returns the rendered chain (starting
// with key's own display name), the direct operation, its position, and
// whether the fact holds at all.
func (f *Facts) chain(key string, kind factKind) (steps []string, what string, pos token.Pos, ok bool) {
	seen := map[string]bool{}
	cur := key
	for {
		fn := f.fns[cur]
		if fn == nil || fn.facts[kind] == nil || seen[cur] {
			return nil, "", token.NoPos, false
		}
		seen[cur] = true
		steps = append(steps, f.displayKey(cur))
		src := fn.facts[kind]
		if src.next == "" {
			return steps, src.what, src.pos, true
		}
		cur = src.next
	}
}

// displayKey trims the module prefix off a function key for messages:
// "tcsa/internal/sim.MeasureStream" -> "sim.MeasureStream".
func (f *Facts) displayKey(key string) string {
	for m := range f.modules {
		if rest, ok := strings.CutPrefix(key, m+"/"); ok {
			if i := strings.LastIndexByte(rest, '/'); i >= 0 {
				rest = rest[i+1:]
			}
			return rest
		}
	}
	return key
}

// chainString renders a witness chain for a diagnostic message:
// "sim.MeasureStream -> sim.shardLoop -> time.Now() at file.go:12".
func (f *Facts) chainString(steps []string, what string, pos token.Pos) string {
	var sb strings.Builder
	for _, s := range steps {
		sb.WriteString(s)
		sb.WriteString(" -> ")
	}
	sb.WriteString(what)
	if pos.IsValid() {
		p := f.fset.Position(pos)
		sb.WriteString(" at ")
		sb.WriteString(p.Filename)
		sb.WriteString(":")
		sb.WriteString(strconv.Itoa(p.Line))
	}
	return sb.String()
}

// childNodes enumerates the immediate AST children of n that the fact
// collector should descend into, using ast.Inspect one level deep.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(child ast.Node) bool {
		if first {
			first = false
			return true
		}
		if child != nil {
			out = append(out, child)
		}
		return false
	})
	return out
}
