package lint

import (
	"go/ast"
	"go/types"
)

// DetMap flags map iteration feeding an ordered sink inside a
// //lint:deterministic package: appending the iteration *values* to a
// slice, writing inside the loop to anything with a Write-family
// method (io.Writer, hash.Hash, strings.Builder) or the fmt print
// family, or returning a result built from the key or value (the first
// matching entry is then a random one). Go randomizes map iteration
// order per run, so any of these
// turns a replayable computation into a per-process roll of the dice —
// exactly the class of bug the worker-count-independence tests of
// sim.MeasureStream and chaos.RunParallel exist to catch, except a map fold can
// be order-dependent while still passing a single pinned test seed.
//
// Appending only the *key* to a slice is not flagged: collect-keys,
// sort, then index the map is the canonical deterministic idiom.
var DetMap = &Analyzer{
	Name: "detmap",
	Doc:  "map iteration feeding an ordered sink or a return in a //lint:deterministic package",
	Run:  runDetMap,
}

func runDetMap(pass *Pass) {
	if pass.Facts == nil || !pass.Facts.Deterministic(pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(pass, rng)
			return true
		})
	}
}

// checkMapRangeBody scans the body of one range-over-map for ordered
// sinks.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt) {
	keyObj := rangeVarObj(pass, rng.Key)
	valObj := rangeVarObj(pass, rng.Value)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure defined here may run outside the loop
		}
		if inner, ok := n.(*ast.RangeStmt); ok && inner != rng {
			if tv, ok := pass.Info.Types[inner.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					return false // nested map range is checked on its own
				}
			}
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			if mentions(pass, ret, keyObj, valObj) {
				pass.Reportf(ret.Pos(),
					"return of map iteration key or value inside range over map: which entry returns depends on map iteration order; iterate a fixed order instead")
			}
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				for _, arg := range call.Args[1:] {
					if exprUsesOnlyKey(pass, arg, keyObj, valObj) {
						continue
					}
					pass.Reportf(call.Pos(),
						"append of map iteration values inside range over map: slice order depends on map iteration order; iterate sorted keys instead")
					return false
				}
			}
			return true
		}
		if name, ok := orderedSinkCall(pass, call); ok {
			pass.Reportf(call.Pos(),
				"%s inside range over map: output order depends on map iteration order; iterate sorted keys instead", name)
			return false
		}
		return true
	})
}

// rangeVarObj resolves the object a range variable binds, or nil.
func rangeVarObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// mentions reports whether n uses either range variable.
func mentions(pass *Pass, n ast.Node, keyObj, valObj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := pass.Info.Uses[id]
			found = obj != nil && (obj == keyObj || obj == valObj)
		}
		return !found
	})
	return found
}

// exprUsesOnlyKey reports whether arg is exactly the range key variable
// (the collect-then-sort idiom). Anything touching the value variable,
// a map index, or an unrelated expression counts as order-dependent.
func exprUsesOnlyKey(pass *Pass, arg ast.Expr, keyObj, valObj types.Object) bool {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	return obj != nil && keyObj != nil && obj == keyObj && obj != valObj
}

// orderedSinkCall reports whether call writes to an inherently ordered
// sink: the fmt print family or any Write/WriteString/WriteByte/
// WriteRune method (io.Writer, hash.Hash, bytes.Buffer, bufio.Writer...).
func orderedSinkCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			switch obj.Name() {
			case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
				return "fmt." + obj.Name(), true
			}
		}
		return "", false
	}
	switch obj.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return typeShortName(sig.Recv().Type()) + "." + obj.Name(), true
	}
	return "", false
}
