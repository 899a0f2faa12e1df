package lint

import (
	"go/ast"
)

// WallClock flags wall-clock reads (time.Now/Since/Until/After/Tick...)
// and global math/rand usage reachable — through any chain of statically
// resolved module-local calls, across package boundaries — from an
// exported entry point of a //lint:deterministic package. Those entry
// points (chaos.RunParallel, sim.MeasureStream, the SUSC/PAMAD/OPT builders) are
// bit-identical-replay contracts: the chaos trace digests and the
// paper's Theorem 3.1-3.3 oracles all assume two runs with the same seed
// observe the same values, which a wall-clock read or unseeded RNG
// silently breaks. The diagnostic fires at the entry point and carries
// the full witness call chain.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "wall clock or global math/rand reachable from a deterministic entry point",
	Run:  runWallClock,
}

func runWallClock(pass *Pass) {
	if pass.Facts == nil || !pass.Facts.Deterministic(pass.Pkg.Path()) {
		return
	}
	kinds := []struct {
		kind factKind
		noun string
		fix  string
	}{
		{factWallClock, "the wall clock", "inject a clock or pass timestamps in"},
		{factGlobalRNG, "the global math/rand source", "use an explicitly seeded rand.New(rand.NewSource(seed))"},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !ast.IsExported(fd.Name.Name) {
				continue
			}
			key := pass.declKey(fd)
			if key == "" {
				continue
			}
			for _, k := range kinds {
				steps, what, pos, ok := pass.Facts.chain(key, k.kind)
				if !ok {
					continue
				}
				pass.Reportf(fd.Name.Pos(),
					"deterministic entry point %s reaches %s: %s; %s",
					fd.Name.Name, k.noun, pass.Facts.chainString(steps, what, pos), k.fix)
			}
		}
	}
}
