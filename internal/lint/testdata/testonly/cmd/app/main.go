package main

import (
	"flag"

	"onlymod/internal/lib"
)

func Exported() {} // main packages are never judged

func main() {
	lib.Used()
	cfg := lib.Config{Keyed: 1}
	cfg.Assigned = 2
	cfg.Bumped++
	flag.IntVar(&cfg.Pointed, "n", 0, "")
	var w lib.Wrapper
	w.Promoted = 3
	_ = lib.PairOptions{1, 2}
	_, _, _, _ = cfg.Read, cfg.OwnOnly, w, lib.Defaults()
}
