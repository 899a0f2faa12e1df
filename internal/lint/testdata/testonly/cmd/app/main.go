package main

import "onlymod/internal/lib"

func Exported() {} // main packages are never judged

func main() { lib.Used() }
