// Package ext stands in for a second module beside the main one.
package ext

import "onlymod/internal/lib"

func Run() { lib.ExtOnly() }
