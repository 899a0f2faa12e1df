// Package onlymod is a root facade: public API, never judged.
package onlymod

func Facade() {}
