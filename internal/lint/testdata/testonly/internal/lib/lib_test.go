package lib

import "testing"

func TestNames(t *testing.T) {
	TestOnlyFunc()
	T{}.OnlyMethod()
	_, _, _ = Unused{}, OnlyConst, OnlyVar
	Shared()
}
