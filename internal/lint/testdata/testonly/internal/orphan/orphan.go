package orphan // want "package onlymod/internal/orphan is imported by no non-test code"

func Helper() {}
