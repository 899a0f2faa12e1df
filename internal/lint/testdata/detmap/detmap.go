// Package detmap is the airvet detmap corpus: inside a
// //lint:deterministic package, map iteration must not feed ordered
// sinks (slices of values, writers, hashes) without sorting first.
//
//lint:deterministic corpus package exercising the determinism analyzers
package detmap

import (
	"fmt"
	"sort"
	"strings"
)

func valuesUnsorted(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want "append of map iteration values"
	}
	return out
}

func keysThenSort(m map[string]int) []int {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // collect-then-sort idiom: clean
	}
	sort.Strings(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k]) // ranging the sorted slice: clean
	}
	return out
}

func printPairs(m map[string]int, sb *strings.Builder) {
	for k, v := range m {
		fmt.Fprintf(sb, "%s=%d\n", k, v) // want "fmt.Fprintf inside range over map"
	}
}

func writeKeys(m map[string]int, sb *strings.Builder) {
	for k := range m {
		sb.WriteString(k) // want "Builder.WriteString inside range over map"
	}
}

func commutativeFold(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // order-free accumulation: clean
	}
	return total
}

func mapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v // map insert is order-free: clean
	}
	return out
}

func firstBad(m map[string]float64) error {
	for name, p := range m {
		if p < 0 {
			return fmt.Errorf("%s is negative", name) // want "return of map iteration key or value"
		}
	}
	return nil
}

func anyNegative(m map[string]float64) bool {
	for _, p := range m {
		if p < 0 {
			return true // result names no key or value: clean
		}
	}
	return false
}
