package maporder

import (
	"fmt"
	"sort"
	"strings"

	"fadingcr/internal/xrand"
)

func printsUnsorted(m map[string]int) {
	for k, v := range m { // want `writes output via fmt.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

func appendsUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appends to keys in visit order`
		keys = append(keys, k)
	}
	return keys
}

// The sanctioned collect-then-sort idiom: the slice is sorted before anyone
// can observe the visit order.
func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func floatSum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // want `accumulates floating-point`
		sum += v
	}
	return sum
}

// Integer counting is order-insensitive.
func intCount(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Writing into another map is order-insensitive: maps have no order to leak.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func consumesRNG(m map[string]bool, rng *xrand.Reseedable) int {
	hits := 0
	for k := range m { // want `consumes a random stream`
		if rng.Float64() < 0.5 && k != "" {
			hits++
		}
	}
	return hits
}

func earlyReturn(m map[string]int) string {
	for k := range m { // want `returns a value that depends on which key`
		return k
	}
	return ""
}

func buildsString(m map[string]int, sb *strings.Builder) {
	for k := range m { // want `writes output via WriteString`
		sb.WriteString(k)
	}
}

func escapeHatch(m map[string]int) {
	//crlint:allow maporder fixture exercising the escape hatch
	for k := range m {
		fmt.Println(k)
	}
}
