// The maprange fixture exercises the three sinks (Emit/Encode calls,
// fmt printing, unsorted slice appends) plus the sanctioned
// collect-then-sort and commutative-use shapes.
package maprange

import (
	"fmt"
	"sort"
)

type sink struct{}

func (sink) Emit(event string, args ...any) {}

type encoder struct{}

func (encoder) Encode(v any) error { return nil }

func emitOrder(m map[string]int, s sink) {
	for k, v := range m {
		s.Emit("sample", k, v) // want `emitOrder iterates a map and passes iteration-dependent values to Emit`
	}
}

func encodeOrder(m map[string]int, e encoder) {
	for k := range m {
		_ = e.Encode(k) // want `encodeOrder iterates a map and passes iteration-dependent values to Encode`
	}
}

func printOrder(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `printOrder prints values inside a map range via fmt\.Printf`
	}
}

func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `appendNoSort appends map-iteration values to keys without a later sort`
	}
	return keys
}

// appendThenSort is the sanctioned idiom: collect, then sort before the
// slice escapes.
func appendThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// snapshot holds slices in fields, as a metrics snapshot does.
type snapshot struct {
	Names []string
	inner struct{ Counts []int }
}

func fieldNoSort(m map[string]int) snapshot {
	var s snapshot
	for k, v := range m {
		s.Names = append(s.Names, k)               // want `fieldNoSort appends map-iteration values to s\.Names without a later sort`
		s.inner.Counts = append(s.inner.Counts, v) // want `fieldNoSort appends map-iteration values to s\.inner\.Counts without a later sort`
	}
	sort.Strings(s.Names[:0]) // a sort of another slice expression does not count
	return s
}

// fieldThenSort sorts each field it collected into, through a pointer.
func fieldThenSort(m map[string]int, s *snapshot) {
	for k, v := range m {
		s.Names = append(s.Names, k)
		s.inner.Counts = append(s.inner.Counts, v)
	}
	sort.Slice(s.Names, func(i, j int) bool { return s.Names[i] < s.Names[j] })
	sort.Ints(s.inner.Counts)
}

// sumValues is commutative: iteration order cannot show in the result.
func sumValues(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// loopLocal appends into a slice scoped to the loop body: per-key work,
// no cross-iteration order to leak.
func loopLocal(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// bareRange carries no per-iteration data at all.
func bareRange(m map[string]int, s sink) {
	for range m {
		s.Emit("tick")
	}
}

// sliceRange is not a map: ordered iteration is fine to print.
func sliceRange(xs []string) {
	for _, x := range xs {
		fmt.Println(x)
	}
}
