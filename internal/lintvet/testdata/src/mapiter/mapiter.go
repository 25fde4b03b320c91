// Package mapiter is boltvet testdata: map iteration in
// output-reachable code.
package mapiter

import (
	"fmt"
	"io"
	"sort"
)

// WriteCounts is a root by both name and writer parameter; the raw
// map range is the bug this analyzer exists for.
func WriteCounts(w io.Writer, m map[string]int) {
	for k, v := range m { // want "iterating a map in output-reachable WriteCounts"
		fmt.Fprintf(w, "%s %d\n", k, v)
	}
}

// WriteSorted is the sanctioned collect-then-sort shape: no finding.
func WriteSorted(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, m[k])
	}
}

// WriteNonZero guards the collection with an if and a continue — still
// a pure collect loop, still sorted later: no finding.
func WriteNonZero(w io.Writer, m map[string]int) {
	var keys []string
	for k, v := range m {
		if v == 0 {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

// WriteReport reaches render through the package call graph; the map
// range inside the helper is just as order-sensitive as one in the
// root itself.
func WriteReport(w io.Writer, m map[string]int) {
	io.WriteString(w, render(m))
}

func render(m map[string]int) string {
	s := ""
	for k := range m { // want "iterating a map in output-reachable render"
		s += k
	}
	return s
}

// snapshot is a map-to-map transfer: order-independent by
// construction, no finding even though Dump reaches it.
func snapshot(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Dump is a root by name.
func Dump(w io.Writer, m map[string]int) {
	for _, k := range sortedKeys(snapshot(m)) {
		fmt.Fprintln(w, k)
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tally never feeds an output path: map ranging for a commutative
// reduction is fine, no finding.
func tally(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

var _ = tally // not reachable from any writer root on purpose

// WriteDebug carries a reasoned suppression: no finding.
func WriteDebug(w io.Writer, m map[string]int) {
	//boltvet:sorted-ok debug dump, line order is irrelevant to the reader
	for k := range m {
		fmt.Fprintln(w, k)
	}
}

// Link is a root by name alone: a linker hands back its image rather
// than writing it, so no writer parameter gives it away.
func Link(m map[string]int) []string {
	var syms []string
	for k := range m { // want "iterating a map in output-reachable Link"
		syms = append(syms, k)
	}
	return syms
}
