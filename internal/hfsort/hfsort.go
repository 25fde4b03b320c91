// Package hfsort implements profile-driven function ordering.
//
// HFSort (Ottoni & Maher, CGO'17) is the algorithm behind the paper's
// reorder-functions pass (Table 1, pass 13) and the link-time baseline in
// the Figure 5 experiments: functions are clustered greedily along the
// hottest caller->callee edges, subject to a page-size bound, and clusters
// are then laid out by hotness density. The "hfsort+" variant merges
// chains by expected I-TLB/I-cache benefit rather than a fixed page bound.
package hfsort

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"gobolt/internal/elfx"
)

// Algorithm selects the ordering strategy.
type Algorithm string

// Algorithms.
const (
	AlgoNone   Algorithm = "none"
	AlgoExec   Algorithm = "exec"    // hottest-first (simple baseline)
	AlgoHFSort Algorithm = "hfsort"  // C3 clustering
	AlgoPlus   Algorithm = "hfsort+" // density-gain clustering
)

// ParseAlgorithm converts a -reorder-functions flag value.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch a := Algorithm(s); a {
	case AlgoNone, AlgoExec, AlgoHFSort, AlgoPlus:
		return a, nil
	}
	return "", fmt.Errorf("invalid function layout %q (want none, exec, hfsort, or hfsort+)", s)
}

// pageSize is the clustering bound for classic HFSort.
const pageSize = 4096

// Edge is a weighted caller -> callee arc.
type Edge struct {
	From, To int
	Weight   uint64
}

// Graph is the weighted dynamic call graph (§5.3): nodes 0..N-1 are the
// functions to lay out, with their sample weight and byte size. Names
// holds each node's name, read only to break ties. An edge's callee is a
// node; its caller may lie past them (N <= From < len(Names)): a function
// with no samples of its own still competes to be a callee's heaviest
// caller, but takes no callee into its cluster. Edges may repeat a pair;
// their weights add up.
type Graph struct {
	N      int
	Weight []uint64
	Size   []uint64
	Edges  []Edge
	Names  []string
}

// Order returns the function layout order, hottest first, as a
// permutation of the graph's nodes; nil for AlgoNone. Functions absent
// from the graph keep their natural order after the profiled ones (the
// caller appends them).
func Order(g *Graph, algo Algorithm) []int {
	switch algo {
	case AlgoNone:
		return nil
	case AlgoExec:
		return execOrder(g)
	case AlgoPlus:
		return clusterOrder(g, true)
	default:
		return clusterOrder(g, false)
	}
}

// LinkOrder is the link-time HFSort baseline: it sizes g's nodes from the
// symbols of f, the binary the profile was recorded on, orders them, and
// returns their names, which is how the linker takes a function order
// (ld.Options.FuncOrder).
func LinkOrder(g *Graph, f *elfx.File, algo Algorithm) []string {
	sizes := map[string]uint64{}
	for _, s := range f.FuncSymbols() {
		sizes[s.Name] = s.Size
	}
	g.Size = make([]uint64, g.N)
	for i := range g.Size {
		g.Size[i] = sizes[g.Names[i]]
	}
	var names []string
	for _, n := range Order(g, algo) {
		names = append(names, g.Names[n])
	}
	return names
}

// execOrder sorts the nodes by weight, heaviest first, then by name.
func execOrder(g *Graph) []int {
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(g.Weight[b], g.Weight[a]), strings.Compare(g.Names[a], g.Names[b]), a-b)
	})
	return order
}

// clusterOrder is the C3 algorithm: process functions hottest-first, and
// append each to the cluster of its heaviest caller when profitable.
func clusterOrder(g *Graph, plus bool) []int {
	order := execOrder(g)

	// Heaviest caller per callee: repeated arcs add up, and equal weights
	// go to the lesser caller name.
	pred, predWeight := make([]int, g.N), make([]uint64, g.N)
	for i := range pred {
		pred[i] = -1
	}
	edges := slices.Clone(g.Edges)
	slices.SortFunc(edges, func(a, b Edge) int { return cmp.Or(a.To-b.To, a.From-b.From) })
	for i, e := range edges {
		if i+1 < len(edges) && edges[i+1].From == e.From && edges[i+1].To == e.To {
			edges[i+1].Weight += e.Weight
			continue
		}
		if p := pred[e.To]; e.From != e.To && (p < 0 || e.Weight > predWeight[e.To] ||
			(e.Weight == predWeight[e.To] && g.Names[e.From] < g.Names[p])) {
			pred[e.To], predWeight[e.To] = e.From, e.Weight
		}
	}

	// Each cluster is a chain of nodes threaded through next and named by
	// its first node, which holds the chain's tail, size and samples.
	clusterOf, next, tail := make([]int, g.N), make([]int, g.N), make([]int, g.N)
	size, samples := make([]uint64, g.N), slices.Clone(g.Weight)
	for i := range next {
		clusterOf[i], next[i], tail[i], size[i] = i, -1, i, max(g.Size[i], 1)
	}
	density := func(c int) float64 { return float64(samples[c]) / float64(size[c]) }

	for _, fn := range order {
		caller := pred[fn]
		if caller < 0 || caller >= g.N || predWeight[fn] == 0 {
			continue
		}
		// The callee must currently lead its cluster (C3 merges chains).
		src, dst := clusterOf[fn], clusterOf[caller]
		if src != fn || src == dst {
			continue
		}
		if plus {
			// hfsort+: merge while the combined density does not collapse
			// (avoids gluing a hot cluster onto a cold giant).
			combined := float64(samples[dst]+samples[src]) / float64(size[dst]+size[src])
			if combined < density(dst)/8 || size[dst]+size[src] > 8*pageSize {
				continue
			}
		} else if size[dst]+size[src] > pageSize {
			// Classic HFSort: keep clusters within a page.
			continue
		}
		next[tail[dst]] = src
		tail[dst] = tail[src]
		size[dst] += size[src]
		samples[dst] += samples[src]
		for f := src; f >= 0; f = next[f] {
			clusterOf[f] = dst
		}
	}

	// Emit clusters by density, in order of first placement on ties.
	seen := make([]bool, g.N)
	var heads []int
	for _, fn := range order {
		if c := clusterOf[fn]; !seen[c] {
			seen[c] = true
			heads = append(heads, c)
		}
	}
	slices.SortStableFunc(heads, func(a, b int) int {
		return cmp.Compare(density(b), density(a))
	})
	out := order[:0]
	for _, c := range heads {
		for f := c; f >= 0; f = next[f] {
			out = append(out, f)
		}
	}
	return out
}
