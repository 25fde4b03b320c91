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
	"fmt"
	"sort"

	"gobolt/internal/profile"
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

type cluster struct {
	funcs   []string
	size    uint64
	samples uint64
}

func (c *cluster) density() float64 {
	if c.size == 0 {
		return 0
	}
	return float64(c.samples) / float64(c.size)
}

// Order returns the function layout order, hottest first. Functions
// absent from the graph keep their natural order after the profiled ones
// (the caller appends them). sizes provides function byte sizes.
func Order(g *profile.CallGraph, sizes map[string]uint64, algo Algorithm) []string {
	switch algo {
	case AlgoNone:
		return nil
	case AlgoExec:
		return execOrder(g)
	case AlgoPlus:
		return clusterOrder(g, sizes, true)
	default:
		return clusterOrder(g, sizes, false)
	}
}

func execOrder(g *profile.CallGraph) []string {
	names := make([]string, 0, len(g.Nodes))
	for n := range g.Nodes {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if g.Nodes[names[i]] != g.Nodes[names[j]] {
			return g.Nodes[names[i]] > g.Nodes[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// clusterOrder is the C3 algorithm: process functions hottest-first, and
// append each to the cluster of its heaviest predecessor when profitable.
func clusterOrder(g *profile.CallGraph, sizes map[string]uint64, plus bool) []string {
	names := execOrder(g)
	if len(names) == 0 {
		return nil
	}

	// Heaviest caller per callee.
	type arc struct {
		caller string
		weight uint64
	}
	heaviest := map[string]arc{}
	for e, w := range g.Edges {
		caller, callee := e[0], e[1]
		if caller == callee {
			continue
		}
		if a, ok := heaviest[callee]; !ok || w > a.weight || (w == a.weight && caller < a.caller) {
			heaviest[callee] = arc{caller: caller, weight: w}
		}
	}

	clusterOf := map[string]*cluster{}
	mk := func(fn string) *cluster {
		c := &cluster{funcs: []string{fn}, size: sizes[fn], samples: g.Nodes[fn]}
		if c.size == 0 {
			c.size = 1
		}
		clusterOf[fn] = c
		return c
	}
	for _, fn := range names {
		mk(fn)
	}

	for _, fn := range names {
		a, ok := heaviest[fn]
		if !ok || a.weight == 0 {
			continue
		}
		src := clusterOf[fn]
		dst := clusterOf[a.caller]
		if src == nil || dst == nil || src == dst {
			// The caller may be absent from the node set (e.g. it never
			// produced entry samples of its own).
			continue
		}
		// The callee must currently lead its cluster (C3 merges chains).
		if src.funcs[0] != fn {
			continue
		}
		if plus {
			// hfsort+: merge while the combined density does not collapse
			// (avoids gluing a hot cluster onto a cold giant).
			combined := float64(dst.samples+src.samples) / float64(dst.size+src.size)
			if combined < dst.density()/8 {
				continue
			}
			if dst.size+src.size > 8*pageSize {
				continue
			}
		} else {
			// Classic HFSort: keep clusters within a page.
			if dst.size+src.size > pageSize {
				continue
			}
		}
		dst.funcs = append(dst.funcs, src.funcs...)
		dst.size += src.size
		dst.samples += src.samples
		for _, f := range src.funcs {
			clusterOf[f] = dst
		}
	}

	// Emit clusters by density, dedup preserving first placement.
	seen := map[*cluster]bool{}
	var clusters []*cluster
	for _, fn := range names {
		c := clusterOf[fn]
		if !seen[c] {
			seen[c] = true
			clusters = append(clusters, c)
		}
	}
	sort.SliceStable(clusters, func(i, j int) bool {
		return clusters[i].density() > clusters[j].density()
	})
	var out []string
	for _, c := range clusters {
		out = append(out, c.funcs...)
	}
	return out
}
