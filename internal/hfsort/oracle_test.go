package hfsort

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refGraph, refExecOrder and refClusterOrder are the name-keyed HFSort
// as it stood before the dense rewrite (a node and edge map keyed by
// function name, one heap object per cluster), kept as the oracle: the
// dense Order must return the same sequence for every graph. hits counts
// the decisions the random graphs must reach for the comparison to mean
// anything.
type refGraph struct {
	Nodes map[string]uint64
	Edges map[[2]string]uint64
}

type refHits struct {
	callerTie, absentCaller, merged, pageBound, bigPageBound, collapse int
}

func refExecOrder(g *refGraph) []string {
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

type refCluster struct {
	funcs   []string
	size    uint64
	samples uint64
}

func (c *refCluster) density() float64 {
	if c.size == 0 {
		return 0
	}
	return float64(c.samples) / float64(c.size)
}

func refClusterOrder(g *refGraph, sizes map[string]uint64, plus bool, hits *refHits) []string {
	names := refExecOrder(g)
	if len(names) == 0 {
		return nil
	}

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
		a, ok := heaviest[callee]
		if ok && w == a.weight {
			hits.callerTie++
		}
		if !ok || w > a.weight || (w == a.weight && caller < a.caller) {
			heaviest[callee] = arc{caller: caller, weight: w}
		}
	}

	clusterOf := map[string]*refCluster{}
	for _, fn := range names {
		c := &refCluster{funcs: []string{fn}, size: sizes[fn], samples: g.Nodes[fn]}
		if c.size == 0 {
			c.size = 1
		}
		clusterOf[fn] = c
	}

	for _, fn := range names {
		a, ok := heaviest[fn]
		if !ok || a.weight == 0 {
			continue
		}
		src := clusterOf[fn]
		dst := clusterOf[a.caller]
		if dst == nil {
			hits.absentCaller++
		}
		if src == nil || dst == nil || src == dst {
			continue
		}
		if src.funcs[0] != fn {
			continue
		}
		if plus {
			combined := float64(dst.samples+src.samples) / float64(dst.size+src.size)
			if combined < dst.density()/8 {
				hits.collapse++
				continue
			}
			if dst.size+src.size > 8*pageSize {
				hits.bigPageBound++
				continue
			}
		} else {
			if dst.size+src.size > pageSize {
				hits.pageBound++
				continue
			}
		}
		hits.merged++
		dst.funcs = append(dst.funcs, src.funcs...)
		dst.size += src.size
		dst.samples += src.samples
		for _, f := range src.funcs {
			clusterOf[f] = dst
		}
	}

	seen := map[*refCluster]bool{}
	var clusters []*refCluster
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

// reference restates g in the name-keyed form: callers past the nodes
// appear only in edges, and repeated pairs are summed.
func reference(g *Graph) (*refGraph, map[string]uint64) {
	rg := &refGraph{Nodes: map[string]uint64{}, Edges: map[[2]string]uint64{}}
	sizes := map[string]uint64{}
	for i := 0; i < g.N; i++ {
		rg.Nodes[g.Names[i]] = g.Weight[i]
		sizes[g.Names[i]] = g.Size[i]
	}
	for _, e := range g.Edges {
		rg.Edges[[2]string{g.Names[e.From], g.Names[e.To]}] += e.Weight
	}
	return rg, sizes
}

// randomGraph draws an ordering problem that leans on the tie-breaks and
// the merge bounds: few distinct weights (equal node weights and
// equal-weight competing callers are common) including 0, names that do
// not follow node indices, self and repeated edges, callers outside the
// node set, and sizes from empty through a page to several pages, so a
// hot small cluster meets a cold giant (hfsort+'s density collapse).
func randomGraph(r *rand.Rand) *Graph {
	n, absent := 1+r.Intn(30), r.Intn(4)
	g := &Graph{N: n}
	for _, k := range r.Perm(n + absent) {
		g.Names = append(g.Names, fmt.Sprintf("f%02d", k))
	}
	weights := []uint64{0, 1, 5, 5, 100, 100, 1000}
	if r.Intn(4) == 0 {
		weights = []uint64{7} // everything ties
	}
	sizes := []uint64{0, 16, 200, 1000, 3000, 5000, 20000}
	for i := 0; i < n; i++ {
		g.Weight = append(g.Weight, weights[r.Intn(len(weights))])
		g.Size = append(g.Size, sizes[r.Intn(len(sizes))])
	}
	for i, m := 0, r.Intn(3*n+1); i < m; i++ {
		e := Edge{From: r.Intn(n + absent), To: r.Intn(n), Weight: weights[r.Intn(len(weights))]}
		if r.Intn(8) == 0 {
			e.From = e.To
		}
		g.Edges = append(g.Edges, e)
		if r.Intn(6) == 0 {
			g.Edges = append(g.Edges, e)
		}
	}
	return g
}

// TestOrderMatchesReference: the same function sequence as the reference
// for exec, hfsort and hfsort+ on seeded random graphs, the input graph
// untouched, and every decision the reference can take reached.
func TestOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var hits refHits
	zeroWeight := 0
	for i := 0; i < 3000; i++ {
		g := randomGraph(r)
		edges := slices.Clone(g.Edges)
		rg, sizes := reference(g)
		for _, algo := range []Algorithm{AlgoExec, AlgoHFSort, AlgoPlus} {
			var want []string
			switch algo {
			case AlgoExec:
				want = refExecOrder(rg)
			default:
				want = refClusterOrder(rg, sizes, algo == AlgoPlus, &hits)
			}
			if got := names(g, Order(g, algo)); !slices.Equal(got, want) {
				t.Fatalf("graph %d %s:\n got  %v\n want %v\n graph %+v", i, algo, got, want, *g)
			}
		}
		if !slices.Equal(g.Edges, edges) {
			t.Fatalf("graph %d: Order reordered the caller's edges", i)
		}
		if slices.Contains(g.Weight, 0) {
			zeroWeight++
		}
	}
	if hits.callerTie == 0 || hits.absentCaller == 0 || hits.merged == 0 || hits.pageBound == 0 ||
		hits.bigPageBound == 0 || hits.collapse == 0 || zeroWeight == 0 {
		t.Fatalf("the random graphs miss a case: %+v, %d with a node of weight 0", hits, zeroWeight)
	}
	t.Logf("reference decisions: %+v; %d graphs with a node of weight 0", hits, zeroWeight)
}
