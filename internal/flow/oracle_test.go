package flow

import (
	"math/rand"
	"slices"
	"testing"
)

// refInfer is Infer as it stood before the arena solver — a fresh
// network, adjacency list per node, SPFA queue per augmenting path and
// result slices per call — taking the same costs (coldCost), kept as the
// oracle: Solver.Infer must return the same Result for every problem.
func refInfer(nodes []Node) Result {
	n := len(nodes)
	res := Result{
		NodeCounts: make([]uint64, n),
		EdgeCounts: make([][]uint64, n),
	}
	for i := range nodes {
		res.EdgeCounts[i] = make([]uint64, len(nodes[i].Succs))
	}
	if n == 0 {
		return res
	}

	hasPred := make([]bool, n)
	for i := range nodes {
		for _, e := range nodes[i].Succs {
			if e.To >= 0 && e.To < n {
				hasPred[e.To] = true
			}
		}
	}

	// Node layout: block i splits into in=2i, out=2i+1; then the
	// function-boundary pseudo nodes S and T, then the supply/demand
	// terminals SS and TT.
	in := func(i int) int { return 2 * i }
	out := func(i int) int { return 2*i + 1 }
	S, T := 2*n, 2*n+1
	SS, TT := 2*n+2, 2*n+3
	s := newRefSolver(2*n + 4)

	// net accumulates baseline-flow imbalance per node: positive = the
	// baselines produce surplus here, negative = they consume more than
	// they deliver.
	net := make([]int64, 2*n+4)

	blockInc := make([]int, n) // arc ids: raising a block count
	blockRed := make([]int, n) // arc ids: cutting measured block samples
	edgeInc := make([][]int, n)
	edgeRed := make([][]int, n)

	for i := range nodes {
		w := int64(nodes[i].Weight)
		incCost := int64(0)
		if w == 0 {
			incCost = coldCost(nodes[i].Size)
		}
		blockInc[i] = s.addArc(in(i), out(i), inf, incCost)
		blockRed[i] = -1
		if w > 0 {
			blockRed[i] = s.addArc(out(i), in(i), w, costCut)
			// Baseline block flow: consumed at in, produced at out.
			net[in(i)] -= w
			net[out(i)] += w
		}

		edgeInc[i] = make([]int, len(nodes[i].Succs))
		edgeRed[i] = make([]int, len(nodes[i].Succs))
		for k, e := range nodes[i].Succs {
			cost := e.Cost
			if cost < 1 {
				cost = 1
			}
			edgeInc[i][k] = s.addArc(out(i), in(e.To), inf, cost)
			edgeRed[i][k] = -1
			if ew := int64(e.Weight); ew > 0 {
				edgeRed[i][k] = s.addArc(in(e.To), out(i), ew, costCut)
				net[out(i)] -= ew
				net[in(e.To)] += ew
			}
		}

		// Function-boundary arcs: entries (and predecessor-less blocks,
		// e.g. landing pads) draw inflow from S; exit blocks drain to T.
		if nodes[i].IsEntry || !hasPred[i] {
			s.addArc(S, in(i), inf, 0)
		} else {
			s.addArc(S, in(i), inf, costEmergency)
		}
		if len(nodes[i].Succs) == 0 {
			s.addArc(out(i), T, inf, 0)
		} else {
			s.addArc(out(i), T, inf, costEmergency)
		}
	}
	// Entry/exit imbalance circulates for free.
	s.addArc(T, S, inf, 0)

	// Supplies and demands from the baseline imbalance.
	var supply int64
	for v, d := range net {
		if d > 0 {
			s.addArc(SS, v, d, 0)
			supply += d
		} else if d < 0 {
			s.addArc(v, TT, -d, 0)
		}
	}
	routed, _ := s.run(SS, TT)
	res.Residual = supply - routed

	// Read back: final count = baseline + increase − reduction.
	for i := range nodes {
		c := int64(nodes[i].Weight) + s.flow(blockInc[i])
		if blockRed[i] >= 0 {
			c -= s.flow(blockRed[i])
		}
		if c < 0 {
			c = 0
		}
		res.NodeCounts[i] = uint64(c)
		for k, e := range nodes[i].Succs {
			ec := int64(e.Weight) + s.flow(edgeInc[i][k])
			if edgeRed[i][k] >= 0 {
				ec -= s.flow(edgeRed[i][k])
			}
			if ec < 0 {
				ec = 0
			}
			res.EdgeCounts[i][k] = uint64(ec)
		}
	}
	refRebalance(nodes, &res)
	return res
}

// refRebalance is the dangling-block post-pass: it pins every block count
// to its own out-flow so the result conserves flow even when the solver
// left residual imbalance (unreachable cycles, overflow-clamped counts).
// On a fully-routed solution this is a no-op — conservation already
// holds arc-by-arc — so the common path pays one verification sweep.
func refRebalance(nodes []Node, res *Result) {
	inflow := make([]uint64, len(nodes))
	for i := range nodes {
		for k, e := range nodes[i].Succs {
			inflow[e.To] += res.EdgeCounts[i][k]
		}
	}
	for i := range nodes {
		if len(nodes[i].Succs) > 0 {
			var out uint64
			for k := range nodes[i].Succs {
				out += res.EdgeCounts[i][k]
			}
			res.NodeCounts[i] = out
			continue
		}
		// Exit or dangling block: keep the larger of its inferred count
		// and what actually flows in.
		if inflow[i] > res.NodeCounts[i] {
			res.NodeCounts[i] = inflow[i]
		}
	}
}

// arc is one directed residual edge; arcs are stored in pairs so arc
// id^1 is always the reverse.
type refArcT struct {
	to   int32
	cap  int64
	cost int64
}

// solver is a successive-shortest-path min-cost max-flow engine (SPFA
// for the shortest path, so residual negative costs are fine). Sized for
// per-function CFGs: tens to a few hundred blocks.
type refSolver struct {
	arcs []refArcT
	adj  [][]int32
}

func newRefSolver(n int) *refSolver { return &refSolver{adj: make([][]int32, n)} }

// addArc inserts a forward arc and its zero-capacity reverse; the
// returned id addresses the forward arc (flow() reads it back).
func (s *refSolver) addArc(from, to int, capacity, cost int64) int {
	id := len(s.arcs)
	s.arcs = append(s.arcs,
		refArcT{to: int32(to), cap: capacity, cost: cost},
		refArcT{to: int32(from), cap: 0, cost: -cost})
	s.adj[from] = append(s.adj[from], int32(id))
	s.adj[to] = append(s.adj[to], int32(id+1))
	return id
}

// flow reports how much flow was pushed through arc id.
func (s *refSolver) flow(id int) int64 { return s.arcs[id^1].cap }

// run pushes flow from src to dst along successive cheapest residual
// paths until none remains; returns (flow, cost). Deterministic: the
// adjacency order is insertion order and SPFA relaxes strictly, so tied
// shortest paths always resolve the same way.
func (s *refSolver) run(src, dst int) (int64, int64) {
	n := len(s.adj)
	dist := make([]int64, n)
	inQueue := make([]bool, n)
	prevArc := make([]int32, n)
	var totalFlow, totalCost int64
	for {
		for i := range dist {
			dist[i] = inf
			prevArc[i] = -1
		}
		dist[src] = 0
		queue := make([]int32, 0, n)
		queue = append(queue, int32(src))
		inQueue[src] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			inQueue[u] = false
			du := dist[u]
			for _, id := range s.adj[u] {
				a := &s.arcs[id]
				if a.cap <= 0 {
					continue
				}
				if nd := du + a.cost; nd < dist[a.to] {
					dist[a.to] = nd
					prevArc[a.to] = id
					if !inQueue[a.to] {
						inQueue[a.to] = true
						queue = append(queue, a.to)
					}
				}
			}
		}
		if prevArc[dst] < 0 {
			return totalFlow, totalCost
		}
		push := inf
		for v := int32(dst); v != int32(src); {
			id := prevArc[v]
			if c := s.arcs[id].cap; c < push {
				push = c
			}
			v = s.arcs[id^1].to
		}
		for v := int32(dst); v != int32(src); {
			id := prevArc[v]
			s.arcs[id].cap -= push
			s.arcs[id^1].cap += push
			v = s.arcs[id^1].to
		}
		totalFlow += push
		totalCost += push * dist[dst]
	}
}

// randomProblem builds a pseudo-random CFG the way TestRandomCFGsConserve
// does, with a random instruction count on every block: sized like a
// non-LBR problem (no edge weights) two times in three, like an LBR
// repair (Size 0, partial edge weights) otherwise.
func randomProblem(rng *rand.Rand) []Node {
	n := 1 + rng.Intn(40)
	sampled := rng.Intn(3) > 0
	nodes := make([]Node, n)
	nodes[0].IsEntry = true
	for i := range nodes {
		if rng.Intn(3) > 0 {
			nodes[i].Weight = uint64(rng.Intn(10000))
		}
		if sampled {
			nodes[i].Size = 1 + rng.Intn(60)
		}
		if i == n-1 {
			continue // keep at least one exit
		}
		for k, succs := 0, rng.Intn(4); k < succs; k++ {
			to := rng.Intn(n)
			cost := int64(CostTaken)
			if to <= i {
				cost = CostBackward
			} else if to == i+1 {
				cost = CostFallThrough
			}
			sc := Succ{To: to, Cost: cost}
			if !sampled && rng.Intn(2) == 0 {
				sc.Weight = uint64(rng.Intn(5000))
			}
			nodes[i].Succs = append(nodes[i].Succs, sc)
		}
	}
	return nodes
}

// cloneResult copies a Result out of the solver's slabs.
func cloneResult(r Result) Result {
	out := Result{NodeCounts: slices.Clone(r.NodeCounts), Residual: r.Residual}
	for _, row := range r.EdgeCounts {
		out.EdgeCounts = append(out.EdgeCounts, slices.Clone(row))
	}
	return out
}

func sameResult(a, b Result) bool {
	return a.Residual == b.Residual && slices.Equal(a.NodeCounts, b.NodeCounts) &&
		slices.EqualFunc(a.EdgeCounts, b.EdgeCounts, func(x, y []uint64) bool { return slices.Equal(x, y) })
}

// TestSolverMatchesReference holds one reused Solver to the reference
// body's exact Result — counts, edge counts and residual, so tie-breaks
// included — on seeded random CFGs with random sizes, including
// duplicate edges, self loops and blocks unreachable from the entry.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var s Solver
	for trial := 0; trial < 600; trial++ {
		nodes := randomProblem(rng)
		want := refInfer(nodes)
		if got := s.Infer(nodes); !sameResult(got, want) {
			t.Fatalf("trial %d (%d nodes): solver %+v, reference %+v", trial, len(nodes), got, want)
		}
	}
}

// TestSolverReuse solves A, B, A on one Solver: the second A must equal
// the first, whatever B left in the slabs (B is larger than A, so every
// slab A reads was overwritten in between).
func TestSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Solver
	for trial := 0; trial < 100; trial++ {
		a, b := randomProblem(rng), randomProblem(rng)
		if len(b) < len(a) {
			a, b = b, a
		}
		first := cloneResult(s.Infer(a))
		s.Infer(b)
		if again := s.Infer(a); !sameResult(again, first) {
			t.Fatalf("trial %d: A after B %+v, A before %+v", trial, again, first)
		}
	}
}

// BenchmarkSolverInfer solves a fixed set of seeded random problems on
// one reused Solver, one problem per iteration: the steady state of an
// inference worker, whose slabs have stopped growing.
func BenchmarkSolverInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	problems := make([][]Node, 256)
	for i := range problems {
		problems[i] = randomProblem(rng)
	}
	var s Solver
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		s.Infer(problems[i%len(problems)])
	}
}
