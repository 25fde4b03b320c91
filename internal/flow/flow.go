// Package flow implements minimum-cost maximum-flow profile inference:
// the production-grade replacement for the paper's §5.1 "non-ideal
// algorithm" that reconstructs consistent basic-block and edge counts
// from sparse or inconsistent sample data.
//
// The formulation follows the classic profile-inference reduction (also
// used by the stale-profile-matching work, arXiv:2401.17168): every
// measured count is a *baseline* flow that may violate conservation;
// the violations become supplies and demands on a residual network, and
// a min-cost max-flow run routes the imbalance along the cheapest CFG
// paths. Costs encode how much we trust each kind of adjustment:
//
//   - adding flow to a fall-through edge is cheapest (the static
//     compiler's layout is trusted, paper §5.2),
//   - adding flow to a taken forward branch costs more, a backward
//     branch more still,
//   - discarding measured counts (blocks or edges) is expensive —
//     samples are evidence,
//   - so is their absence, in proportion to how many were due: routing
//     flow through a block that drew no PC samples costs what the
//     sampling model says that flow should have drawn there, which grows
//     with the block's length (SampleWeight and coldCost derive the
//     units and the slope; neither is fitted to a workload),
//   - pseudo source/sink arcs absorb entry/exit imbalance for free, so
//     a function whose observed entries and exits disagree still solves.
//
// The result conserves flow exactly: for every block with successors,
// the block count equals the sum of its out-edge counts (flow accuracy
// 1.0), something the old proportional estimator's per-successor
// truncation could never guarantee.
package flow

import (
	"math"
	"slices"
)

// Jump-weight costs for adding flow to a CFG edge, exported so callers
// (internal/core) classify edges against the static layout.
const (
	// CostFallThrough is the cost of routing extra flow down the
	// fall-through path — the cheapest adjustment, per §5.2's "trust the
	// static layout" rule.
	CostFallThrough = 1
	// CostTaken is the cost for a taken forward branch.
	CostTaken = 2
	// CostBackward is the cost for a branch against the layout order.
	CostBackward = 4
)

// Internal cost structure of the deviation network.
const (
	// costColdBlock guards never-observed blocks: routing a unit of flow
	// through a block with zero measured weight pays this per sample the
	// flow should have drawn there and did not (see coldCost), on top of
	// its edge costs, so the solver does not invent counts on cold paths
	// unless conservation forces it (the old estimator's "+1 smoothing"
	// did exactly that).
	costColdBlock = 2
	// costCut is the cost per unit of *discarding* a measured count —
	// an order of magnitude above any routing cost.
	costCut = 10
	// costEmergency backstops feasibility on pathological CFGs (cycles
	// unreachable from any entry); never on a cheapest path otherwise.
	costEmergency = 10000
)

// sampleScale is the fixed-point scale of sample-derived weights: one
// unit of flow is 1/sampleScale samples per instruction (see
// SampleWeight). The edge and cut costs above are per unit of flow and
// were calibrated when a unit was one sample, so the scale is the power
// of two next above the typical block length (about ten instructions in
// compiled code): through a typical block a unit of flow is still about
// one sample, and the costs keep their meaning.
const sampleScale = 16

// SampleWeight converts the PC samples a block of size instructions drew
// into a flow weight. The sampler fires every Period retired
// instructions, so a block's sample count measures the time spent in it —
// executions × size ÷ Period — and a 20-instruction block executed 10
// times outdraws a 1-instruction block executed 100 times. Dividing by
// the size gives executions (× sampleScale ÷ Period, the same factor for
// every block of the profile), which is what the flow equations conserve.
// Rounds up, so a sampled block never reads as unsampled.
func SampleWeight(samples uint64, size int) uint64 {
	if size < 1 {
		size = 1
	}
	return (samples*sampleScale + uint64(size) - 1) / uint64(size)
}

// coldCost is the cost of routing one unit of flow through a block that
// drew no samples. Under the sampling model above, a unit of flow through
// a block of size instructions is size/sampleScale samples that should
// have been drawn and were not, so the evidence against it grows with
// the block: nothing for a two-instruction block, which most profiles
// miss even when it is hot, and several times an edge cost for a
// forty-instruction one. Each missing sample is charged costColdBlock,
// the price the unnormalised solver charged per unit when a unit was one
// sample. Size 0 marks a weight that is an execution count already (LBR
// repair): there zero is the same evidence whatever the block's length,
// and the flat costColdBlock applies.
func coldCost(size int) int64 {
	if size == 0 {
		return costColdBlock
	}
	return costColdBlock * int64(size) / sampleScale
}

const inf = int64(math.MaxInt64) / 4

// Succ is one CFG edge of the inference problem.
type Succ struct {
	To int
	// Weight is the measured edge count (LBR / repaired profiles);
	// 0 means unmeasured.
	Weight uint64
	// Cost is the per-unit cost of adding flow to this edge — one of
	// CostFallThrough/CostTaken/CostBackward (values < 1 are clamped).
	Cost int64
}

// Node is one basic block of the inference problem. Nodes are indexed by
// slice position; Succ.To refers to those indices.
type Node struct {
	// Weight is the measured execution count: SampleWeight of the block's
	// PC samples, or an LBR-derived block count.
	Weight uint64
	// Size is the block's instruction count when Weight came from PC
	// samples — how much a zero says depends on it (coldCost) — and 0
	// when Weight is an execution count in its own right.
	Size    int
	Succs   []Succ
	IsEntry bool
}

// Result is a flow-conserving count assignment.
type Result struct {
	NodeCounts []uint64
	// EdgeCounts parallels Node.Succs: EdgeCounts[i][k] is the inferred
	// count of nodes[i].Succs[k].
	EdgeCounts [][]uint64
	// Residual is the imbalance the solver could not route. It is 0 for
	// every CFG whose blocks are reachable from an entry or a
	// predecessor-less block (i.e. every CFG a disassembler builds); a
	// nonzero value means the dangling-block post-pass rebalanced the
	// affected blocks from their edge flows instead.
	Residual int64
}

// Infer solves one problem on a fresh Solver. Callers that infer many
// functions keep a Solver per worker instead.
func Infer(nodes []Node) Result {
	var s Solver
	return s.Infer(nodes)
}

// arc is one directed residual edge; arcs are stored in pairs so arc
// id^1 is always the reverse (and arcs[id^1].to is arc id's tail).
type arc struct {
	to   int32
	cap  int64
	cost int64
}

// Solver is a reusable inference engine: a successive-shortest-path
// min-cost max-flow solver (SPFA for the shortest path, so residual
// negative costs are fine) whose network, search state and result slabs
// are kept across augmenting paths and across problems, so a worker that
// infers thousands of functions allocates only while its largest CFG so
// far is still growing the slabs. The zero value is ready to use; a
// Solver is not safe for concurrent use.
type Solver struct {
	// Residual network: arc pairs in insertion order, and a CSR adjacency
	// (the arcs leaving v are adj[adjOff[v]:adjOff[v+1]], in insertion
	// order, which is what makes tied shortest paths resolve the same way
	// for the same problem whatever was solved before).
	arcs   []arc
	adjOff []int32
	adj    []int32

	// SPFA state, kept across augmenting paths.
	dist    []int64
	prevArc []int32
	inQueue []bool
	queue   []int32 // ring buffer: a node is queued at most once at a time

	// Problem scratch.
	net      []int64 // baseline-flow imbalance per network node
	hasPred  []bool
	blockInc []int32 // arc ids: raising a block count
	blockRed []int32 // arc ids: cutting measured block samples, or -1
	edgeOff  []int32 // node i's edges are [edgeOff[i], edgeOff[i+1]) of the edge slabs
	edgeInc  []int32
	edgeRed  []int32

	// Result slabs.
	nodeCounts []uint64
	edgeCounts []uint64
	edgeRows   [][]uint64
	inflow     []uint64
}

// grow returns s resized to n elements, reallocating only when the slab
// is too small. Contents are unspecified: callers overwrite or clear.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// addArc inserts a forward arc and its zero-capacity reverse; the
// returned id addresses the forward arc (flow() reads it back).
func (s *Solver) addArc(from, to int, capacity, cost int64) int32 {
	id := int32(len(s.arcs))
	s.arcs = append(s.arcs,
		arc{to: int32(to), cap: capacity, cost: cost},
		arc{to: int32(from), cap: 0, cost: -cost})
	return id
}

// flow reports how much flow was pushed through arc id.
func (s *Solver) flow(id int32) int64 { return s.arcs[id^1].cap }

// Infer solves minimum-cost maximum-flow over the CFG and returns
// conserving counts. Deterministic: identical inputs produce identical
// outputs regardless of caller parallelism and of what the Solver solved
// before. The Result's slices are the Solver's own slabs, valid until
// its next Infer.
func (s *Solver) Infer(nodes []Node) Result {
	n := len(nodes)
	nEdges := 0
	s.edgeOff = grow(s.edgeOff, n+1)
	for i := range nodes {
		s.edgeOff[i] = int32(nEdges)
		nEdges += len(nodes[i].Succs)
	}
	s.edgeOff[n] = int32(nEdges)
	s.nodeCounts = grow(s.nodeCounts, n)
	s.edgeCounts = grow(s.edgeCounts, nEdges)
	s.edgeRows = grow(s.edgeRows, n)
	for i := range nodes {
		lo, hi := s.edgeOff[i], s.edgeOff[i+1]
		s.edgeRows[i] = s.edgeCounts[lo:hi:hi]
	}
	res := Result{NodeCounts: s.nodeCounts, EdgeCounts: s.edgeRows}
	if n == 0 {
		return res
	}

	s.hasPred = grow(s.hasPred, n)
	clear(s.hasPred)
	for i := range nodes {
		for _, e := range nodes[i].Succs {
			if e.To >= 0 && e.To < n {
				s.hasPred[e.To] = true
			}
		}
	}

	// Node layout: block i splits into in=2i, out=2i+1; then the
	// function-boundary pseudo nodes S and T, then the supply/demand
	// terminals SS and TT.
	S, T := 2*n, 2*n+1
	SS, TT := 2*n+2, 2*n+3
	s.arcs = s.arcs[:0]

	// net accumulates baseline-flow imbalance per node: positive = the
	// baselines produce surplus here, negative = they consume more than
	// they deliver.
	s.net = grow(s.net, 2*n+4)
	clear(s.net)
	net := s.net

	s.blockInc = grow(s.blockInc, n)
	s.blockRed = grow(s.blockRed, n)
	s.edgeInc = grow(s.edgeInc, nEdges)
	s.edgeRed = grow(s.edgeRed, nEdges)

	for i := range nodes {
		in, out := 2*i, 2*i+1
		w := int64(nodes[i].Weight)
		incCost := int64(0)
		if w == 0 {
			incCost = coldCost(nodes[i].Size)
		}
		s.blockInc[i] = s.addArc(in, out, inf, incCost)
		s.blockRed[i] = -1
		if w > 0 {
			s.blockRed[i] = s.addArc(out, in, w, costCut)
			// Baseline block flow: consumed at in, produced at out.
			net[in] -= w
			net[out] += w
		}

		edgeInc := s.edgeInc[s.edgeOff[i]:s.edgeOff[i+1]]
		edgeRed := s.edgeRed[s.edgeOff[i]:s.edgeOff[i+1]]
		for k, e := range nodes[i].Succs {
			cost := e.Cost
			if cost < 1 {
				cost = 1
			}
			edgeInc[k] = s.addArc(out, 2*e.To, inf, cost)
			edgeRed[k] = -1
			if ew := int64(e.Weight); ew > 0 {
				edgeRed[k] = s.addArc(2*e.To, out, ew, costCut)
				net[out] -= ew
				net[2*e.To] += ew
			}
		}

		// Function-boundary arcs: entries (and predecessor-less blocks,
		// e.g. landing pads) draw inflow from S; exit blocks drain to T.
		if nodes[i].IsEntry || !s.hasPred[i] {
			s.addArc(S, in, inf, 0)
		} else {
			s.addArc(S, in, inf, costEmergency)
		}
		if len(nodes[i].Succs) == 0 {
			s.addArc(out, T, inf, 0)
		} else {
			s.addArc(out, T, inf, costEmergency)
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
	s.index(2*n + 4)
	res.Residual = supply - s.run(SS, TT)

	// Read back: final count = baseline + increase − reduction.
	for i := range nodes {
		c := int64(nodes[i].Weight) + s.flow(s.blockInc[i])
		if s.blockRed[i] >= 0 {
			c -= s.flow(s.blockRed[i])
		}
		if c < 0 {
			c = 0
		}
		res.NodeCounts[i] = uint64(c)
		edgeInc := s.edgeInc[s.edgeOff[i]:s.edgeOff[i+1]]
		edgeRed := s.edgeRed[s.edgeOff[i]:s.edgeOff[i+1]]
		for k, e := range nodes[i].Succs {
			ec := int64(e.Weight) + s.flow(edgeInc[k])
			if edgeRed[k] >= 0 {
				ec -= s.flow(edgeRed[k])
			}
			if ec < 0 {
				ec = 0
			}
			res.EdgeCounts[i][k] = uint64(ec)
		}
	}
	s.rebalance(nodes, &res)
	return res
}

// rebalance is the dangling-block post-pass: it pins every block count
// to its own out-flow so the result conserves flow even when the solver
// left residual imbalance (unreachable cycles, overflow-clamped counts).
// On a fully-routed solution this is a no-op — conservation already
// holds arc-by-arc — so the common path pays one verification sweep.
func (s *Solver) rebalance(nodes []Node, res *Result) {
	s.inflow = grow(s.inflow, len(nodes))
	clear(s.inflow)
	inflow := s.inflow
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

// index builds the CSR adjacency of the v-node network from the arc
// list (a counting sort by tail, stable in arc id) and sizes the search
// state.
func (s *Solver) index(v int) {
	s.adjOff = grow(s.adjOff, v+1)
	clear(s.adjOff)
	for id := range s.arcs {
		s.adjOff[s.arcs[id^1].to+1]++
	}
	for u := 0; u < v; u++ {
		s.adjOff[u+1] += s.adjOff[u]
	}
	s.adj = grow(s.adj, len(s.arcs))
	// prevArc doubles as the per-node fill cursor; run resets it.
	s.prevArc = grow(s.prevArc, v)
	copy(s.prevArc, s.adjOff[:v])
	for id := range s.arcs {
		u := s.arcs[id^1].to
		s.adj[s.prevArc[u]] = int32(id)
		s.prevArc[u]++
	}
	s.dist = grow(s.dist, v)
	s.inQueue = grow(s.inQueue, v)
	clear(s.inQueue)
	s.queue = grow(s.queue, v)
}

// run pushes flow from src to dst along successive cheapest residual
// paths until none remains and returns the flow routed. Deterministic:
// the adjacency order is insertion order and SPFA relaxes strictly, so
// tied shortest paths always resolve the same way.
func (s *Solver) run(src, dst int) int64 {
	dist, prevArc, inQueue, queue := s.dist, s.prevArc, s.inQueue, s.queue
	n := len(dist)
	var totalFlow int64
	for {
		for i := range dist {
			dist[i] = inf
			prevArc[i] = -1
		}
		dist[src] = 0
		queue[0] = int32(src)
		inQueue[src] = true
		for head, tail, queued := 0, 1, 1; queued > 0; queued-- {
			u := queue[head]
			if head++; head == n {
				head = 0
			}
			inQueue[u] = false
			du := dist[u]
			for _, id := range s.adj[s.adjOff[u]:s.adjOff[u+1]] {
				a := &s.arcs[id]
				if a.cap <= 0 {
					continue
				}
				if nd := du + a.cost; nd < dist[a.to] {
					dist[a.to] = nd
					prevArc[a.to] = id
					if !inQueue[a.to] {
						inQueue[a.to] = true
						if tail == n {
							tail = 0
						}
						queue[tail] = a.to
						tail++
						queued++
					}
				}
			}
		}
		if prevArc[dst] < 0 {
			return totalFlow
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
	}
}
