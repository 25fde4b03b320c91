package cc

import "gobolt/internal/ir"

// blockSrc returns the source coordinate at the start of a block.
func blockSrc(f *ir.Func, idx int) SrcKey {
	b := f.Blocks[idx]
	if len(b.Ops) > 0 {
		return SrcKey{File: b.Ops[0].File, Line: b.Ops[0].Line}
	}
	return SrcKey{File: b.Term.File, Line: b.Term.Line}
}

// branchProb returns the probability of the Then edge of block b's
// conditional branch. With PGO it comes from the source-keyed profile:
// the successor distribution at the branch's source line, matched against
// the Then block's source coordinate. Merged across inline copies
// (Figure 2); unknown branches default to 0.5.
func branchProb(f *ir.Func, b *ir.Block, prof *SourceProfile) float64 {
	if prof == nil {
		return 0.5
	}
	st := prof.Branch[SrcKey{File: b.Term.File, Line: b.Term.Line}]
	if st == nil || st.Total == 0 {
		return 0.5
	}
	thenKey := blockSrc(f, b.Term.Then)
	elseKey := blockSrc(f, b.Term.Else)
	if thenKey == elseKey {
		return 0.5
	}
	thenCnt := st.BySucc[thenKey]
	elseCnt := st.BySucc[elseKey]
	if thenCnt+elseCnt == 0 {
		return 0.5
	}
	return float64(thenCnt) / float64(thenCnt+elseCnt)
}

// estimateFreqs propagates an entry frequency of 1.0 through edge
// probabilities for a fixed number of rounds (enough for the loop depths
// our workloads generate; exact dataflow convergence is not required for a
// layout heuristic).
func estimateFreqs(f *ir.Func, prof *SourceProfile) []float64 {
	n := len(f.Blocks)
	freq := make([]float64, n)
	freq[0] = 1
	for round := 0; round < 32; round++ {
		next := make([]float64, n)
		next[0] = 1
		for i, b := range f.Blocks {
			out := freq[i]
			if out == 0 {
				continue
			}
			switch b.Term.Kind {
			case ir.TermJump:
				next[b.Term.Then] += out
			case ir.TermBranch:
				p := branchProb(f, b, prof)
				next[b.Term.Then] += out * p
				next[b.Term.Else] += out * (1 - p)
			case ir.TermSwitch:
				share := out / float64(len(b.Term.Targets))
				for _, t := range b.Term.Targets {
					next[t] += share
				}
			}
		}
		// Dampen to avoid blow-up on loops: cap at a large value.
		for i := range next {
			if next[i] > 1e6 {
				next[i] = 1e6
			}
		}
		freq = next
	}
	return freq
}

// layoutBlocks returns the emission order of blocks. Without PGO this is
// source order (the generator's "natural" order, cold paths inline, which
// is what un-profiled compilers emit). With PGO it is a greedy
// likeliest-successor chain with cold blocks sunk to the end — a
// reorder-blocks analogue operating on (source-merged) profile data.
func layoutBlocks(f *ir.Func, opts Options) []int {
	n := len(f.Blocks)
	order := make([]int, 0, n)
	if opts.PGO == nil || n <= 2 {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		return order
	}

	freq := estimateFreqs(f, opts.PGO)
	placed := make([]bool, n)
	place := func(i int) {
		order = append(order, i)
		placed[i] = true
	}

	// Hot chain from the entry.
	cur := 0
	place(0)
	for {
		b := f.Blocks[cur]
		next := -1
		var bestW float64 = -1
		consider := func(t int, w float64) {
			if t >= 0 && t < n && !placed[t] && w > bestW {
				next, bestW = t, w
			}
		}
		switch b.Term.Kind {
		case ir.TermJump:
			consider(b.Term.Then, 1)
		case ir.TermBranch:
			p := branchProb(f, b, opts.PGO)
			consider(b.Term.Then, p)
			consider(b.Term.Else, 1-p)
		case ir.TermSwitch:
			for _, t := range b.Term.Targets {
				consider(t, freq[t])
			}
		}
		if next == -1 {
			// Chain ended; restart from the hottest unplaced block.
			for i := 0; i < n; i++ {
				if !placed[i] {
					consider(i, freq[i]+1e-9)
				}
			}
			if next == -1 {
				break
			}
		}
		place(next)
		cur = next
	}

	// Stable split: hot blocks stay in chain order, cold blocks
	// (relative frequency below 0.05%) sink to the end.
	const coldFrac = 0.0005
	maxF := 0.0
	for _, v := range freq {
		if v > maxF {
			maxF = v
		}
	}
	var hot, cold []int
	for _, i := range order {
		if i != 0 && freq[i] < coldFrac*maxF {
			cold = append(cold, i)
		} else {
			hot = append(hot, i)
		}
	}
	return append(hot, cold...)
}
