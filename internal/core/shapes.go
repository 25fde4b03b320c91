package core

import (
	"slices"

	"gobolt/internal/profile"
	"gobolt/internal/scratch"
	"gobolt/internal/stale"
)

// ComputeShapes captures the block-level shape of every simple function
// for embedding in a v2 profile: per block, its input offset, an
// opcode-sequence hash, and its successor indices. A later gobolt run on
// a *different* build of the program uses these via internal/stale to
// re-anchor profile records whose offsets no longer resolve. Call it on a
// freshly loaded context (before passes restructure the CFGs) so block
// indices and offsets reflect the on-disk layout the profiler saw.
func ComputeShapes(ctx *BinaryContext) map[string]profile.FuncShape {
	out := make(map[string]profile.FuncShape)
	var sc shapeScratch
	for _, fn := range ctx.Funcs {
		if !fn.Simple || fn.FoldedInto != nil || len(fn.Blocks) == 0 {
			continue
		}
		out[fn.Name] = sc.shape(fn)
		sc.blocks, sc.succs = nil, nil // the map keeps them
	}
	return out
}

// shapeScratch holds the buffers a function's shape is built in: one
// block array, one successor slab and the opcode bytes being hashed. A
// worker keeps one across the functions it visits.
type shapeScratch struct {
	blocks []profile.BlockShape
	succs  []int
	ops    []byte
}

// shape builds fn's shape in sc's buffers. The shape, its blocks and
// their successor lists are sc's until the next call.
func (sc *shapeScratch) shape(fn *BinaryFunction) profile.FuncShape {
	nSuccs := 0
	for _, b := range fn.Blocks {
		nSuccs += len(b.Succs)
	}
	blocks := scratch.Zeroed(sc.blocks, len(fn.Blocks))
	// Grown once to hold every list, so the appends below never move
	// the windows already cut from it.
	succs := slices.Grow(sc.succs[:0], nSuccs)
	for i, b := range fn.Blocks {
		ops := sc.ops[:0]
		for k := range b.Insts {
			in := &b.Insts[k].I
			ops = append(ops, byte(in.Op), byte(in.Cc))
		}
		sc.ops = ops
		start := len(succs)
		for _, e := range b.Succs {
			if e.To != nil {
				succs = append(succs, e.To.Index)
			}
		}
		bs := profile.BlockShape{Off: b.Addr - fn.Addr, Hash: stale.HashBytes(ops)}
		if len(succs) > start {
			bs.Succs = succs[start:len(succs):len(succs)]
		}
		blocks[i] = bs
	}
	sc.blocks, sc.succs = blocks, succs
	return profile.FuncShape{Blocks: blocks}
}
