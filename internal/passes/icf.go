package passes

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"

	"gobolt/internal/core"
)

// ICF folds functions with identical semantics (Table 1, pass 2).
// Unlike linker ICF, it operates on the *reconstructed CFG*, so it can
// fold functions containing jump tables and functions that were not
// compiled with -ffunction-sections: bodies are compared structurally
// with internal control-flow targets normalized to block indices and
// external references symbolized (paper §4: ~3% size win over the
// linker's pass on HHVM).
//
// ICF runs in two pipeline steps: digest computation is sharded across
// the worker pool (ICFHash, a FunctionPass — each function's canonical
// body depends only on that function), while the fold itself stays a
// short sequential barrier (ICF.Run compares and mutates arbitrary
// function pairs, so it cannot run per-function). Like BOLT (§4), the
// hash only nominates candidates: the fold re-encodes both bodies and
// folds on exact equality, so no body outlives the hash pass and a
// digest collision costs a comparison, never a wrong fold.

// ICFHash computes each candidate function's body digest ahead of the
// fold. Schedule it (via ForEachFunction) immediately before ICF.
type ICFHash struct{}

// Name implements core.FunctionPass.
func (ICFHash) Name() string { return "icf-hash" }

// RunOnFunction implements core.FunctionPass.
func (ICFHash) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	if icfEligible(fn) {
		fc.Scratch = appendICFBody(fc.Scratch[:0], fc.BinaryContext, fn)
		fn.ICFDigest = icfDigest(fc.Scratch) | 1 // 0 means none
		fc.CountStat(core.StatICFHashed, 1)
	}
	return nil
}

// icfEligible reports whether ICF may consider folding fn.
func icfEligible(fn *core.BinaryFunction) bool {
	if !fn.Simple || fn.FoldedInto != nil || fn.Name == "_start" {
		return false
	}
	// Conservative: exception tables complicate folding.
	return !fn.HasLSDA
}

// ICF is the fold step: a sequential barrier that buckets the
// precomputed digests and folds congruent functions.
type ICF struct{}

// Name implements core.Pass.
func (ICF) Name() string { return "icf" }

// Run implements core.Pass. Functions are visited in the context's
// address-sorted order, so the kept (canonical) member of every
// congruence class is the first in address order however the digests
// were computed.
func (ICF) Run(ctx *core.BinaryContext) error {
	// kept holds one function per distinct body seen so far, keyed by
	// digest; a body whose digest slot is taken by a different body
	// probes the following keys, so colliding bodies chain without a
	// per-bucket list.
	kept := map[uint64]*core.BinaryFunction{}
	var body, other []byte
	for _, fn := range ctx.Funcs {
		if !icfEligible(fn) {
			continue
		}
		// Consume the cached digest: bodies may change before a later
		// ICF run recomputes it. Compute on demand when ICF runs
		// without a preceding ICFHash pass.
		d := fn.ICFDigest
		fn.ICFDigest, body = 0, body[:0]
		if d == 0 {
			body = appendICFBody(body, ctx, fn)
			d = icfDigest(body) | 1
		}
		var twin *core.BinaryFunction
		for ; twin == nil; d++ {
			cand, ok := kept[d]
			if !ok {
				kept[d] = fn
				break
			}
			if len(body) == 0 {
				body = appendICFBody(body, ctx, fn)
			}
			if other = appendICFBody(other[:0], ctx, cand); bytes.Equal(body, other) {
				twin = cand
			}
		}
		if twin == nil {
			continue
		}
		fn.FoldedInto = twin
		twin.Aliases = append(twin.Aliases, fn.Name)
		twin.ExecCount += fn.ExecCount
		// Merge block profile so layout decisions see total heat. Equal
		// bodies have equal block and successor counts.
		for i, b := range fn.Blocks {
			tb := twin.Blocks[i]
			tb.ExecCount += b.ExecCount
			for k := range b.Succs {
				tb.Succs[k].Count += b.Succs[k].Count
				tb.Succs[k].Mispreds += b.Succs[k].Mispreds
			}
		}
		ctx.CountStat(core.StatICFFolded, 1)
		ctx.CountStat(core.StatICFBytes, int64(fn.Size))
	}
	return nil
}

// icfDigest hashes a canonical body; a variable so that tests can force
// collisions. The seed differs from process to process, which cannot show
// in the output: the digest only nominates candidates.
var (
	icfSeed   = maphash.MakeSeed()
	icfDigest = func(body []byte) uint64 { return maphash.Bytes(icfSeed, body) }
)

// appendICFBody appends fn's canonical body to buf: block boundaries,
// instructions with intra-function targets as block indices, external
// targets as symbols, memory targets as absolute addresses (data does not
// move), and jump tables as target-index sequences. An instruction record
// opens with 'I' and has a fixed part, the symbol's function reference
// and an optional jump-table part ('T', or 'P' for a PIC table); a zero byte and
// the length-prefixed successor list close the block. The bytes parse one
// way only, so two bodies are equal iff their encodings are.
func appendICFBody(buf []byte, ctx *core.BinaryContext, fn *core.BinaryFunction) []byte {
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			kind, mem := byte('M'), in.MemAddr() // 'M' with 0: no memory operand
			switch {
			case mem != 0 && slices.ContainsFunc(fn.JTs, func(jt core.JumpTable) bool { return jt.Addr == mem }):
				// The function's own jump tables are position-dependent
				// data; the *structure* (entry target blocks) is compared
				// instead, so two clones with distinct table addresses
				// still fold — the capability linkers lack (§4).
				kind, mem = 'J', 0
			case mem == 0 && in.I.HasMem():
				m := in.I.M
				kind = 'm'
				mem = uint64(m.Base) | uint64(m.Index)<<8 | uint64(m.Scale)<<16 | uint64(uint32(in.I.Disp()))<<32
			}
			// Branch targets stay out: the successor lists carry them as
			// block indices.
			var imm int64
			if in.I.HasImm() {
				imm = in.I.Imm()
			}
			buf = append(buf, 'I', byte(in.I.Op), byte(in.I.R1), byte(in.I.R2), byte(in.I.Cc), kind)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(imm))
			buf = binary.LittleEndian.AppendUint64(buf, mem)
			buf = binary.AppendUvarint(buf, uint64(ctx.TargetSym(fn, in)))
			if jt := fn.JumpTable(in); jt != nil {
				tag := byte('T')
				if jt.PIC {
					tag = 'P'
				}
				buf = append(buf, tag)
				buf = binary.AppendUvarint(buf, uint64(len(jt.Targets)))
				for _, t := range jt.Targets {
					buf = binary.AppendUvarint(buf, uint64(blockPos(fn, t)))
				}
			}
		}
		buf = binary.AppendUvarint(append(buf, 0), uint64(len(b.Succs)))
		for _, e := range b.Succs {
			buf = binary.AppendUvarint(buf, uint64(blockPos(fn, e.To)))
		}
	}
	return buf
}

// blockPos returns t's position in fn.Blocks, 0 when it has none (an
// unresolved jump-table slot). Passes keep Index equal to the position,
// so the search is a fallback only.
func blockPos(fn *core.BinaryFunction, t *core.BasicBlock) int {
	if t != nil && t.Index < len(fn.Blocks) && fn.Blocks[t.Index] == t {
		return t.Index
	}
	return max(slices.Index(fn.Blocks, t), 0)
}
