// Package stale implements hash-based CFG block matching for stale
// profiles, after "Stale Profile Matching" (Ayupov, Panchenko, Pupyrev;
// arXiv:2401.17168). A profile records (function, offset) pairs that stop
// resolving when the binary is rebuilt from changed source: block offsets
// shift even where the code is unchanged. Instead of dropping those
// records, the profile carries the *shapes* of the profiled binary's
// CFGs (profile.BlockShape: offset, opcode-sequence hash, successor
// indices), and this package matches old blocks to the current CFG:
//
//  1. unique opcode-hash match (identical code, moved);
//  2. unique (hash, neighbor-hash) match, disambiguating repeated bodies
//     by their successor context;
//  3. order-preserving positional match of the leftovers with a
//     successor-arity compatibility check (catches blocks whose code was
//     edited but whose place in the layout survived, e.g. a prologue
//     that gained instrumentation in the new release).
//
// The package is deliberately engine-agnostic: it depends only on
// internal/profile, so both the optimizer (internal/core) and offline
// tooling can share one matcher without an import cycle.
package stale

import (
	"cmp"
	"slices"

	"gobolt/internal/profile"
	"gobolt/internal/scratch"
)

// HashSeed/hashPrime are the FNV-1a 64-bit parameters.
const (
	hashSeed  uint64 = 0xCBF29CE484222325
	hashPrime uint64 = 0x100000001B3
)

// HashBytes hashes an opcode byte stream (FNV-1a). Callers feed it the
// per-instruction opcode encoding of a basic block; two blocks hash equal
// iff their opcode sequences are identical. Registers and immediates are
// deliberately excluded so the match survives register-allocation and
// constant drift between compiler runs.
func HashBytes(b []byte) uint64 {
	h := hashSeed
	for _, c := range b {
		h ^= uint64(c)
		h *= hashPrime
	}
	return h
}

// combine mixes two hashes order-sensitively.
func combine(h, x uint64) uint64 {
	h ^= x + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	return h
}

// neighborHash extends a block's own hash with its successors' hashes in
// edge order — the disambiguator for repeated identical bodies.
func neighborHash(blocks []profile.BlockShape, i int) uint64 {
	h := blocks[i].Hash
	for _, s := range blocks[i].Succs {
		if s >= 0 && s < len(blocks) {
			h = combine(h, blocks[s].Hash)
		}
	}
	return h
}

// Matcher holds the buffers Match works in. A worker keeps one across
// the functions it matches, so a match allocates only the slice it
// returns. The zero value is ready to use.
type Matcher struct {
	keys               []keyed
	oldTaken, curTaken []bool
}

// keyed is one unmatched block under a round's key: its index, and
// whether it is a current block (cur) or an old one.
type keyed struct {
	key uint64
	idx int32
	cur bool
}

// Match maps old block indices to current block indices: out[i] is the
// index in cur that old block i matched, -1 when it matched none. Both
// slices are in layout order (profile.FuncShape convention). It works in
// m's buffers; only the returned slice is new.
func (m *Matcher) Match(old, cur []profile.BlockShape) []int32 {
	out := make([]int32, len(old))
	for i := range out {
		out[i] = -1
	}
	m.oldTaken = scratch.Zeroed(m.oldTaken, len(old))
	m.curTaken = scratch.Zeroed(m.curTaken, len(cur))
	oldTaken, curTaken := m.oldTaken, m.curTaken

	// A key matches when it is unique among the unmatched blocks on BOTH
	// sides; collisions wait for a later, stricter round. Sorting the
	// unmatched blocks of both sides by key puts each key's blocks in one
	// run, and a run of one old and one current block is a match.
	match := func(key func(bs []profile.BlockShape, i int) uint64) {
		keys := m.keys[:0]
		for i := range old {
			if !oldTaken[i] {
				keys = append(keys, keyed{key(old, i), int32(i), false})
			}
		}
		for j := range cur {
			if !curTaken[j] {
				keys = append(keys, keyed{key(cur, j), int32(j), true})
			}
		}
		m.keys = keys
		slices.SortFunc(keys, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
		for lo := 0; lo < len(keys); {
			hi := lo + 1
			for hi < len(keys) && keys[hi].key == keys[lo].key {
				hi++
			}
			if run := keys[lo:hi]; len(run) == 2 && run[0].cur != run[1].cur {
				i, j := run[0].idx, run[1].idx
				if run[0].cur {
					i, j = j, i
				}
				out[i] = j
				oldTaken[i] = true
				curTaken[j] = true
			}
			lo = hi
		}
	}

	// Round 1: exact opcode hash. Round 2: hash + successor context.
	match(func(bs []profile.BlockShape, i int) uint64 { return bs[i].Hash })
	match(neighborHash)

	// Round 3: positional. Walk the unmatched remainders of both sides in
	// layout order; each old block takes the next unmatched current block
	// with the same successor arity — the weakest signal, used only for
	// blocks whose code actually changed. The cursor only advances past a
	// current block when it is consumed by a match, so an incompatible
	// old block (no candidate anywhere ahead) does not rob later old
	// blocks of their order-preserving matches.
	j := 0
	for i := range old {
		if oldTaken[i] {
			continue
		}
		for k := j; k < len(cur); k++ {
			if curTaken[k] || len(old[i].Succs) != len(cur[k].Succs) {
				continue
			}
			out[i] = int32(k)
			oldTaken[i] = true
			curTaken[k] = true
			j = k + 1
			break
		}
	}
	return out
}

// ShapesEqual reports whether two shapes describe byte-for-byte the same
// CFG layout: same block count, offsets, and hashes. When true, profile
// offsets resolve directly and no matching is needed.
func ShapesEqual(a, b profile.FuncShape) bool {
	if len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Blocks {
		if a.Blocks[i].Off != b.Blocks[i].Off || a.Blocks[i].Hash != b.Blocks[i].Hash {
			return false
		}
	}
	return true
}

// BlockAtOff returns the index of the shape block containing off (the
// block with the greatest start offset <= off), or -1. Blocks are in
// layout order but offsets need not be contiguous; containment is by
// start offset only, matching how profile offsets anchor to blocks.
func BlockAtOff(blocks []profile.BlockShape, off uint64) int {
	lo, hi := 0, len(blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if blocks[mid].Off <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// HasSucc reports whether shape block i lists j as a successor.
func HasSucc(blocks []profile.BlockShape, i, j int) bool {
	if i < 0 || i >= len(blocks) {
		return false
	}
	for _, s := range blocks[i].Succs {
		if s == j {
			return true
		}
	}
	return false
}
