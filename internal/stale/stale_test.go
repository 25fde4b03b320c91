package stale

import (
	"testing"

	"gobolt/internal/profile"
)

func bs(off, hash uint64, succs ...int) profile.BlockShape {
	return profile.BlockShape{Off: off, Hash: hash, Succs: succs}
}

func TestMatchExactHashes(t *testing.T) {
	// Same blocks, shifted offsets (the new-release case).
	old := []profile.BlockShape{bs(0, 100, 1, 2), bs(0x10, 200, 2), bs(0x20, 300)}
	cur := []profile.BlockShape{bs(0, 100, 1, 2), bs(0x18, 200, 2), bs(0x28, 300)}
	m := new(Matcher).Match(old, cur)
	for i := 0; i < 3; i++ {
		if m[i] != int32(i) {
			t.Fatalf("block %d matched to %d: %v", i, m[i], m)
		}
	}
}

func TestMatchNeighborDisambiguation(t *testing.T) {
	// Blocks 1 and 2 share a hash; successor context tells them apart:
	// old block 1 -> terminator A (400), old block 2 -> terminator B (500).
	old := []profile.BlockShape{
		bs(0x00, 100, 1, 2),
		bs(0x10, 777, 3),
		bs(0x20, 777, 4),
		bs(0x30, 400),
		bs(0x40, 500),
	}
	// Current CFG reorders the duplicate pair.
	cur := []profile.BlockShape{
		bs(0x00, 100, 2, 1),
		bs(0x14, 777, 4),
		bs(0x24, 777, 3),
		bs(0x34, 400),
		bs(0x44, 500),
	}
	m := new(Matcher).Match(old, cur)
	// old 1 leads to hash-400 (cur index 3); in cur that is block 2.
	if m[1] != 2 || m[2] != 1 {
		t.Fatalf("neighbor disambiguation failed: %v", m)
	}
	if m[3] != 3 || m[4] != 4 || m[0] != 0 {
		t.Fatalf("unique blocks mismatched: %v", m)
	}
}

func TestMatchPositionalFallback(t *testing.T) {
	// The entry block's code changed (new hash) but its position and
	// successor arity survived.
	old := []profile.BlockShape{bs(0, 111, 1, 2), bs(0x10, 200), bs(0x20, 300)}
	cur := []profile.BlockShape{bs(0, 999, 1, 2), bs(0x14, 200), bs(0x24, 300)}
	m := new(Matcher).Match(old, cur)
	if m[0] != 0 {
		t.Fatalf("positional fallback failed: %v", m)
	}
}

func TestMatchRefusesIncompatiblePositional(t *testing.T) {
	// Leftovers with different successor arity must not pair up.
	old := []profile.BlockShape{bs(0, 111, 1, 2), bs(0x10, 200)}
	cur := []profile.BlockShape{bs(0, 999), bs(0x14, 200)}
	m := new(Matcher).Match(old, cur)
	if len(m) != len(old) {
		t.Fatalf("result has %d entries for %d old blocks", len(m), len(old))
	}
	if got := m[0]; got != -1 {
		t.Fatalf("incompatible blocks matched: 0 -> %d", got)
	}
	if m[1] != 1 {
		t.Fatalf("the unmatched block hid its neighbour's match: %v", m)
	}
}

func TestMatchFewerCurrentBlocks(t *testing.T) {
	// The new release lost a block: every old block still has an entry,
	// the one with no counterpart reads -1, and no entry points past cur.
	old := []profile.BlockShape{bs(0, 100, 1), bs(0x10, 200, 2), bs(0x20, 300)}
	cur := []profile.BlockShape{bs(0, 100, 1), bs(0x10, 300)}
	m := new(Matcher).Match(old, cur)
	if len(m) != 3 || m[0] != 0 || m[1] != -1 || m[2] != 1 {
		t.Fatalf("match = %v, want [0 -1 1]", m)
	}
}

func TestShapesEqual(t *testing.T) {
	a := profile.FuncShape{Blocks: []profile.BlockShape{bs(0, 1, 1), bs(8, 2)}}
	b := profile.FuncShape{Blocks: []profile.BlockShape{bs(0, 1, 1), bs(8, 2)}}
	if !ShapesEqual(a, b) {
		t.Fatal("identical shapes reported unequal")
	}
	c := profile.FuncShape{Blocks: []profile.BlockShape{bs(0, 1, 1), bs(9, 2)}}
	if ShapesEqual(a, c) {
		t.Fatal("shifted shapes reported equal")
	}
	d := profile.FuncShape{Blocks: []profile.BlockShape{bs(0, 1, 1)}}
	if ShapesEqual(a, d) {
		t.Fatal("different block counts reported equal")
	}
}

func TestBlockAtOff(t *testing.T) {
	blocks := []profile.BlockShape{bs(0, 1), bs(0x10, 2), bs(0x30, 3)}
	cases := []struct {
		off  uint64
		want int
	}{{0, 0}, {0xF, 0}, {0x10, 1}, {0x2F, 1}, {0x30, 2}, {0x1000, 2}}
	for _, c := range cases {
		if got := BlockAtOff(blocks, c.off); got != c.want {
			t.Errorf("BlockAtOff(%#x) = %d, want %d", c.off, got, c.want)
		}
	}
	if got := BlockAtOff(nil, 0); got != -1 {
		t.Errorf("BlockAtOff(empty) = %d, want -1", got)
	}
}

func TestHashBytes(t *testing.T) {
	if HashBytes([]byte{1, 2}) == HashBytes([]byte{2, 1}) {
		t.Fatal("hash is order-insensitive")
	}
	if HashBytes(nil) != HashBytes([]byte{}) {
		t.Fatal("empty hashes differ")
	}
}
