package stale

import (
	"math/rand"
	"slices"
	"testing"

	"gobolt/internal/profile"
)

// refMatch is Match as it stood before it sorted keys: each round builds
// maps of the unmatched blocks by key on both sides and matches the keys
// unique on both. It is kept as the oracle.
func refMatch(old, cur []profile.BlockShape) []int32 {
	out := make([]int32, len(old))
	for i := range out {
		out[i] = -1
	}
	oldTaken := make([]bool, len(old))
	curTaken := make([]bool, len(cur))
	match := func(key func(bs []profile.BlockShape, i int) uint64) {
		oldByKey, oldDup := map[uint64]int{}, map[uint64]bool{}
		for i := range old {
			if oldTaken[i] {
				continue
			}
			k := key(old, i)
			if _, ok := oldByKey[k]; ok {
				oldDup[k] = true
			}
			oldByKey[k] = i
		}
		curByKey, curDup := map[uint64]int{}, map[uint64]bool{}
		for j := range cur {
			if curTaken[j] {
				continue
			}
			k := key(cur, j)
			if _, ok := curByKey[k]; ok {
				curDup[k] = true
			}
			curByKey[k] = j
		}
		for k, i := range oldByKey {
			if oldDup[k] || curDup[k] {
				continue
			}
			if j, ok := curByKey[k]; ok {
				out[i] = int32(j)
				oldTaken[i] = true
				curTaken[j] = true
			}
		}
	}
	match(func(bs []profile.BlockShape, i int) uint64 { return bs[i].Hash })
	match(neighborHash)
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

// randomShape draws n blocks whose hashes come from a small alphabet, so
// repeated bodies (round 2's case) and leftovers (round 3's) are common.
func randomShape(r *rand.Rand, n, hashes int) []profile.BlockShape {
	blocks := make([]profile.BlockShape, n)
	for i := range blocks {
		blocks[i] = profile.BlockShape{Off: uint64(16 * i), Hash: uint64(r.Intn(hashes))}
		for k := r.Intn(3); k > 0; k-- {
			blocks[i].Succs = append(blocks[i].Succs, r.Intn(n+1)) // n: an index past the end
		}
	}
	return blocks
}

// TestMatchMatchesReference: the same result as the map-based matcher on
// seeded random shape pairs, some of them an edit of the other, through
// one Matcher reused across every pair.
func TestMatchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	var m Matcher
	for i := 0; i < 3000; i++ {
		hashes := 1 + r.Intn(12)
		old := randomShape(r, r.Intn(24), hashes)
		cur := randomShape(r, r.Intn(24), hashes)
		if r.Intn(2) == 0 {
			// An edit of old: a few blocks rehashed, one dropped.
			cur = slices.Clone(old)
			for k := range cur {
				if r.Intn(5) == 0 {
					cur[k].Hash = uint64(r.Intn(hashes))
				}
			}
			if len(cur) > 1 {
				k := r.Intn(len(cur))
				cur = slices.Delete(cur, k, k+1)
			}
		}
		want := refMatch(old, cur)
		if got := m.Match(old, cur); !slices.Equal(got, want) {
			t.Fatalf("pair %d:\n got  %v\n want %v\n old %v\n cur %v", i, got, want, old, cur)
		}
	}
}
