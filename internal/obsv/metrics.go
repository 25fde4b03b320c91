package obsv

import (
	"fmt"
	"maps"
	"sync"
)

// Def declares one counter: its name and documentation. A def may name a
// SumTo parent — the registry can then check that the children sum
// exactly to the parent (the profile-accounting invariant).
type Def struct {
	Name  string
	Help  string
	SumTo string // parent this counter must sum into
}

// Registry is the typed home for the pipeline's counters. A counter is
// addressed by its index in the definitions the registry was built from
// — the engine's typed keys (core.Stat) are exactly those indices — so no
// method takes a name and an undeclared counter cannot be recorded.
// Values live in one by-name map, handed out by Counters() and aliased by
// the engine as ctx.Stats. A counter has a key there iff its value is
// non-zero.
type Registry struct {
	mu       sync.Mutex
	defs     []Def
	counters map[string]int64
}

// NewRegistry builds a registry from counter definitions.
func NewRegistry(defs []Def) *Registry {
	return &Registry{
		defs:     append([]Def(nil), defs...),
		counters: make(map[string]int64),
	}
}

// Counters returns the live by-name counter map. The engine aliases this
// as the compatibility ctx.Stats view; readers between phases see current
// values.
func (r *Registry) Counters() map[string]int64 { return r.counters }

// Add bumps counter id by delta.
func (r *Registry) Add(id int, delta int64) {
	r.mu.Lock()
	r.bump(id, delta)
	r.mu.Unlock()
}

// Merge folds a per-worker shard (one slot per definition) into the
// counters; merging is commutative so barrier joins stay deterministic.
func (r *Registry) Merge(shard []int64) {
	r.mu.Lock()
	for id, v := range shard {
		r.bump(id, v)
	}
	r.mu.Unlock()
}

func (r *Registry) bump(id int, delta int64) {
	if delta == 0 {
		return
	}
	name := r.defs[id].Name
	if v := r.counters[name] + delta; v != 0 {
		r.counters[name] = v
	} else {
		delete(r.counters, name)
	}
}

// CopyCounts copies the counter values, by definition index, into dst
// (the pass manager's stat-delta bookkeeping).
func (r *Registry) CopyCounts(dst []int64) {
	r.mu.Lock()
	for id, d := range r.defs {
		dst[id] = r.counters[d.Name]
	}
	r.mu.Unlock()
}

// Snapshot copies the by-name counters for a run report.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.counters)
}

// CheckSums verifies every SumTo group: the children declared to sum
// into a parent counter must add up to it exactly.
func (r *Registry) CheckSums() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sums := map[string]int64{}
	var parents []string
	for _, d := range r.defs {
		if d.SumTo == "" {
			continue
		}
		if _, ok := sums[d.SumTo]; !ok {
			parents = append(parents, d.SumTo)
		}
		sums[d.SumTo] += r.counters[d.Name]
	}
	for _, p := range parents {
		if got, want := sums[p], r.counters[p]; got != want {
			return fmt.Errorf("metrics: counters declared to sum into %q total %d, want %d", p, got, want)
		}
	}
	return nil
}
