package obsv

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// MetricKind classifies a registered metric.
type MetricKind uint8

const (
	Counter MetricKind = iota
	Gauge
	HistogramKind
)

func (k MetricKind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case HistogramKind:
		return "histogram"
	}
	return "unknown"
}

// Def declares one metric: its name, kind, and documentation. Counter
// defs may name a SumTo parent — the registry can then check that the
// children sum exactly to the parent (the profile-accounting
// invariant). Histogram defs carry their bucket upper bounds.
type Def struct {
	Name    string
	Kind    MetricKind
	Help    string
	SumTo   string    // counters: parent this counter must sum into
	Buckets []float64 // histograms: ascending bucket upper bounds
}

// Obs is one labeled histogram observation kept verbatim — the
// registry retains the lowest-valued observations per histogram so a
// quality gate can name the worst functions, not just count them.
type Obs struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
}

// maxWorstObs bounds the per-histogram worst-observation list.
const maxWorstObs = 8

// Histogram is a fixed-bucket histogram with labeled worst-case
// retention. Counts[i] holds observations <= Buckets[i]; the final
// element overflows.
type Histogram struct {
	def    Def
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
	worst  []Obs // ascending by value, capped at maxWorstObs
}

func (h *Histogram) observe(label string, v float64) {
	i := sort.SearchFloat64s(h.def.Buckets, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
	at := sort.Search(len(h.worst), func(i int) bool {
		if h.worst[i].Value != v {
			return h.worst[i].Value > v
		}
		return h.worst[i].Label > label
	})
	if at < maxWorstObs {
		h.worst = append(h.worst, Obs{})
		copy(h.worst[at+1:], h.worst[at:])
		h.worst[at] = Obs{Label: label, Value: v}
		if len(h.worst) > maxWorstObs {
			h.worst = h.worst[:maxWorstObs]
		}
	}
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Name    string    `json:"name"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Worst   []Obs     `json:"worst,omitempty"`
}

// Snapshot is a point-in-time copy of the registry, shaped for the run
// report's metrics section.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry is the typed home for the pipeline's stats. A metric is
// addressed by its index in the definitions the registry was built from
// — the engine's typed keys (core.Stat) are exactly those indices — so no
// method takes a name and an undeclared metric cannot be recorded.
// Counters live in vals; counters is the by-name view of the same values,
// handed out by Counters() and aliased by the engine as ctx.Stats. A
// counter has a key there iff its value is non-zero.
type Registry struct {
	mu       sync.Mutex
	defs     []Def
	vals     []int64 // counter values by definition index
	counters map[string]int64
	gauges   map[string]float64
	hists    []*Histogram // by definition index; nil for non-histograms
}

// NewRegistry builds a registry from metric definitions. Histogram defs
// must carry ascending bucket bounds.
func NewRegistry(defs []Def) *Registry {
	r := &Registry{
		defs:     append([]Def(nil), defs...),
		vals:     make([]int64, len(defs)),
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make([]*Histogram, len(defs)),
	}
	for id, d := range defs {
		if d.Kind == HistogramKind {
			r.hists[id] = &Histogram{def: d, counts: make([]int64, len(d.Buckets)+1)}
		}
	}
	return r
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
	r.vals[id] += delta
	if v := r.vals[id]; v != 0 {
		r.counters[r.defs[id].Name] = v
	} else {
		delete(r.counters, r.defs[id].Name)
	}
}

// SetGauge records a point-in-time value for gauge id.
func (r *Registry) SetGauge(id int, v float64) {
	r.mu.Lock()
	r.gauges[r.defs[id].Name] = v
	r.mu.Unlock()
}

// Observe records a labeled value into histogram id.
func (r *Registry) Observe(id int, label string, v float64) {
	if math.IsNaN(v) {
		return
	}
	r.mu.Lock()
	r.hists[id].observe(label, v)
	r.mu.Unlock()
}

// CopyCounts copies the counter values, by definition index, into dst
// (the pass manager's stat-delta bookkeeping).
func (r *Registry) CopyCounts(dst []int64) {
	r.mu.Lock()
	copy(dst, r.vals)
	r.mu.Unlock()
}

// Snapshot copies the whole registry for a run report. Histograms with
// no observations are omitted.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{Counters: make(map[string]int64, len(r.counters))}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			s.Gauges[k] = v
		}
	}
	for _, h := range r.hists {
		if h == nil || h.count == 0 {
			continue
		}
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name:    h.def.Name,
			Count:   h.count,
			Sum:     h.sum,
			Min:     h.min,
			Max:     h.max,
			Buckets: append([]float64(nil), h.def.Buckets...),
			Counts:  append([]int64(nil), h.counts...),
			Worst:   append([]Obs(nil), h.worst...),
		})
	}
	return s
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
