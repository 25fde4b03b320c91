package main

import (
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call (the layers themselves are not instrumented for
// this). Spans of one operation share Op; Parent is the index of the span
// that caused this one, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	// Mallocs is the heap-allocation count of the interval (delta of
	// runtime/metrics /gc/heap/allocs:objects), the layer's work as a
	// count.
	Mallocs uint64 `json:"mallocs"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory until the run ends. It is used from the
// benchmark's one driving goroutine, so the innermost open span is the
// parent of the next. A nil *tracer records nothing, which is how
// end-to-end runs keep tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans in progress, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// mallocs reads the cumulative heap-allocation count without stopping
// the world, so a span costs microseconds (runtime.ReadMemStats would
// stop it twice per span).
func mallocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// call runs fn inside a span belonging to operation op.
func (t *tracer) call(name string, op int, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op})
	t.open = append(t.open, id)
	m0 := mallocs()
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	s := &t.spans[id]
	s.StartNS, s.EndNS, s.Mallocs = start.Nanoseconds(), end.Nanoseconds(), mallocs()-m0
	t.open = t.open[:len(t.open)-1]
	return err
}

// byOp groups the spans named name by operation, summing repeats within
// one operation (a pass that runs twice is one number per op).
func (t *tracer) byOp(name string) (secs, allocs []float64) {
	idx := map[int]int{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		i, ok := idx[s.Op]
		if !ok {
			i = len(secs)
			idx[s.Op] = i
			secs, allocs = append(secs, 0), append(allocs, 0)
		}
		secs[i] += s.seconds()
		allocs[i] += float64(s.Mallocs)
	}
	return secs, allocs
}
