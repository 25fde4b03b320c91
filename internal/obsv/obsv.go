// Package obsv is the pipeline's zero-dependency tracing subsystem: a
// low-overhead span tracer (per-worker append-only buffers, no locks on
// the hot path), a Chrome trace-event exporter, derived per-phase
// occupancy statistics, and the pprof hooks the command-line tools
// share. The engine's counters are not kept here: they live in
// core.BinaryContext.Stats.
//
// A nil *Tracer is the disabled state: every instrumentation site
// nil-checks before recording, so tracing off costs a pointer compare
// and no allocations.
package obsv

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Kind classifies a recorded span.
type Kind uint8

const (
	// KindPhase marks one pipeline phase (a pass, a loader or emitter
	// stage); phase spans live on the dedicated pipeline lane.
	KindPhase Kind = iota
	// KindBatch marks one worker's participation in a pooled phase:
	// the interval from the worker claiming its first item to the pool
	// draining. N carries the number of items the worker completed.
	KindBatch
	// KindTask marks one work item (typically one function) executed by
	// a worker inside a pooled phase.
	KindTask
)

func (k Kind) String() string {
	switch k {
	case KindPhase:
		return "phase"
	case KindBatch:
		return "batch"
	case KindTask:
		return "task"
	}
	return "unknown"
}

// Span is one recorded interval. Start is relative to the tracer epoch
// so spans order and export without re-reading the wall clock.
type Span struct {
	Kind   Kind
	Name   string        // phase name, or task/function name
	Phase  string        // owning phase (== Name for phase spans)
	Worker int           // worker lane; -1 for phase spans
	Start  time.Duration // offset from the tracer epoch
	Dur    time.Duration
	N      int // phase: pool width (jobs); batch: items completed
}

// lane is one worker's private append-only span buffer. Lanes are
// pointer-held by the tracer so growing the lane table never moves a
// buffer another goroutine is appending to.
type lane struct {
	spans []Span
}

// Tracer records spans for one pipeline run. The hot path —
// Task/Batch from pool workers — appends to a per-worker lane with no
// locking; the tracer only takes its mutex on the serial control path
// (EnsureWorkers, Phase, Spans). Concurrent phases are not supported:
// the pipeline runs phases serially and only fans out within one.
type Tracer struct {
	epoch time.Time

	mu     sync.Mutex
	phases []Span
	lanes  []*lane
}

// New returns an enabled tracer with its epoch set to now.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// EnsureWorkers grows the lane table to at least n worker lanes. Pools
// call it once before fanning out so workers never mutate the table.
func (t *Tracer) EnsureWorkers(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for len(t.lanes) < n {
		t.lanes = append(t.lanes, &lane{})
	}
	t.mu.Unlock()
}

// Phase records one pipeline phase span with the pool width that ran it.
// Serial phases pass jobs=1.
func (t *Tracer) Phase(name string, start time.Time, dur time.Duration, jobs int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, Span{
		Kind: KindPhase, Name: name, Phase: name, Worker: -1,
		Start: start.Sub(t.epoch), Dur: dur, N: jobs,
	})
	t.mu.Unlock()
}

// Task records one work item on worker w's lane. The caller must have
// sized the lane table with EnsureWorkers; the append itself is
// lock-free because the lane is private to the worker.
func (t *Tracer) Task(w int, phase, name string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	l := t.lanes[w]
	l.spans = append(l.spans, Span{
		Kind: KindTask, Name: name, Phase: phase, Worker: w,
		Start: start.Sub(t.epoch), Dur: dur,
	})
}

// Batch records worker w's whole participation in a pooled phase —
// items is how many work items the worker completed.
func (t *Tracer) Batch(w int, phase string, start time.Time, dur time.Duration, items int) {
	if t == nil {
		return
	}
	l := t.lanes[w]
	l.spans = append(l.spans, Span{
		Kind: KindBatch, Name: phase, Phase: phase, Worker: w,
		Start: start.Sub(t.epoch), Dur: dur, N: items,
	})
}

// Workers reports how many worker lanes have been provisioned.
func (t *Tracer) Workers() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.lanes)
}

// Spans returns every recorded span sorted by start time (phase spans
// first on ties, so a phase encloses its tasks in stable order). Safe
// to call only when no pool is in flight.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := len(t.phases)
	for _, l := range t.lanes {
		total += len(l.spans)
	}
	out := make([]Span, 0, total)
	out = append(out, t.phases...)
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	slices.SortStableFunc(out, func(a, b Span) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	return out
}
