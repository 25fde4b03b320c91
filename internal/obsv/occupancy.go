package obsv

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// TaskStat names one straggler task and its duration.
type TaskStat struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// PhaseStats is the derived occupancy summary for one pooled phase:
// how busy the pool actually was against the phase's wall time, the
// task-duration distribution, and the top straggler tasks by name.
// Utilization is Σ task durations / (wall × jobs); the gap to 1.0 is
// worker idle time (startup/drain skew, uneven task sizes).
type PhaseStats struct {
	Phase       string     `json:"phase"`
	WallNS      int64      `json:"wall_ns"`
	Jobs        int        `json:"jobs"`
	Tasks       int        `json:"tasks"`
	BusyNS      int64      `json:"busy_ns"`
	Utilization float64    `json:"utilization"`
	P50NS       int64      `json:"p50_ns"`
	P99NS       int64      `json:"p99_ns"`
	Stragglers  []TaskStat `json:"stragglers,omitempty"`
}

// maxStragglers bounds the per-phase straggler list kept in reports.
const maxStragglers = 5

// Occupancy derives per-phase pool-occupancy statistics from the
// recorded spans. Only phases that recorded task spans appear (barrier
// passes and serial stages have no pool to be occupied). A phase name
// recorded more than once (by a tracer several runs share) is folded
// into one row: walls and busy times sum, so utilization stays
// consistent. Rows come back in first-recorded order.
func Occupancy(spans []Span) []PhaseStats {
	type acc struct {
		wall  time.Duration
		jobs  int
		busy  time.Duration
		tasks []Span
	}
	accs := map[string]*acc{}
	var order []string
	get := func(phase string) *acc {
		a := accs[phase]
		if a == nil {
			a = &acc{}
			accs[phase] = a
			order = append(order, phase)
		}
		return a
	}
	for _, s := range spans {
		switch s.Kind {
		case KindPhase:
			a := get(s.Name)
			a.wall += s.Dur
			if s.N > a.jobs {
				a.jobs = s.N
			}
		case KindTask:
			a := get(s.Phase)
			a.busy += s.Dur
			a.tasks = append(a.tasks, s)
		}
	}
	var out []PhaseStats
	for _, phase := range order {
		a := accs[phase]
		if len(a.tasks) == 0 {
			continue
		}
		jobs := a.jobs
		if jobs < 1 {
			jobs = 1
		}
		ps := PhaseStats{
			Phase:  phase,
			WallNS: a.wall.Nanoseconds(),
			Jobs:   jobs,
			Tasks:  len(a.tasks),
			BusyNS: a.busy.Nanoseconds(),
		}
		if a.wall > 0 {
			ps.Utilization = float64(a.busy) / (float64(a.wall) * float64(jobs))
		}
		durs := make([]time.Duration, len(a.tasks))
		for i, t := range a.tasks {
			durs[i] = t.Dur
		}
		slices.Sort(durs)
		ps.P50NS = quantile(durs, 0.50).Nanoseconds()
		ps.P99NS = quantile(durs, 0.99).Nanoseconds()
		// Top stragglers by duration; ties broken by name then start so
		// the list is deterministic for a fixed span set. a.tasks is the
		// accumulator's private copy, so sorting in place is fine.
		tasks := a.tasks
		slices.SortFunc(tasks, func(x, y Span) int {
			if x.Dur != y.Dur {
				return cmp.Compare(y.Dur, x.Dur)
			}
			if x.Name != y.Name {
				return strings.Compare(x.Name, y.Name)
			}
			return cmp.Compare(x.Start, y.Start)
		})
		for i := 0; i < len(tasks) && i < maxStragglers; i++ {
			ps.Stragglers = append(ps.Stragglers, TaskStat{
				Name: tasks[i].Name, DurNS: tasks[i].Dur.Nanoseconds(),
			})
		}
		out = append(out, ps)
	}
	return out
}

// quantile returns the q-quantile of sorted durations (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// WriteOccupancy renders the occupancy table appended to -time-passes
// reports after the phase table.
func WriteOccupancy(w io.Writer, stats []PhaseStats) {
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(w, "pool occupancy (busy/(wall*jobs)):\n")
	for _, ps := range stats {
		fmt.Fprintf(w, "  %-20s %5.1f%%  jobs=%-2d tasks=%-5d p50=%-10v p99=%-10v",
			ps.Phase, 100*ps.Utilization, ps.Jobs, ps.Tasks,
			time.Duration(ps.P50NS).Round(time.Microsecond),
			time.Duration(ps.P99NS).Round(time.Microsecond))
		for i, s := range ps.Stragglers {
			if i >= 3 {
				break
			}
			if i == 0 {
				fmt.Fprintf(w, "  slowest:")
			}
			fmt.Fprintf(w, " %s(%v)", s.Name, time.Duration(s.DurNS).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
}
