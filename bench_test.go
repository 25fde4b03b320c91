// Benchmarks regenerating each table and figure of the paper's evaluation
// (§6). Each benchmark runs a scaled-down version of the corresponding
// experiment pipeline and reports the headline numbers as custom metrics,
// so `go test -bench=.` doubles as a fast reproduction of the paper's
// result shapes. For full-scale runs use cmd/boltbench.
package main

import (
	"testing"

	"gobolt/internal/bench"
)

// benchScale keeps `go test -bench=.` in the minutes range.
const benchScale = bench.Scale(0.12)

func BenchmarkFig5DataCenterSpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Fig5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.Speedup, "%speedup_"+r.Workload)
		}
	}
}

func BenchmarkFig6HHVMMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Fig6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.Reduction, "%reduction_"+r.Metric)
		}
	}
}

func BenchmarkFig7Clang(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Fig7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		var bolt, pgo, both float64
		for _, r := range rows {
			bolt += r.BOLT
			pgo += r.PGO
			both += r.PGOBOLT
		}
		n := float64(len(rows))
		b.ReportMetric(100*bolt/n, "%speedup_BOLT")
		b.ReportMetric(100*pgo/n, "%speedup_PGO+LTO")
		b.ReportMetric(100*both/n, "%speedup_PGO+LTO+BOLT")
	}
}

func BenchmarkFig8GCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Fig8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		var bolt, pgo, both float64
		for _, r := range rows {
			bolt += r.BOLT
			pgo += r.PGO
			both += r.PGOBOLT
		}
		n := float64(len(rows))
		b.ReportMetric(100*bolt/n, "%speedup_BOLT")
		b.ReportMetric(100*pgo/n, "%speedup_PGO")
		b.ReportMetric(100*both/n, "%speedup_PGO+BOLT")
	}
}

func BenchmarkTable2DynoStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9HeatMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		before, after, _, err := bench.Fig9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(before.Heat.HotSpan(0.95))/1024, "KB_hot_before")
		b.ReportMetric(float64(after.Heat.HotSpan(0.95))/1024, "KB_hot_after")
	}
}

func BenchmarkFig11LBRImportance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Fig11(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Metric == "CPU time" {
				b.ReportMetric(100*r.LBRGain, "%cpu_gain_"+r.Scenario)
			}
		}
	}
}

func BenchmarkSec51SamplingEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Events(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.Speedup, "%speedup_"+r.Config)
		}
	}
}

func BenchmarkSec4ICF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := bench.ICF(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(res.BoltBytes)/float64(res.TextSize), "%text_folded")
		b.ReportMetric(float64(res.BoltFolded), "funcs_folded")
	}
}
