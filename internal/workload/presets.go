package workload

// Presets model the paper's evaluation subjects at laptop scale: text
// sizes are small, but hot working sets still far exceed L1I.
//
// The distinguishing knobs follow the paper's characterization: HHVM is
// the largest and most front-end bound (§6.1); TAO/Proxygen/Multifeed are
// smaller services; the compilers (§6.2) are branchy, call-dense programs
// with significant cold error paths — which is why layout matters so much
// for them.

// HHVM is the largest, most front-end-bound service (LTO + HFSort
// baseline in Figure 5; subject of Figures 6, 9, 11).
func HHVM() Spec {
	return Spec{
		Name: "hhvm", Seed: 0x48485642,
		Modules: 12, FuncsPerModule: 360, SharedFuncs: 30, Layers: 3,
		ZipfS: 0.95, DispatchSlots: 1024,
		SegmentsMin: 3, SegmentsMax: 8,
		LoopFrac:   0.45,
		ColdOpsMin: 14, ColdOpsMax: 60,
		ColdProb: 0.02, ThrowFrac: 0.25,
		JumpTableFrac: 0.25, PICFrac: 0.5,
		IndirectCallFrac: 0.2, SpillFrac: 0.25, RepzRetFrac: 0.15,
		ShrinkWrapFrac: 0.1,
		DupFamilies:    90, DupSize: 6,
		IndirectTailFrac: 0.005,
		Iterations:       16000, InputSize: 1 << 14,
	}
}

// TAO: the in-memory social-graph cache.
func TAO() Spec {
	return Spec{
		Name: "tao", Seed: 0x54414F21,
		Modules: 8, FuncsPerModule: 240, SharedFuncs: 16, Layers: 3,
		ZipfS: 1.1, DispatchSlots: 512,
		SegmentsMin: 2, SegmentsMax: 6,
		LoopFrac:   0.4,
		ColdOpsMin: 10, ColdOpsMax: 40,
		ColdProb: 0.02, ThrowFrac: 0.15,
		JumpTableFrac: 0.15, PICFrac: 0.4,
		IndirectCallFrac: 0.12, SpillFrac: 0.2, RepzRetFrac: 0.1,
		ShrinkWrapFrac: 0.08,
		DupFamilies:    40, DupSize: 4,
		IndirectTailFrac: 0.006,
		Iterations:       16000, InputSize: 1 << 13,
	}
}

// Proxygen: the cluster load balancer.
func Proxygen() Spec {
	return Spec{
		Name: "proxygen", Seed: 0x50524F58,
		Modules: 7, FuncsPerModule: 200, SharedFuncs: 12, Layers: 2,
		ZipfS: 1.2, DispatchSlots: 256,
		SegmentsMin: 2, SegmentsMax: 5,
		LoopFrac:   0.35,
		ColdOpsMin: 8, ColdOpsMax: 32,
		ColdProb: 0.015, ThrowFrac: 0.2,
		JumpTableFrac: 0.12, PICFrac: 0.5,
		IndirectCallFrac: 0.1, SpillFrac: 0.15, RepzRetFrac: 0.08,
		ShrinkWrapFrac: 0.06,
		DupFamilies:    30, DupSize: 4,
		IndirectTailFrac: 0.005,
		Iterations:       14000, InputSize: 1 << 13,
	}
}

// Multifeed1: news-feed aggregation service (leaf-heavy).
func Multifeed1() Spec {
	return Spec{
		Name: "multifeed1", Seed: 0x4D464431,
		Modules: 8, FuncsPerModule: 220, SharedFuncs: 10, Layers: 3,
		ZipfS: 1.05, DispatchSlots: 512,
		SegmentsMin: 2, SegmentsMax: 5,
		LoopFrac:   0.35,
		ColdOpsMin: 10, ColdOpsMax: 36,
		ColdProb: 0.02, ThrowFrac: 0.1,
		JumpTableFrac: 0.18, PICFrac: 0.3,
		IndirectCallFrac: 0.15, SpillFrac: 0.2, RepzRetFrac: 0.1,
		ShrinkWrapFrac: 0.1,
		DupFamilies:    32, DupSize: 4,
		IndirectTailFrac: 0.005,
		Iterations:       15000, InputSize: 1 << 13,
	}
}

// Multifeed2: ranking component of the same service.
func Multifeed2() Spec {
	return Spec{
		Name: "multifeed2", Seed: 0x4D464432,
		Modules: 8, FuncsPerModule: 200, SharedFuncs: 10, Layers: 2,
		ZipfS: 1.05, DispatchSlots: 512,
		SegmentsMin: 2, SegmentsMax: 5,
		LoopFrac:   0.35,
		ColdOpsMin: 10, ColdOpsMax: 36,
		ColdProb: 0.025, ThrowFrac: 0.12,
		JumpTableFrac: 0.2, PICFrac: 0.35,
		IndirectCallFrac: 0.12, SpillFrac: 0.25, RepzRetFrac: 0.12,
		ShrinkWrapFrac: 0.08,
		DupFamilies:    30, DupSize: 4,
		IndirectTailFrac: 0.005,
		Iterations:       15000, InputSize: 1 << 13,
	}
}

// Clang models the Clang compiler binary compiling translation units
// (Figure 7): large, extremely branchy, deep call chains, many cold
// diagnostic paths.
func Clang() Spec {
	return Spec{
		Name: "clang", Seed: 0x434C4E47,
		Modules: 10, FuncsPerModule: 300, SharedFuncs: 16, Layers: 4,
		ZipfS: 0.9, DispatchSlots: 1024,
		SegmentsMin: 2, SegmentsMax: 7,
		LoopFrac:   0.4,
		ColdOpsMin: 14, ColdOpsMax: 56,
		ColdProb: 0.03, ThrowFrac: 0.2,
		JumpTableFrac: 0.3, PICFrac: 0.6,
		IndirectCallFrac: 0.18, SpillFrac: 0.3, RepzRetFrac: 0.05,
		ShrinkWrapFrac: 0.12,
		DupFamilies:    70, DupSize: 5,
		IndirectTailFrac: 0.006,
		Iterations:       10000, InputSize: 1 << 14,
	}
}

// GCC models cc1plus (Figure 8): similar character to Clang, slightly
// smaller here (the paper could not use LTO for GCC).
func GCC() Spec {
	return Spec{
		Name: "gcc", Seed: 0x47434321,
		Modules: 9, FuncsPerModule: 260, SharedFuncs: 14, Layers: 4,
		ZipfS: 0.95, DispatchSlots: 1024,
		SegmentsMin: 2, SegmentsMax: 6,
		LoopFrac:   0.4,
		ColdOpsMin: 12, ColdOpsMax: 48,
		ColdProb: 0.03, ThrowFrac: 0.15,
		JumpTableFrac: 0.28, PICFrac: 0.5,
		IndirectCallFrac: 0.15, SpillFrac: 0.3, RepzRetFrac: 0.06,
		ShrinkWrapFrac: 0.1,
		DupFamilies:    60, DupSize: 5,
		IndirectTailFrac: 0.006,
		Iterations:       9000, InputSize: 1 << 14,
	}
}

// ByName returns a preset spec.
func ByName(name string) (Spec, bool) {
	switch name {
	case "hhvm":
		return HHVM(), true
	case "tao":
		return TAO(), true
	case "proxygen":
		return Proxygen(), true
	case "multifeed1":
		return Multifeed1(), true
	case "multifeed2":
		return Multifeed2(), true
	case "clang":
		return Clang(), true
	case "gcc":
		return GCC(), true
	}
	return Spec{}, false
}

// Tiny is a fast preset for tests and the quickstart example.
func Tiny() Spec {
	return Spec{
		Name: "tiny", Seed: 42,
		Modules: 2, FuncsPerModule: 16, SharedFuncs: 4, Layers: 2,
		ZipfS: 1.2, DispatchSlots: 16,
		SegmentsMin: 1, SegmentsMax: 3,
		LoopFrac:   0.4,
		ColdOpsMin: 14, ColdOpsMax: 56,
		ColdProb: 0.03, ThrowFrac: 0.2,
		JumpTableFrac: 0.3, PICFrac: 0.5,
		IndirectCallFrac: 0.2, SpillFrac: 0.3, RepzRetFrac: 0.2,
		ShrinkWrapFrac: 0.2,
		DupFamilies:    2, DupSize: 2,
		IndirectTailFrac: 0.05,
		Iterations:       4000, InputSize: 1 << 10,
	}
}
