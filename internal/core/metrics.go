package core

import (
	"fmt"
	"strings"
)

// Stat is the typed key of one declared statistic: CountStat and the
// per-worker shards address a counter by it, so a key that statDefs does
// not declare cannot be written down. The order is the order of the
// README table.
type Stat uint8

const (
	StatLoadSimple Stat = iota
	StatLoadBlocks
	StatLoadNonSimple
	StatLoadCFIBadReg

	StatProfileTotalCount
	StatProfileEdgeCount
	StatProfileCallCount
	StatProfileSampleCount
	StatProfileIgnoredCount
	StatProfileDropCount
	StatProfileStaleCount
	StatProfileStaleDropCount
	StatProfileStaleFuncs
	StatProfileInferredFuncs

	StatLiteSkipped
	StatICFHashed
	StatICFFolded
	StatICFBytes
	StatInlineSmall
	StatPLTCalls
	StatICPPromoted
	StatICPFlagsBlocked
	StatPeepholeSelfmove
	StatPeepholeJumpThread
	StatStripRepRet
	StatUCEBlocks
	StatReorderBBsFuncs
	StatReorderFunctions
	StatSplitFunctions
	StatSplitColdBlocks
	StatFrameOptsSpills
	StatShrinkWrapping

	StatEmitPadBytes

	numStats
)

// String returns the declared name, the key under which the stat appears
// in ctx.Stats and the run report.
func (s Stat) String() string { return statDefs[s].Name }

// statShard holds counts by Stat: one pool worker's private counts,
// folded into ctx.Stats by mergeStats at the join (int64 addition
// commutes, so the totals are identical for any worker count), or a
// phase's reading of ctx.Stats for its stat delta.
type statShard [numStats]int64

// mergeStats folds a worker's shard into ctx.Stats.
func (ctx *BinaryContext) mergeStats(c *statShard) {
	for s, v := range c {
		ctx.CountStat(Stat(s), v)
	}
}

// statCounts reads ctx.Stats back into shard form.
func (ctx *BinaryContext) statCounts() (c statShard) {
	for s := range c {
		c[s] = ctx.Stats[Stat(s).String()]
	}
	return c
}

// StatDef declares one statistic: its name, its help text and, for a
// count-weighted profile stat, the parent counter it sums into exactly.
type StatDef struct {
	Name  string
	Help  string
	SumTo string
}

// statTotal is the parent every count-weighted profile stat sums into.
const statTotal = "profile-total-count"

func counter(name, help string) StatDef {
	return StatDef{Name: name, Help: help}
}

func weighted(name, help string) StatDef {
	return StatDef{Name: name, Help: help, SumTo: statTotal}
}

// statDefs declares every statistic the pipeline records, keyed by its
// Stat: it is the single source of truth behind ctx.Stats, the README's
// documented stat-key list (StatKeyDoc), and the sum-to-total invariant
// test. A row cannot be written without its key; a key without a row is
// an empty StatDef, which TestStatDefsComplete rejects.
var statDefs = [numStats]StatDef{
	// Loader (NewContext): every discovered function lands in
	// exactly one of simple/non-simple.
	StatLoadSimple:    counter("load-simple", "functions disassembled into a complete CFG"),
	StatLoadBlocks:    counter("load-blocks", "basic blocks built across all simple functions"),
	StatLoadNonSimple: counter("load-non-simple", "functions left untouched (indirect tails, jump tables, undecodable bytes)"),
	StatLoadCFIBadReg: counter("load-cfi-bad-reg", "CFI save/restore rules skipped because they name a register number the unwind state cannot track"),

	// Profile application (ApplyProfile): counts are weighted by
	// record count, so the eight weighted keys sum exactly to
	// profile-total-count.
	StatProfileTotalCount:     counter(statTotal, "every branch or sample record seen, count-weighted"),
	StatProfileEdgeCount:      weighted("profile-edge-count", "applied to an intra-function CFG edge"),
	StatProfileCallCount:      weighted("profile-call-count", "applied as a call/entry record (ExecCount)"),
	StatProfileSampleCount:    weighted("profile-sample-count", "applied as a PC sample to a block (non-LBR)"),
	StatProfileIgnoredCount:   weighted("profile-ignored-count", "carries no CFG info (returns, non-branch sources, mid-function landings, non-simple functions)"),
	StatProfileDropCount:      weighted("profile-drop-count", "(function, offset) failed to resolve"),
	StatProfileStaleCount:     weighted("profile-stale-count", "recovered by stale shape matching (arXiv:2401.17168)"),
	StatProfileStaleDropCount: weighted("profile-stale-drop-count", "stale and unrecoverable"),
	StatProfileStaleFuncs:     counter("profile-stale-funcs", "functions whose shapes mismatched and were routed through the stale matcher"),
	StatProfileInferredFuncs:  counter("profile-inferred-funcs", "functions rebalanced by the minimum-cost flow solver"),

	// Optimization passes (pipeline order).
	StatLiteSkipped:        counter("lite-skipped", "functions skipped by lite mode (no profile samples)"),
	StatICFHashed:          counter("icf-hashed", "functions hashed by identical-code-folding"),
	StatICFFolded:          counter("icf-folded", "functions folded into an identical twin"),
	StatICFBytes:           counter("icf-bytes", "code bytes eliminated by ICF"),
	StatInlineSmall:        counter("inline-small", "small-call sites inlined"),
	StatPLTCalls:           counter("plt-calls", "PLT calls rewritten to direct calls"),
	StatICPPromoted:        counter("icp-promoted", "indirect-call sites promoted to conditional direct calls"),
	StatICPFlagsBlocked:    counter("icp-flags-blocked", "ICP candidates blocked by live EFLAGS"),
	StatPeepholeSelfmove:   counter("peephole-selfmove", "self-move instructions deleted"),
	StatPeepholeJumpThread: counter("peephole-jump-thread", "jumps threaded through empty blocks"),
	StatStripRepRet:        counter("strip-rep-ret", "repz ret prefixes stripped"),
	StatUCEBlocks:          counter("uce-blocks", "unreachable basic blocks eliminated"),
	StatReorderBBsFuncs:    counter("reorder-bbs-funcs", "functions whose basic blocks were relaid out"),
	StatReorderFunctions:   counter("reorder-functions", "functions placed by the global reordering"),
	StatSplitFunctions:     counter("split-functions", "functions split into hot and cold fragments"),
	StatSplitColdBlocks:    counter("split-cold-blocks", "basic blocks moved to cold fragments"),
	StatFrameOptsSpills:    counter("frame-opts-spills", "callee-saved spills removed by frame optimization"),
	StatShrinkWrapping:     counter("shrink-wrapping", "functions with saves sunk by shrink wrapping"),

	// Emission (Rewrite).
	StatEmitPadBytes: counter("emit-pad-bytes", "padding bytes the layout put before fragments of profiled functions to save a cache line, both text sections"),
}

// StatDefs returns the declared statistics in Stat order; callers must
// not modify the result.
func StatDefs() []StatDef { return statDefs[:] }

// StatKeyDoc renders the declared stats as the markdown table embedded
// in the README between the stat-keys markers; a test keeps the two in
// sync so the documentation is generated, not hand-maintained.
func StatKeyDoc() string {
	var b strings.Builder
	b.WriteString("| key | meaning |\n|---|---|\n")
	for _, d := range StatDefs() {
		help := d.Help
		if d.SumTo != "" {
			help += fmt.Sprintf(" (sums into `%s`)", d.SumTo)
		}
		fmt.Fprintf(&b, "| `%s` | %s |\n", d.Name, help)
	}
	return b.String()
}
