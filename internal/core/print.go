package core

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"gobolt/internal/elfx"
)

// PrintCFG dumps a function in the style of the paper's Figure 4: header
// metadata, then each block with CFI placeholders, landing-pad
// annotations, source lines, successor edges with counts/mispredicts,
// and landing pads.
func (ctx *BinaryContext) PrintCFG(w io.Writer, fn *BinaryFunction) {
	fmt.Fprintf(w, "Binary Function \"%s\" after building cfg {\n", fn.Name)
	fmt.Fprintf(w, "  State       : CFG constructed\n")
	fmt.Fprintf(w, "  Address     : %#x\n", fn.Addr)
	fmt.Fprintf(w, "  Size        : %#x\n", fn.Size)
	fmt.Fprintf(w, "  Section     : %s\n", fn.Section)
	if fn.HasLSDA {
		fmt.Fprintf(w, "  LSDA        : present\n")
	}
	fmt.Fprintf(w, "  IsSimple    : %d\n", boolInt(fn.Simple))
	fmt.Fprintf(w, "  IsSplit     : %d\n", boolInt(fn.IsSplit))
	fmt.Fprintf(w, "  BB Count    : %d\n", len(fn.Blocks))
	fmt.Fprintf(w, "  CFI States  : %d\n", len(fn.cfiStates))
	fmt.Fprintf(w, "  BB Layout   : %s\n", layoutString(fn))
	fmt.Fprintf(w, "  Exec Count  : %d\n", fn.ExecCount)
	fmt.Fprintf(w, "  Profile Acc : %.1f%%\n", 100*fn.ProfileAcc)
	fmt.Fprintf(w, "}\n")
	if !fn.Simple {
		fmt.Fprintf(w, "  (non-simple: %s)\n\n", fn.Reason)
		return
	}
	name := ctx.symNamer()
	// One sweep names every block's predecessors: the blocks with an edge
	// into it and those with a call that lands on it.
	preds := make([][]string, len(fn.Blocks))
	for _, p := range fn.Blocks {
		for _, e := range p.Succs {
			preds[e.To.Index] = append(preds[e.To.Index], p.Label)
		}
		for i := range p.Insts {
			if lp, _ := fn.LandingPad(&p.Insts[i]); lp != nil {
				preds[lp.Index] = append(preds[lp.Index], p.Label)
			}
		}
	}
	for _, b := range fn.Blocks {
		fmt.Fprintf(w, "%s (%d instructions, align : 1)\n", b.Label, len(b.Insts))
		if b.IsEntry {
			fmt.Fprintf(w, "  Entry Point\n")
		}
		if b.IsLP {
			fmt.Fprintf(w, "  Landing Pad\n")
		}
		if b.IsCold {
			fmt.Fprintf(w, "  Cold\n")
		}
		fmt.Fprintf(w, "  Exec Count : %d\n", b.ExecCount)
		if b.CFIIn != 0 {
			fmt.Fprintf(w, "  CFI State : %d\n", b.CFIIn-1)
		}
		if names := preds[b.Index]; len(names) > 0 {
			sort.Strings(names)
			fmt.Fprintf(w, "  Predecessors: %s\n", strings.Join(dedup(names), ", "))
		}
		var lps []*BasicBlock // the block's landing pads, in call order
		var lastCFI uint16
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.CFIIdx != 0 && in.CFIIdx != lastCFI && lastCFI != 0 {
				fmt.Fprintf(w, "    %08x: !CFI state %d\n", fn.InstAddr(in)-fn.Addr, in.CFIIdx-1)
			}
			lastCFI = in.CFIIdx
			line := fmt.Sprintf("    %08x: %s", fn.InstAddr(in)-fn.Addr, in.I.Format(fn.origin(in), name))
			var notes []string
			if lp, action := fn.LandingPad(in); lp != nil {
				notes = append(notes, fmt.Sprintf("handler: %s; action: %d", lp.Label, action))
				if !slices.Contains(lps, lp) {
					lps = append(lps, lp)
				}
			}
			if sym := ctx.TargetSym(fn, in); sym != NoFunc && in.IsCall() {
				notes = append(notes, ctx.Func(sym).Name)
			}
			if file, line := fn.SourceLine(in); file != "" {
				notes = append(notes, fmt.Sprintf("%s:%d", file, line))
			}
			if len(notes) > 0 {
				line += " # " + strings.Join(notes, " # ")
			}
			fmt.Fprintln(w, line)
		}
		if len(b.Succs) > 0 {
			parts := make([]string, 0, len(b.Succs))
			for _, e := range b.Succs {
				parts = append(parts, fmt.Sprintf("%s (mispreds: %d, count: %d)", e.To.Label, e.Mispreds, e.Count))
			}
			fmt.Fprintf(w, "  Successors: %s\n", strings.Join(parts, ", "))
		}
		if len(lps) > 0 {
			parts := make([]string, 0, len(lps))
			for _, lp := range lps {
				parts = append(parts, fmt.Sprintf("%s (count: %d)", lp.Label, lp.ExecCount))
			}
			fmt.Fprintf(w, "  Landing Pads: %s\n", strings.Join(parts, ", "))
		}
		fmt.Fprintln(w)
	}
}

func (ctx *BinaryContext) symNamer() func(uint64) string {
	var syms *elfx.SymbolIndex // built on the first PLT stub named
	return func(addr uint64) string {
		if fn := ctx.FuncByAddr(addr); fn != nil {
			return fn.Name
		}
		if _, ok := ctx.PLTStubs[addr]; ok {
			if syms == nil {
				syms = elfx.NewSymbolIndex(ctx.File.Symbols)
			}
			if sym, found := syms.At(addr); found {
				return sym.Name
			}
		}
		return ""
	}
}

func layoutString(fn *BinaryFunction) string {
	names := make([]string, 0, len(fn.Blocks))
	for _, b := range fn.Blocks {
		names = append(names, b.Label)
	}
	return strings.Join(names, ", ")
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// BadLayoutReport lists hot functions whose layout interleaves cold
// blocks between hot ones (paper §6.3, Figure 10) and traces them to
// source. Returns formatted findings, hottest first.
func (ctx *BinaryContext) BadLayoutReport(limit int) string {
	type finding struct {
		fn    *BinaryFunction
		block *BasicBlock
		score uint64
	}
	var finds []finding
	for _, fn := range ctx.Funcs {
		if !fn.Simple || !fn.Sampled {
			continue
		}
		for i := 1; i+1 < len(fn.Blocks); i++ {
			prev, cur, next := fn.Blocks[i-1], fn.Blocks[i], fn.Blocks[i+1]
			if cur.ExecCount == 0 && prev.ExecCount > 0 && next.ExecCount > 0 {
				score := prev.ExecCount
				if next.ExecCount > score {
					score = next.ExecCount
				}
				finds = append(finds, finding{fn: fn, block: cur, score: score})
			}
		}
	}
	sort.Slice(finds, func(i, j int) bool { return finds[i].score > finds[j].score })
	if limit > 0 && len(finds) > limit {
		finds = finds[:limit]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "report-bad-layout: %d cold blocks interleaved between hot blocks\n", len(finds))
	for _, f := range finds {
		src := ""
		if len(f.block.Insts) > 0 {
			if file, line := f.fn.SourceLine(&f.block.Insts[0]); file != "" {
				src = fmt.Sprintf(" # %s:%d", file, line)
			}
		}
		fmt.Fprintf(&sb, "  %s: block %s (Exec Count: 0) between hot blocks (count %d)%s\n",
			f.fn.Name, f.block.Label, f.score, src)
	}
	return sb.String()
}
