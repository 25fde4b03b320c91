package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/workload"
)

// buildLoaderFile links a program with enough functions (plain leaves, a
// jump-table switch, callers) to give the loader's parallel phase real
// work: disassembly, CFG construction, CFI attachment, and call-target
// symbolization all run per function.
func buildLoaderFile(t testing.TB, workers int) *elfx.File {
	t.Helper()
	mod := &ir.Module{Name: "m"}

	for i := 0; i < workers; i++ {
		w := ir.NewFunc(fmt.Sprintf("w%03d", i), "w.mir", int32(i+1))
		w.SavedRegs = []isa.Reg{isa.RBX}
		w.Blocks[0].Ops = []ir.Op{
			{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
			{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: int64(i + 1)},
			{Kind: ir.OpShlImm, Dst: isa.RAX, Imm: 1},
		}
		w.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}
		mod.Funcs = append(mod.Funcs, w)
	}

	sw := ir.NewFunc("switchy", "s.mir", 1)
	c0 := sw.AddBlock()
	c1 := sw.AddBlock()
	ret := sw.AddBlock()
	sw.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.RDI},
		{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: 1},
		{Kind: ir.OpCall, Callee: "w000", SpillReg: isa.NoReg, LandingPad: -1},
	}
	sw.Blocks[0].Term = ir.Term{Kind: ir.TermSwitch, IndexReg: isa.RCX,
		Targets: []int{c0.Index, c1.Index}, PIC: true}
	c0.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 10}}
	c0.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	c1.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 20}}
	c1.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	ret.Term = ir.Term{Kind: ir.TermReturn}
	mod.Funcs = append(mod.Funcs, sw)

	start := ir.NewFunc("_start", "m.mir", 1)
	var ops []ir.Op
	for i := 0; i < workers; i++ {
		ops = append(ops,
			ir.Op{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: int64(i)},
			ir.Op{Kind: ir.OpCall, Callee: fmt.Sprintf("w%03d", i), SpillReg: isa.NoReg, LandingPad: -1})
	}
	ops = append(ops, ir.Op{Kind: ir.OpCall, Callee: "switchy", SpillReg: isa.NoReg, LandingPad: -1})
	start.Blocks[0].Ops = ops
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}
	mod.Funcs = append(mod.Funcs, start)

	p := &ir.Program{Modules: []*ir.Module{mod}}
	p.Finalize()
	opts := cc.DefaultOptions()
	opts.TinyInlineOps = 1 // keep the leaves out-of-line
	objs, err := cc.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.File
}

// loaderShapes renders everything the loader derives into one canonical
// text record per function: simple / Reason, then per block its start
// offset, entry CFI state, successor, predecessor and landing-pad index
// lists, per instruction its offset, size, opcode and every side-table
// index (CFI state, jump table, landing pad with action, symbolized
// target, resolved memory operand, source line), then each jump table's
// target blocks. Two contexts loaded the same way render identically;
// anything the loader decides differently shows as a differing record.
func loaderShapes(ctx *BinaryContext) []string {
	idx := func(bs []*BasicBlock) []int {
		out := make([]int, len(bs))
		for i, b := range bs {
			out[i] = -1
			if b != nil {
				out[i] = b.Index
			}
		}
		return out
	}
	out := make([]string, 0, len(ctx.Funcs))
	var buf []byte
	for _, fn := range ctx.Funcs {
		buf = fmt.Appendf(buf[:0], "func %s @%#x size=%d simple=%t reason=%q lsda=%t cfi-states=%d\n",
			fn.Name, fn.Addr, fn.Size, fn.Simple, fn.Reason, fn.HasLSDA, len(fn.cfiStates))
		// Predecessors and landing pads are derived in the order the
		// recorded digests (testdata/loader_digests.txt) list them: a
		// block's CFG predecessors in block and successor order, then one
		// entry per call that lands on it; a block's landing pads once
		// each, in the order its calls name them.
		preds := make([][]int, len(fn.Blocks))
		lps := make([][]int, len(fn.Blocks))
		for _, b := range fn.Blocks {
			for _, e := range b.Succs {
				preds[e.To.Index] = append(preds[e.To.Index], b.Index)
			}
		}
		for _, b := range fn.Blocks {
			for i := range b.Insts {
				if lpb, _ := fn.LandingPad(&b.Insts[i]); lpb != nil {
					preds[lpb.Index] = append(preds[lpb.Index], b.Index)
					if !slices.Contains(lps[b.Index], lpb.Index) {
						lps[b.Index] = append(lps[b.Index], lpb.Index)
					}
				}
			}
		}
		for _, b := range fn.Blocks {
			succs := make([]int, len(b.Succs))
			for k, e := range b.Succs {
				succs[k] = e.To.Index
			}
			buf = fmt.Appendf(buf, " b%d +%#x cfi=%d entry=%t lp=%t succs=%v preds=%v lps=%v\n",
				b.Index, b.Addr-fn.Addr, int(b.CFIIn)-1, b.IsEntry, b.IsLP, succs, preds[b.Index], lps[b.Index])
			for i := range b.Insts {
				in := &b.Insts[i]
				buf = fmt.Appendf(buf, "  +%#x/%d op=%d cfi=%d src=%d", fn.InstAddr(in)-fn.Addr, in.I.Size, in.I.Op, int(in.CFIIdx)-1, fn.lineEntry(in))
				if in.JT() != 0 {
					buf = fmt.Appendf(buf, " jt=%d", in.JT())
				}
				if lpb, action := fn.LandingPad(in); lpb != nil {
					buf = fmt.Appendf(buf, " lp=b%d/%d", lpb.Index, action)
				}
				if sym := ctx.TargetSym(fn, in); sym != NoFunc {
					buf = fmt.Appendf(buf, " sym=%d", sym)
				}
				if mem := in.MemAddr(); mem != 0 {
					buf = fmt.Appendf(buf, " mem=%#x", mem)
				}
				buf = append(buf, '\n')
			}
		}
		for k, jt := range fn.JTs {
			buf = fmt.Appendf(buf, " jt%d @%#x entry=%d pic=%t targets=%v\n",
				k+1, jt.Addr, jt.EntrySize, jt.PIC, idx(jt.Targets))
		}
		out = append(out, string(buf))
	}
	return out
}

// diffShapes reports the first function whose record differs.
func diffShapes(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d functions, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: loader output differs, first at function %d:\n--- want\n%s--- got\n%s", label, i, want[i], got[i])
			return
		}
	}
}

// TestNewContextDeterministicAcrossJobs is the parallel loader's
// contract: NewContext yields identical function lists, block/edge
// structure, CFI interning, and Stats for any worker count, with
// discovery serial and disassembly+CFG on the pool. Under -race it also
// exercises the fan-out phase for data races.
func TestNewContextDeterministicAcrossJobs(t *testing.T) {
	f := buildLoaderFile(t, 24)
	opts := DefaultOptions()
	opts.Jobs = 1
	base, err := NewContext(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseShapes := loaderShapes(base)
	if len(baseShapes) < 24 {
		t.Fatalf("expected >= 24 discovered functions, got %d", len(baseShapes))
	}
	for _, jobs := range []int{2, 8} {
		opts.Jobs = jobs
		got, err := NewContext(context.Background(), f, opts)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		diffShapes(t, fmt.Sprintf("jobs=%d vs jobs=1", jobs), baseShapes, loaderShapes(got))
		if !reflect.DeepEqual(base.Stats, got.Stats) {
			t.Errorf("jobs=%d: loader stats diverge:\n  jobs=1: %v\n  jobs=%d: %v",
				jobs, base.Stats, jobs, got.Stats)
		}
		if len(got.Timings) != 2 ||
			got.Timings[0].Name != "load:discover" || got.Timings[0].Group != "load" ||
			got.Timings[1].Name != "load:disasm+cfg" || got.Timings[1].Group != "load" {
			t.Fatalf("jobs=%d: bad load timings %+v", jobs, got.Timings)
		}
		if lt := got.Timings[1]; lt.Funcs != len(got.Funcs) || lt.Jobs != jobs {
			t.Errorf("jobs=%d: disasm+cfg phase not parallel: %+v", jobs, lt)
		}
		// Discovery is serial at any worker count.
		if dt := got.Timings[0]; dt.Jobs != 1 {
			t.Errorf("jobs=%d: discover phase not serial: %+v", jobs, dt)
		}
	}
	// Loader stat shards must have merged exactly.
	if got := base.Stats["load-simple"] + base.Stats["load-non-simple"]; got != int64(len(base.Funcs)) {
		t.Errorf("loader stats cover %d functions, want %d (stats: %v)", got, len(base.Funcs), base.Stats)
	}
}

// presetFile compiles and links a workload preset the way cmd/minicc does
// by default, with the symbol table put in address order: ld emits
// ICF-alias symbols in map order, and which alias names a function is the
// one thing about the loader's result that would follow it.
func presetFile(t testing.TB, spec workload.Spec) *elfx.File {
	t.Helper()
	objs, err := cc.Compile(workload.Generate(spec), cc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		t.Fatal(err)
	}
	syms := res.File.Symbols
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Value != syms[j].Value {
			return syms[i].Value < syms[j].Value
		}
		return syms[i].Name < syms[j].Name
	})
	return res.File
}

// FuzzNewContext: any bytes either fail to parse or load into a context
// at jobs 1 without a panic, and the loader leaves the buffer the image
// was parsed in place from as it found it.
func FuzzNewContext(f *testing.F) {
	img, err := presetFile(f, workload.Tiny()).Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	opts := DefaultOptions()
	opts.Jobs = 1
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		file, err := elfx.ReadInPlace(data)
		if err != nil {
			return
		}
		NewContext(context.Background(), file, opts)
		if !bytes.Equal(data, in) {
			t.Fatal("loading the image changed the input buffer")
		}
	})
}

// TestLoaderDigestGolden pins the loader at CFG level: the SHA-256 of
// every function's loaderShapes record, per minicc preset, at jobs 1 and
// 8, against testdata/loader_digests.txt. The digests were recorded at
// ebf34c9, the last commit whose loader answered address questions from
// hashed maps, so they hold any later loader to that one's CFGs and not
// only to its own output across worker counts. -short keeps the two
// smallest presets.
func TestLoaderDigestGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/loader_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			golden[name] = sum
		}
	}
	for _, name := range []string{"tiny", "proxygen", "multifeed2", "multifeed1", "tao", "gcc", "clang", "hhvm"} {
		if testing.Short() && name != "tiny" && name != "proxygen" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			spec, ok := workload.ByName(name)
			if !ok {
				spec = workload.Tiny()
			}
			f := presetFile(t, spec)
			for _, jobs := range []int{1, 8} {
				opts := DefaultOptions()
				opts.Jobs = jobs
				ctx, err := NewContext(context.Background(), f, opts)
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				h := sha256.New()
				for _, rec := range loaderShapes(ctx) {
					io.WriteString(h, rec)
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != golden[name] {
					t.Errorf("jobs=%d: loader digest %s, golden %q", jobs, got, golden[name])
				}
			}
		})
	}
}

// TestObjectAtFirstInTableOrder: jump tables are bounded by the data
// symbol at their address, and where several share it the first in
// symbol-table order decides, even when it is unsized (a table no symbol
// bounds stays unrecovered).
func TestObjectAtFirstInTableOrder(t *testing.T) {
	ctx := &BinaryContext{File: &elfx.File{Symbols: []elfx.Symbol{
		{Name: "late", Value: 0x30, Size: 8, Type: elfx.STTObject},
		{Name: "fn", Value: 0x10, Size: 64, Type: elfx.STTFunc},
		{Name: "unsized", Value: 0x10, Type: elfx.STTObject},
		{Name: "sized", Value: 0x10, Size: 16, Type: elfx.STTObject},
		{Name: "early", Value: 0x08, Size: 8, Type: elfx.STTObject},
	}}}
	ctx.indexObjects()
	for _, tc := range []struct {
		addr uint64
		want string
	}{{0x08, "early"}, {0x10, "unsized"}, {0x30, "late"}, {0x18, ""}, {0x40, ""}, {0, ""}} {
		got := ""
		if s := ctx.objectAt(tc.addr); s != nil {
			got = s.Name
		}
		if got != tc.want {
			t.Errorf("objectAt(%#x) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}

// TestOversizedFunctionNonSimple: Inst.Off reaches at most
// maxOriginSpan bytes past the code base, so a function reaching further
// is left non-simple with a Reason naming the bound, never loaded with
// wrapped offsets. The body is one ret: past the guard the loader would
// read it and then fail to decode.
func TestOversizedFunctionNonSimple(t *testing.T) {
	for _, fn := range []*BinaryFunction{
		{Name: "huge", Addr: 0x1000, Size: 1<<32 + 1},
		{Name: "far", Addr: 0x1000 + maxOriginSpan, Size: 1},
	} {
		ctx := &BinaryContext{codeBase: 0x1000}
		fn.Bytes, fn.Simple = []byte{0xC3}, true
		ctx.loadFunction(fn, &loaderScratch{})
		if fn.Simple || !strings.Contains(fn.Reason, "instruction offset") || len(fn.Blocks) != 0 {
			t.Errorf("%s: Simple=%t Reason=%q blocks=%d, want non-simple past the offset bound with no blocks",
				fn.Name, fn.Simple, fn.Reason, len(fn.Blocks))
		}
	}
}

func TestBlockLabel(t *testing.T) {
	// Block labels come in index order; past the shared table they are
	// cut from the function's one string.
	n := nLabels + 6
	far := farLabels(n)
	for i := 0; i < n; i++ {
		want := fmt.Sprintf(".LBB%d", i)
		if got := blockLabel(i, &far); got != want {
			t.Fatalf("blockLabel(%d) = %q, want %q", i, got, want)
		}
	}
	if far != "" {
		t.Fatalf("%q left over after the last label", far)
	}
	// Within the precomputed range the same instance comes back every
	// time — block labels are process-wide constants.
	if unsafe.StringData(blockLabel(3, nil)) != unsafe.StringData(blockLabel(3, nil)) {
		t.Fatal("blockLabel(3) not identity-stable")
	}
}
