// Package workload generates the synthetic programs standing in for the
// paper's evaluation subjects: the Facebook services of §6.1 (HHVM, TAO,
// Proxygen, Multifeed) and the Clang/GCC compilers of §6.2. The
// generators are seeded and deterministic; each preset dials the knobs
// that drive code-layout behaviour — binary size, Zipfian function
// hotness, branch bias, jump-table dispatch, exception paths, duplicate
// function families, shared-library calls, and the indirect tail calls
// that force gobolt to leave functions untouched (§6.4).
package workload

import (
	"fmt"
	"math"

	"gobolt/internal/ir"
	"gobolt/internal/isa"
)

// Spec parameterizes one synthetic application.
type Spec struct {
	Name string
	Seed uint64
	// InputSeed varies the *input data* (the bytes driving branches and
	// dispatch) without changing the program structure: the paper trains
	// on one input and evaluates on others (§6.2). 0 means derive from
	// Seed.
	InputSeed uint64

	Modules        int
	FuncsPerModule int
	SharedFuncs    int // simulated shared-library leaves (PLT targets)
	Layers         int // call-graph depth below the dispatcher

	// ZipfS is the hotness skew (larger = hotter heads).
	ZipfS float64
	// DispatchSlots is the dispatcher jump-table size.
	DispatchSlots int

	// Per-function shape.
	SegmentsMin, SegmentsMax int // branchy segments per function
	// LoopFrac is the probability a hot segment carries an inner counted
	// loop (2..9 trips). Loops concentrate fetch heat into a minority of
	// bytes — the skew that makes code layout pay off.
	LoopFrac float64
	ColdProb float64 // probability mass of cold side branches
	// ColdOpsMin/Max size the cold-side filler (error formatting,
	// diagnostics, cleanup — the inline cold bulk that makes data-center
	// functions big and sparse; splitting it out is where the I-cache
	// and I-TLB wins come from).
	ColdOpsMin, ColdOpsMax int
	ThrowFrac              float64 // fraction of cold paths that throw
	JumpTableFrac          float64 // fraction of functions with a switch
	PICFrac                float64 // fraction of jump tables that are PIC
	IndirectCallFrac       float64 // fraction of functions doing an indirect call
	SpillFrac              float64 // fraction of calls with a redundant spill
	RepzRetFrac            float64
	ShrinkWrapFrac         float64 // fraction of leaf-callers with a cold-only callee-saved reg

	// DupFamilies x DupSize identical functions (ICF material); half get
	// jump tables so the linker cannot fold them.
	DupFamilies, DupSize int

	// IndirectTailFrac of functions end in an indirect tail call and
	// become non-simple.
	IndirectTailFrac float64

	// EntryPadOps prepends this many semantically neutral instructions to
	// every application function's entry block — modeling a new release
	// that grew prologue instrumentation. All block offsets below the
	// entry shift, so a profile recorded on the unpadded build goes stale
	// (its (function, offset) pairs stop resolving) while the opcode
	// sequences of the unchanged blocks stay matchable. The continuous
	// profiling experiment uses this as its version-skew lever.
	EntryPadOps int

	Iterations int
	InputSize  int
}

// internal generator state follows.
//
// rng is a splitmix64-ish deterministic generator.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) chance(p float64) bool { return r.float() < p }

// InputBytes deterministically generates the input-data blob for a seed.
// The experiment harness uses it to swap evaluation inputs into an
// already-built (or already-BOLTed) binary without relinking.
func InputBytes(seed uint64, n int) []byte {
	r := rng{s: seed}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.next())
	}
	return b
}

// zipfWeights returns n weights following a Zipf(s) distribution.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Generate builds the program for a spec.
func Generate(spec Spec) *ir.Program {
	g := &generator{spec: spec, r: rng{s: spec.Seed}}
	return g.run()
}

type generator struct {
	spec Spec
	r    rng

	prog      *ir.Program
	modules   []*ir.Module
	shared    *ir.Module
	funcNames [][]string // per layer
	lineNo    int32
	input     []byte
	fptabs    []string
}

func (g *generator) nextLine() int32 {
	g.lineNo += 3
	return g.lineNo
}

func (g *generator) run() *ir.Program {
	s := &g.spec
	if s.Modules == 0 {
		s.Modules = 4
	}
	if s.FuncsPerModule == 0 {
		s.FuncsPerModule = 50
	}
	if s.Layers == 0 {
		s.Layers = 3
	}
	if s.DispatchSlots == 0 {
		s.DispatchSlots = 64
	}
	if s.SegmentsMax == 0 {
		s.SegmentsMin, s.SegmentsMax = 1, 3
	}
	if s.InputSize == 0 {
		s.InputSize = 1 << 14
	}
	if s.Iterations == 0 {
		s.Iterations = 20000
	}

	g.prog = &ir.Program{}
	inputSeed := s.InputSeed
	if inputSeed == 0 {
		inputSeed = s.Seed ^ 0xDA7A5EED
	}
	g.input = InputBytes(inputSeed, s.InputSize)
	g.prog.Globals = append(g.prog.Globals, &ir.Global{Name: "input", Data: g.input, Align: 8})

	for m := 0; m < s.Modules; m++ {
		g.modules = append(g.modules, &ir.Module{Name: fmt.Sprintf("mod%d", m)})
	}
	g.prog.Modules = g.modules
	if s.SharedFuncs > 0 {
		g.shared = &ir.Module{Name: "libshared", Shared: true}
		g.prog.Modules = append(g.prog.Modules, g.shared)
	}

	// Function name plan, layer by layer (layer 0 = dispatch targets).
	total := s.Modules * s.FuncsPerModule
	perLayer := total / s.Layers
	g.funcNames = make([][]string, s.Layers)
	idx := 0
	for l := 0; l < s.Layers; l++ {
		n := perLayer
		if l == s.Layers-1 {
			n = total - perLayer*(s.Layers-1)
		}
		for k := 0; k < n; k++ {
			g.funcNames[l] = append(g.funcNames[l], fmt.Sprintf("f%d_%d", l, k))
			idx++
		}
	}

	// Shared leaves.
	var sharedNames []string
	for k := 0; k < s.SharedFuncs; k++ {
		name := fmt.Sprintf("lib_%d", k)
		sharedNames = append(sharedNames, name)
		g.shared.Funcs = append(g.shared.Funcs, g.makeLeaf(name, "libshared.mir", int64(3+k%7)))
	}

	// Indirect-tail-call targets must never forward again (no cycles):
	// a dedicated table over shared leaves, created before any function
	// that might become a forwarder.
	if len(sharedNames) >= 2 && s.IndirectTailFrac > 0 {
		gl := &ir.Global{Name: "tailtab", Data: make([]byte, 16), Align: 8}
		gl.FuncRefs = []ir.FuncRef{
			{Off: 0, Name: sharedNames[0]},
			{Off: 8, Name: sharedNames[1]},
		}
		g.prog.Globals = append(g.prog.Globals, gl)
		g.fptabs = append(g.fptabs, "tailtab")
	}

	// Duplicate families.
	dupIdx := 0
	for fam := 0; fam < s.DupFamilies; fam++ {
		withJT := fam%2 == 0
		for c := 0; c < s.DupSize; c++ {
			name := fmt.Sprintf("dup%d_%d", fam, c)
			mod := g.modules[g.r.intn(len(g.modules))]
			mod.Funcs = append(mod.Funcs, g.makeDup(name, fam, withJT))
			dupIdx++
		}
	}

	// Bottom-up: leaves first.
	for l := s.Layers - 1; l >= 0; l-- {
		for k, name := range g.funcNames[l] {
			mod := g.modules[(k+l)%len(g.modules)]
			var callees []string
			if l+1 < s.Layers {
				callees = g.funcNames[l+1]
			}
			fn := g.makeFunc(name, mod.Name+".mir", l, k, callees, sharedNames)
			mod.Funcs = append(mod.Funcs, fn)
		}
	}

	g.makeDispatcher()
	g.prog.Finalize()
	return g.prog
}

// makeLeaf builds a tiny frameless compute function.
func (g *generator) makeLeaf(name, file string, mul int64) *ir.Func {
	f := ir.NewFunc(name, file, g.nextLine())
	b := f.Blocks[0]
	b.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: mul},
		{Kind: ir.OpMul, Dst: isa.RAX, Src: isa.RCX},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: mul ^ 0x55},
	}
	b.Term = ir.Term{Kind: ir.TermReturn}
	if g.r.chance(g.spec.RepzRetFrac) {
		f.RepzRet = true
	}
	return f
}

// makeDup builds one member of a duplicate family: the body depends only
// on the family id, so all members are byte-identical (think template
// instantiations with the same code). Bodies carry realistic bulk so
// folding them moves the code-size needle like the paper's ~3% (§4).
func (g *generator) makeDup(name string, fam int, withJT bool) *ir.Func {
	f := ir.NewFunc(name, fmt.Sprintf("dup%d.mir", fam), int32(1000+fam*10))
	b := f.Blocks[0]
	b.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAndImm, Dst: isa.RAX, Imm: 7},
	}
	// Family-deterministic bulk (identical across clones).
	famRng := rng{s: uint64(fam)*0x9E37 + 7}
	bulk := 24 + int(famRng.next()%48)
	for i := 0; i < bulk; i++ {
		switch i % 3 {
		case 0:
			b.Ops = append(b.Ops, ir.Op{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: int64(famRng.next() & 0xFFFF)})
		case 1:
			b.Ops = append(b.Ops, ir.Op{Kind: ir.OpShlImm, Dst: isa.RCX, Imm: int64(1 + i%7)})
		default:
			b.Ops = append(b.Ops, ir.Op{Kind: ir.OpAdd, Dst: isa.RAX, Src: isa.RCX})
		}
	}
	if !withJT {
		b.Ops = append(b.Ops, ir.Op{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: int64(fam * 3)})
		b.Term = ir.Term{Kind: ir.TermReturn}
		return f
	}
	// Jump-table variant: linkers cannot fold these (paper §4).
	cases := make([]int, 4)
	merge := -1
	b.Ops = append(b.Ops, ir.Op{Kind: ir.OpAndImm, Dst: isa.RAX, Imm: 3})
	for i := range cases {
		c := f.AddBlock()
		cases[i] = c.Index
		c.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: int64(fam + i*i)}}
	}
	m := f.AddBlock()
	merge = m.Index
	m.Term = ir.Term{Kind: ir.TermReturn}
	for _, ci := range cases {
		f.Blocks[ci].Term = ir.Term{Kind: ir.TermJump, Then: merge}
	}
	b.Term = ir.Term{Kind: ir.TermSwitch, IndexReg: isa.RAX, Targets: cases, PIC: fam%4 < 2}
	return f
}

// makeFunc builds one application function at layer l.
func (g *generator) makeFunc(name, file string, l, k int, callees, sharedNames []string) *ir.Func {
	s := &g.spec
	f := ir.NewFunc(name, file, g.nextLine())
	isLeafLayer := len(callees) == 0

	// Indirect tail-call functions are frameless forwarders (non-simple
	// for gobolt; they also populate the residual warm area of Fig 9).
	if isLeafLayer && g.r.chance(s.IndirectTailFrac) && len(g.fptabs) > 0 {
		b := f.Blocks[0]
		b.Ops = []ir.Op{
			{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
			{Kind: ir.OpAndImm, Dst: isa.RAX, Imm: 1},
		}
		b.Term = ir.Term{Kind: ir.TermTailIndirect, Callee: g.fptabs[g.r.intn(len(g.fptabs))], IndexReg: isa.RAX}
		return f
	}

	if isLeafLayer {
		return g.makeLeafLayerFunc(f, name)
	}

	f.SavedRegs = []isa.Reg{isa.RBX, isa.R12}
	useR13 := g.r.chance(s.ShrinkWrapFrac)
	if useR13 {
		f.SavedRegs = append(f.SavedRegs, isa.R13)
	}

	entry := f.Blocks[0]
	entry.Ops = append(entry.Ops, g.entryPad()...)
	entry.Ops = append(entry.Ops,
		ir.Op{Kind: ir.OpMov, Dst: isa.RBX, Src: isa.RDI}, // accumulator
		ir.Op{Kind: ir.OpMov, Dst: isa.R12, Src: isa.RDI}, // work id
	)
	cur := entry

	segments := s.SegmentsMin
	if s.SegmentsMax > s.SegmentsMin {
		segments += g.r.intn(s.SegmentsMax - s.SegmentsMin)
	}
	salt := int64(g.r.next() & 0x3FF)

	// loadInputByte emits idx computation + byte load into RAX.
	loadInputByte := func(b *ir.Block, extra int64) {
		b.Ops = append(b.Ops,
			ir.Op{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.R12},
			ir.Op{Kind: ir.OpMovImm, Dst: isa.RDX, Imm: salt + extra},
			ir.Op{Kind: ir.OpAdd, Dst: isa.RCX, Src: isa.RDX},
			ir.Op{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: int64(s.InputSize - 1)},
			ir.Op{Kind: ir.OpLoadByte, Dst: isa.RAX, Src: isa.RCX, Sym: "input", Scale: 1},
		)
	}
	pickCallee := func() string {
		// Locality: prefer callees in a window around 2*k, with a wide
		// enough spread that the executed footprint covers most layers.
		base := (2*k + g.r.intn(31)) % len(callees)
		return callees[base]
	}

	for seg := 0; seg < segments; seg++ {
		hot := f.AddBlock()
		cold := f.AddBlock()
		cold.Cold = true
		join := f.AddBlock()

		loadInputByte(cur, int64(seg*13))
		threshold := int64(256 * (1 - s.ColdProb))
		cur.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.RAX, CmpImm: threshold,
			Then: hot.Index, Else: cold.Index, Prob: 1 - s.ColdProb}

		// Hot side: compute + call downward, optionally with an inner
		// counted loop (the hot core where fetch heat concentrates).
		spill := isa.NoReg
		if g.r.chance(s.SpillFrac) {
			spill = isa.R9
		}
		hot.Ops = []ir.Op{
			{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
			{Kind: ir.OpCall, Callee: pickCallee(), SpillReg: spill, LandingPad: -1},
			{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
		}
		if g.r.chance(s.LoopFrac) {
			// trip count = 2 + (RAX & 7) from the already-loaded byte.
			hot.Ops = append(hot.Ops,
				ir.Op{Kind: ir.OpMov, Dst: isa.RDX, Src: isa.RAX},
				ir.Op{Kind: ir.OpAndImm, Dst: isa.RDX, Imm: 7},
				ir.Op{Kind: ir.OpAddImm, Dst: isa.RDX, Imm: 2},
			)
			head := f.AddBlock()
			body := f.AddBlock()
			hot.Term = ir.Term{Kind: ir.TermJump, Then: head.Index}
			head.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondG, CmpReg: isa.RDX,
				CmpImm: 0, Then: body.Index, Else: join.Index, Prob: 0.85}
			body.Ops = []ir.Op{
				{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.R12},
				{Kind: ir.OpXor, Dst: isa.RCX, Src: isa.RDX},
				{Kind: ir.OpShlImm, Dst: isa.RCX, Imm: 1},
				{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RCX},
				{Kind: ir.OpAddImm, Dst: isa.RDX, Imm: -1},
			}
			body.Term = ir.Term{Kind: ir.TermJump, Then: head.Index}
		} else {
			hot.Term = ir.Term{Kind: ir.TermJump, Then: join.Index}
		}

		// Cold side: error-path flavored.
		if g.r.chance(s.ThrowFrac) {
			lp := f.AddBlock()
			lp.Cold = true
			lp.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: 10_000}}
			lp.Term = ir.Term{Kind: ir.TermJump, Then: join.Index}
			cold.Ops = []ir.Op{
				{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
				{Kind: ir.OpCall, Callee: "raise", SpillReg: isa.NoReg, LandingPad: lp.Index},
				{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
			}
			cold.Term = ir.Term{Kind: ir.TermJump, Then: join.Index}
		} else if useR13 && seg == 0 {
			// Cold-only use of R13: shrink-wrapping candidate.
			cold.Ops = []ir.Op{
				{Kind: ir.OpMov, Dst: isa.R13, Src: isa.R12},
				{Kind: ir.OpShlImm, Dst: isa.R13, Imm: 2},
				{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.R13},
				{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: 77},
			}
			cold.Term = ir.Term{Kind: ir.TermJump, Then: join.Index}
		} else {
			cold.Ops = []ir.Op{
				{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: int64(seg + 11)},
				{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RCX},
			}
			cold.Term = ir.Term{Kind: ir.TermJump, Then: join.Index}
		}
		g.padCold(cold)
		cur = join
	}

	// Optional switch segment.
	if g.r.chance(s.JumpTableFrac) {
		ncases := 4 + g.r.intn(4)
		caseIdx := make([]int, ncases)
		join := f.AddBlock()
		loadInputByte(cur, 97)
		cur.Ops = append(cur.Ops, ir.Op{Kind: ir.OpAndImm, Dst: isa.RAX, Imm: 7})
		var targets []int
		for i := 0; i < ncases; i++ {
			c := f.AddBlock()
			caseIdx[i] = c.Index
			c.Ops = []ir.Op{
				{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: int64(i * i)},
				{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RCX},
			}
			if len(callees) > 0 && i == 0 {
				c.Ops = append(c.Ops,
					ir.Op{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
					ir.Op{Kind: ir.OpCall, Callee: pickCallee(), SpillReg: isa.NoReg, LandingPad: -1},
					ir.Op{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX})
			}
			c.Term = ir.Term{Kind: ir.TermJump, Then: join.Index}
		}
		for i := 0; i < 8; i++ {
			targets = append(targets, caseIdx[i%ncases])
		}
		cur.Term = ir.Term{Kind: ir.TermSwitch, IndexReg: isa.RAX, Targets: targets,
			PIC: g.r.chance(s.PICFrac)}
		cur = join
	}

	// Optional indirect call through a function-pointer table.
	if g.r.chance(s.IndirectCallFrac) {
		tab := g.makeFptab(callees, sharedNames)
		if tab != "" {
			// Heavily biased index: slot 0 dominates (ICP candidate).
			cur.Ops = append(cur.Ops,
				ir.Op{Kind: ir.OpMov, Dst: isa.RSI, Src: isa.R12},
				ir.Op{Kind: ir.OpAndImm, Dst: isa.RSI, Imm: 15},
				ir.Op{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: 13},
				ir.Op{Kind: ir.OpMovImm, Dst: isa.RDX, Imm: 0},
			)
			// idx = (rsi < 13) ? 0 : rsi-12  -> implemented as branch.
			hotc := f.AddBlock()
			rare := f.AddBlock()
			rare.Cold = true
			icall := f.AddBlock()
			cur.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.RSI,
				CmpUseReg: true, CmpReg2: isa.RCX, Then: hotc.Index, Else: rare.Index, Prob: 13.0 / 16}
			hotc.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RSI, Imm: 0}}
			hotc.Term = ir.Term{Kind: ir.TermJump, Then: icall.Index}
			rare.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RSI, Imm: -12}}
			rare.Term = ir.Term{Kind: ir.TermJump, Then: icall.Index}
			icall.Ops = []ir.Op{
				{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
				{Kind: ir.OpCallIndirect, Sym: tab, Src: isa.RSI, LandingPad: -1},
				{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
			}
			cur = icall
		}
	}

	// Shared-library call.
	if len(sharedNames) > 0 && g.r.chance(0.4) {
		cur.Ops = append(cur.Ops,
			ir.Op{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
			ir.Op{Kind: ir.OpCall, Callee: sharedNames[g.r.intn(len(sharedNames))], SpillReg: isa.NoReg, LandingPad: -1},
			ir.Op{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX})
	}

	cur.Ops = append(cur.Ops, ir.Op{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX})
	cur.Term = ir.Term{Kind: ir.TermReturn}
	if g.r.chance(s.RepzRetFrac) {
		f.RepzRet = true
	}
	return f
}

// padCold prepends cold-side filler ops (simulated error handling bulk).
// RCX/RDX churn only; semantics of the block are unchanged because the
// filler result is discarded before the block's real ops run.
func (g *generator) padCold(b *ir.Block) {
	s := &g.spec
	if s.ColdOpsMax <= 0 {
		return
	}
	n := s.ColdOpsMin
	if s.ColdOpsMax > s.ColdOpsMin {
		n += g.r.intn(s.ColdOpsMax - s.ColdOpsMin)
	}
	filler := make([]ir.Op, 0, n+len(b.Ops))
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			filler = append(filler, ir.Op{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: int64(g.r.next() & 0xFFFF)})
		case 1:
			filler = append(filler, ir.Op{Kind: ir.OpShlImm, Dst: isa.RCX, Imm: int64(1 + i%5)})
		case 2:
			filler = append(filler, ir.Op{Kind: ir.OpMovImm, Dst: isa.RDX, Imm: int64(i * 97)})
		default:
			filler = append(filler, ir.Op{Kind: ir.OpAdd, Dst: isa.RCX, Src: isa.RDX})
		}
	}
	b.Ops = append(filler, b.Ops...)
}

// entryPad materializes the Spec.EntryPadOps version-skew filler:
// identity moves on the return register, harmless under every calling
// convention the generators use.
func (g *generator) entryPad() []ir.Op {
	if g.spec.EntryPadOps <= 0 {
		return nil
	}
	ops := make([]ir.Op, g.spec.EntryPadOps)
	for i := range ops {
		ops[i] = ir.Op{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RAX}
	}
	return ops
}

// makeLeafLayerFunc emits a branchy frameless leaf.
func (g *generator) makeLeafLayerFunc(f *ir.Func, name string) *ir.Func {
	s := &g.spec
	b := f.Blocks[0]
	hot := f.AddBlock()
	cold := f.AddBlock()
	cold.Cold = true
	done := f.AddBlock()
	salt := int64(g.r.next() & 0x7FF)
	b.Ops = append(g.entryPad(),
		ir.Op{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.RDI},
		ir.Op{Kind: ir.OpAddImm, Dst: isa.RCX, Imm: salt},
		ir.Op{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: int64(s.InputSize - 1)},
		ir.Op{Kind: ir.OpLoadByte, Dst: isa.RAX, Src: isa.RCX, Sym: "input", Scale: 1},
	)
	threshold := int64(256 * (1 - s.ColdProb))
	b.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.RAX, CmpImm: threshold,
		Then: hot.Index, Else: cold.Index, Prob: 1 - s.ColdProb}
	hot.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: salt | 1},
		{Kind: ir.OpMul, Dst: isa.RAX, Src: isa.RCX},
	}
	hot.Term = ir.Term{Kind: ir.TermJump, Then: done.Index}
	cold.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpShlImm, Dst: isa.RAX, Imm: 3},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: salt * 7},
		{Kind: ir.OpXor, Dst: isa.RAX, Src: isa.RDI},
	}
	cold.Term = ir.Term{Kind: ir.TermJump, Then: done.Index}
	g.padCold(cold)
	done.Term = ir.Term{Kind: ir.TermReturn}
	return f
}

// makeFptab creates (or reuses) a function-pointer table over candidates.
func (g *generator) makeFptab(callees, sharedNames []string) string {
	pool := callees
	if len(pool) == 0 {
		pool = sharedNames
	}
	if len(pool) == 0 {
		return ""
	}
	name := fmt.Sprintf("fptab%d", len(g.fptabs))
	n := 4
	gl := &ir.Global{Name: name, Data: make([]byte, 8*n), Align: 8, Writable: false}
	for i := 0; i < n; i++ {
		gl.FuncRefs = append(gl.FuncRefs, ir.FuncRef{Off: uint32(8 * i), Name: pool[g.r.intn(len(pool))]})
	}
	g.prog.Globals = append(g.prog.Globals, gl)
	g.fptabs = append(g.fptabs, name)
	return name
}

// makeDispatcher builds `raise`, `_start`, and the Zipf-weighted dispatch
// jump table over layer-0 functions.
func (g *generator) makeDispatcher() {
	s := &g.spec

	// raise: throws unconditionally (callers set landing pads).
	raise := ir.NewFunc("raise", "runtime.mir", 5)
	raise.Blocks[0].Term = ir.Term{Kind: ir.TermThrow, LandingPad: -1}
	g.modules[0].Funcs = append(g.modules[0].Funcs, raise)

	targets := g.funcNames[0]
	weights := zipfWeights(len(targets), s.ZipfS)

	// Dispatch table: slot counts proportional to Zipf weights.
	slots := make([]int, 0, s.DispatchSlots)
	for i := range targets {
		n := int(math.Round(weights[i] * float64(s.DispatchSlots)))
		for j := 0; j < n && len(slots) < s.DispatchSlots; j++ {
			slots = append(slots, i)
		}
	}
	for len(slots) < s.DispatchSlots {
		slots = append(slots, len(targets)-1)
	}

	start := ir.NewFunc("_start", "main.mir", 1)
	start.SavedRegs = []isa.Reg{isa.RBX, isa.R13}
	entry := start.Blocks[0]
	loop := start.AddBlock()
	// One call block per layer-0 function.
	callBlocks := make([]int, len(targets))
	merge := start.AddBlock()
	exit := start.AddBlock()
	lp := start.AddBlock()
	lp.Cold = true

	entry.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RBX, Imm: 0},
		{Kind: ir.OpMovImm, Dst: isa.R13, Imm: 0},
	}
	entry.Term = ir.Term{Kind: ir.TermJump, Then: loop.Index}

	for i := range targets {
		cb := start.AddBlock()
		callBlocks[i] = cb.Index
		cb.Ops = []ir.Op{
			{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R13},
			{Kind: ir.OpCall, Callee: targets[i], SpillReg: isa.NoReg, LandingPad: lp.Index},
			{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
		}
		cb.Term = ir.Term{Kind: ir.TermJump, Then: merge.Index}
	}

	// loop: combine two input bytes so jump tables larger than 256
	// slots are fully exercised:
	//   idx = (input[(i*7+3) & mask] ^ input[(i*13+5) & mask] << 3) & (slots-1)
	loop.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.R13},
		{Kind: ir.OpMovImm, Dst: isa.RDX, Imm: 7},
		{Kind: ir.OpMul, Dst: isa.RCX, Src: isa.RDX},
		{Kind: ir.OpAddImm, Dst: isa.RCX, Imm: 3},
		{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: int64(s.InputSize - 1)},
		{Kind: ir.OpLoadByte, Dst: isa.RAX, Src: isa.RCX, Sym: "input", Scale: 1},
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.R13},
		{Kind: ir.OpMovImm, Dst: isa.RDX, Imm: 13},
		{Kind: ir.OpMul, Dst: isa.RCX, Src: isa.RDX},
		{Kind: ir.OpAddImm, Dst: isa.RCX, Imm: 5},
		{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: int64(s.InputSize - 1)},
		{Kind: ir.OpLoadByte, Dst: isa.RDX, Src: isa.RCX, Sym: "input", Scale: 1},
		{Kind: ir.OpShlImm, Dst: isa.RDX, Imm: 3},
		{Kind: ir.OpXor, Dst: isa.RAX, Src: isa.RDX},
		{Kind: ir.OpAndImm, Dst: isa.RAX, Imm: int64(s.DispatchSlots - 1)},
	}
	swTargets := make([]int, s.DispatchSlots)
	for i, t := range slots {
		swTargets[i] = callBlocks[t]
	}
	loop.Term = ir.Term{Kind: ir.TermSwitch, IndexReg: isa.RAX, Targets: swTargets, PIC: false}

	merge.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.R13, Imm: 1}}
	merge.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.R13,
		CmpImm: int64(s.Iterations), Then: loop.Index, Else: exit.Index,
		Prob: 1 - 1/float64(s.Iterations)}

	lp.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: 1_000_000}}
	lp.Term = ir.Term{Kind: ir.TermJump, Then: merge.Index}

	exit.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX}}
	exit.Term = ir.Term{Kind: ir.TermExit}

	g.modules[0].Funcs = append(g.modules[0].Funcs, start)
}
