// Package cc is the mini compiler: it lowers MIR (internal/ir) to x86-64
// subset machine code in object form (internal/obj).
//
// cc exists so the repository can reproduce the paper's *baselines*: plain
// -O2 builds, PGO builds (-fprofile-use with source-keyed, context-
// insensitive profiles — the Figure 2 accuracy loss), and LTO builds
// (cross-module inlining). gobolt then runs on cc+ld output exactly the
// way BOLT runs on GCC/Clang output.
package cc

import (
	"context"
	"fmt"
	"sort"

	"gobolt/internal/asmx"
	"gobolt/internal/ir"
	"gobolt/internal/obj"
	"gobolt/internal/par"
)

// SrcKey identifies a source location; the PGO profile is keyed by it.
// Keying by (file, line) — with no inline context — is precisely the
// accuracy limitation of compiler-level profile retrofitting the paper
// motivates with Figure 2: all inlined copies of a line share one entry.
type SrcKey struct {
	File string
	Line int32
}

// BranchStat aggregates outcomes of the conditional branch at a source
// line, keyed by the *successor's* source location (the binary-level
// taken/fall-through polarity is a layout artifact; successor lines are
// stable across builds, the way AutoFDO uses discriminators).
type BranchStat struct {
	Total  uint64
	BySucc map[SrcKey]uint64
}

// SourceProfile is an AutoFDO-style profile mapped back to source.
type SourceProfile struct {
	Branch map[SrcKey]*BranchStat
	Call   map[SrcKey]uint64 // per-call-site execution counts
	Func   map[string]uint64 // per-function entry counts
}

// NewSourceProfile returns an empty profile.
func NewSourceProfile() *SourceProfile {
	return &SourceProfile{
		Branch: map[SrcKey]*BranchStat{},
		Call:   map[SrcKey]uint64{},
		Func:   map[string]uint64{},
	}
}

// AddBranchSample accumulates `count` executions of the branch at key
// that continued to succ.
func (sp *SourceProfile) AddBranchSample(key, succ SrcKey, count uint64) {
	st := sp.Branch[key]
	if st == nil {
		st = &BranchStat{BySucc: map[SrcKey]uint64{}}
		sp.Branch[key] = st
	}
	st.Total += count
	st.BySucc[succ] += count
}

// Code-generation constants of every build: functions start 16-byte
// aligned; loop-header blocks are padded to 16 bytes with NOPs, like
// -falign-loops (gobolt strips these); with a profile, a callee of at
// most pgoInlineOps ops is inlined at a call site run at least
// hotCallCount times.
const (
	funcAlign    = 16
	blockAlign   = 16
	pgoInlineOps = 14
	hotCallCount = 32
)

// Options configures a build. Start from DefaultOptions().
type Options struct {
	// LTO allows cross-module inlining (link-time optimization).
	LTO bool
	// PGO, when non-nil, enables profile-guided inlining, block layout,
	// and branch polarity using the (source-keyed) profile.
	PGO *SourceProfile
	// TinyInlineOps is the always-inline size threshold (default 3).
	TinyInlineOps int
}

// DefaultOptions returns the plain -O2 configuration.
func DefaultOptions() Options { return Options{TinyInlineOps: 3} }

// Compile lowers the program to one object per module, plus a synthetic
// runtime object providing __throw. p must be finalized
// (ir.Program.Finalize); Compile only reads it, so several goroutines may
// compile one program at once.
func Compile(p *ir.Program, opts Options) ([]*obj.Object, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}

	funcs := inlineAll(p, opts)

	sharedFuncs := map[string]bool{}
	for _, m := range p.Modules {
		if m.Shared {
			for _, f := range m.Funcs {
				sharedFuncs[f.Name] = true
			}
		}
	}

	// Lower every function over the pool. Each worker reuses one
	// lowerState, so its assembler and mark buffers stop growing after
	// the first few functions; results land in module and function order.
	type lowered struct {
		f       *obj.Func
		globals []*obj.Global
	}
	out := make([]lowered, len(funcs))
	states := make([]*lowerState, par.Jobs(0, len(funcs)))
	if _, err := par.For(context.TODO(), len(funcs), len(states), func(w, i int) error {
		if states[w] == nil {
			states[w] = &lowerState{a: asmx.New(), sharedFuncs: sharedFuncs}
		}
		f := funcs[i]
		of, globals, err := states[w].lower(f, layoutBlocks(f, opts))
		if err != nil {
			return fmt.Errorf("cc: %s: %w", f.Name, err)
		}
		of.Shared = f.Module().Shared
		out[i] = lowered{of, globals}
		return nil
	}); err != nil {
		return nil, err
	}
	var objs []*obj.Object
	for _, m := range p.Modules {
		o := &obj.Object{Name: m.Name, Funcs: make([]*obj.Func, len(m.Funcs))}
		for j := range m.Funcs {
			o.Funcs[j] = out[j].f
			o.Globals = append(o.Globals, out[j].globals...)
		}
		out = out[len(m.Funcs):]
		objs = append(objs, o)
	}

	// Global data lives in a dedicated object.
	dataObj := &obj.Object{Name: "__data__"}
	for _, g := range p.Globals {
		og := &obj.Global{
			Name: g.Name, Data: g.Data, Align: g.Align, Writable: g.Writable,
		}
		for _, fr := range g.FuncRefs {
			og.Relocs = append(og.Relocs, obj.Reloc{
				Off: fr.Off, Type: obj.RelAbs64, Sym: fr.Name,
			})
		}
		dataObj.Globals = append(dataObj.Globals, og)
	}
	objs = append(objs, dataObj)

	// Runtime: __throw is the unwinder entry point the VM intercepts.
	rt := &obj.Object{Name: "__runtime__"}
	rt.Funcs = append(rt.Funcs, &obj.Func{
		Name:  "__throw",
		Bytes: []byte{0x0F, 0x0B}, // ud2; never actually executed
		Align: 16,
	})
	objs = append(objs, rt)
	return objs, nil
}

// sortedKeys is a tiny helper for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
