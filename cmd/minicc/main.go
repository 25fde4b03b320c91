// Command minicc builds a synthetic workload into an ELF executable —
// the "compiler + linker" half of the Figure 1 pipeline. Programs come
// from the named generators in internal/workload.
//
//	minicc -workload hhvm -o hhvm.elf
//	minicc -workload clang -flto -o clang.lto.elf
//	vmrun -record clang.fdata clang.lto.elf
//	minicc -workload clang -fprofile-use clang.fdata -flto -o clang.pgo.elf
//
// -fprofile-use wants a profile of the binary minicc builds from the same
// flags without it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gobolt/internal/bench"
	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/hfsort"
	"gobolt/internal/ir"
	"gobolt/internal/ld"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

func main() {
	wl := flag.String("workload", "tiny", "workload preset: tiny|hhvm|tao|proxygen|multifeed1|multifeed2|clang|gcc|figure2")
	out := flag.String("o", "a.elf", "output path")
	lto := flag.Bool("flto", false, "link-time optimization (cross-module inlining, static PLT elision)")
	profileUse := flag.String("fprofile-use", "", "fdata profile for PGO (converted to source-level, like AutoFDO), recorded on this build without the flag")
	reorderFuncs := flag.String("freorder-functions", "", "link-time function order: hfsort|exec (needs -fprofile-use)")
	emitRelocs := flag.Bool("emit-relocs", true, "keep relocations in the output (--emit-relocs)")
	icf := flag.Bool("licf", true, "linker identical-code folding")
	seed := flag.Uint64("seed", 0, "override workload seed")
	inputSeed := flag.Uint64("input-seed", 0, "override input-data seed")
	iterations := flag.Int("iterations", 0, "override iteration count")
	flag.Parse()

	// Unset stays "" (no link-time ordering); anything else must parse.
	funcOrder, err := hfsort.ParseAlgorithm(*reorderFuncs)
	if err != nil && *reorderFuncs != "" {
		fmt.Fprintln(os.Stderr, "minicc: -freorder-functions:", err)
		os.Exit(2)
	}

	var prog = func() *workload.Spec {
		if *wl == "figure2" {
			return nil
		}
		spec, ok := workload.ByName(*wl)
		if !ok {
			if *wl == "tiny" {
				spec = workload.Tiny()
			} else {
				fmt.Fprintf(os.Stderr, "minicc: unknown workload %q\n", *wl)
				os.Exit(2)
			}
		}
		if *seed != 0 {
			spec.Seed = *seed
		}
		if *inputSeed != 0 {
			spec.InputSeed = *inputSeed
		}
		if *iterations != 0 {
			spec.Iterations = *iterations
		}
		return &spec
	}()

	p := workload.GenerateFigure2()
	if prog != nil {
		p = workload.Generate(*prog)
	}

	copts := cc.DefaultOptions()
	copts.LTO = *lto
	lopts := ld.Options{EmitRelocs: *emitRelocs, ICF: *icf, NoPLT: *lto}
	var fd *profile.Fdata
	if *profileUse != "" {
		r, err := os.Open(*profileUse)
		if err != nil {
			fatal(err)
		}
		fd, err = profile.Parse(context.Background(), r)
		r.Close()
		if err != nil {
			fatal(err)
		}
	}
	res, err := build(p, copts, lopts, fd, funcOrder)
	if err != nil {
		fatal(err)
	}
	if err := res.File.WriteFile(*out); err != nil {
		fatal(err)
	}
	var f *elfx.File = res.File
	fmt.Printf("minicc: wrote %s (%d functions, .text %d bytes, entry %#x, linker ICF folded %d)\n",
		*out, len(f.FuncSymbols()), res.TextSize, f.Entry, res.ICFFolded)
}

// build compiles and links p under copts and lopts. With a profile fd it
// is the second phase of a two-phase build: fd must have been recorded on
// that build of p, and bench.Rebuild — the harness's PGO and HFSort step —
// converts it against that build and compiles p again.
func build(p *ir.Program, copts cc.Options, lopts ld.Options, fd *profile.Fdata, order hfsort.Algorithm) (*ld.Result, error) {
	objs, err := cc.Compile(p, copts)
	if err != nil {
		return nil, err
	}
	res, err := ld.Link(objs, lopts)
	if err != nil || fd == nil {
		return res, err
	}
	return bench.Rebuild(p, copts, lopts, res.File, fd, true, order)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minicc:", err)
	os.Exit(1)
}
