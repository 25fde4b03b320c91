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
	"io"
	"os"

	"gobolt/internal/bench"
	"gobolt/internal/cc"
	"gobolt/internal/hfsort"
	"gobolt/internal/ir"
	"gobolt/internal/ld"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is minicc with its arguments and output streams; it returns the
// exit status: 2 for a usage error, 1 for a failed build.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("minicc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "tiny", "workload preset: tiny|hhvm|tao|proxygen|multifeed1|multifeed2|clang|gcc|figure2")
	out := fs.String("o", "a.elf", "output path")
	lto := fs.Bool("flto", false, "link-time optimization (cross-module inlining, static PLT elision)")
	profileUse := fs.String("fprofile-use", "", "fdata profile for PGO (converted to source-level, like AutoFDO), recorded on this build without the flag")
	reorderFuncs := fs.String("freorder-functions", "", "link-time function order: hfsort|exec (needs -fprofile-use)")
	emitRelocs := fs.Bool("emit-relocs", true, "keep relocations in the output (--emit-relocs)")
	icf := fs.Bool("licf", true, "linker identical-code folding")
	seed := fs.Uint64("seed", 0, "override workload seed")
	inputSeed := fs.Uint64("input-seed", 0, "override input-data seed")
	iterations := fs.Int("iterations", 0, "override iteration count")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "minicc:", err)
		return 1
	}

	// Unset stays "" (no link-time ordering); anything else must parse,
	// and orders by a profile, so it needs one.
	funcOrder, err := hfsort.ParseAlgorithm(*reorderFuncs)
	if err != nil && *reorderFuncs != "" {
		fmt.Fprintln(stderr, "minicc: -freorder-functions:", err)
		return 2
	}
	if *reorderFuncs != "" && *profileUse == "" {
		fmt.Fprintln(stderr, "minicc: -freorder-functions needs -fprofile-use")
		return 2
	}

	p := workload.GenerateFigure2()
	if *wl != "figure2" {
		spec, ok := workload.ByName(*wl)
		if !ok {
			if *wl != "tiny" {
				fmt.Fprintf(stderr, "minicc: unknown workload %q\n", *wl)
				return 2
			}
			spec = workload.Tiny()
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
		p = workload.Generate(spec)
	}

	copts := cc.DefaultOptions()
	copts.LTO = *lto
	lopts := ld.Options{EmitRelocs: *emitRelocs, ICF: *icf, NoPLT: *lto}
	var fd *profile.Fdata
	if *profileUse != "" {
		r, err := os.Open(*profileUse)
		if err != nil {
			return fail(err)
		}
		fd, err = profile.Parse(context.Background(), r)
		r.Close()
		if err != nil {
			return fail(err)
		}
	}
	res, err := build(p, copts, lopts, fd, funcOrder)
	if err != nil {
		return fail(err)
	}
	if err := res.File.WriteFile(*out); err != nil {
		return fail(err)
	}
	f := res.File
	fmt.Fprintf(stdout, "minicc: wrote %s (%d functions, .text %d bytes, entry %#x, linker ICF folded %d)\n",
		*out, len(f.FuncSymbols()), res.TextSize, f.Entry, res.ICFFolded)
	return 0
}

// build compiles and links p under copts and lopts. With a profile fd it
// is the second phase of a two-phase build: fd must have been recorded on
// that build of p, and bench.Rebuild — the harness's PGO step —
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
	return bench.Rebuild(p, copts, lopts, res.File, fd, order)
}
