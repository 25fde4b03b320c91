// Command vmrun executes a toolchain ELF binary under the VM — the
// "hardware" of this reproduction. It can sample profiles like
// `perf record` (-record, -lbr, -event) and report microarchitecture
// counters like `perf stat` (-stat), from one run: with both flags the
// sampler and the simulator watch the same execution, and -max-instr
// stops it at exactly N instructions either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"gobolt/bolt"
	"gobolt/internal/elfx"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/uarch"
	"gobolt/internal/vm"
)

// errUsage marks a bad invocation; main exits 2 (the flag-package
// convention) after the usage line was printed, everything else exits 1.
var errUsage = errors.New("usage")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "vmrun:", err)
		os.Exit(1)
	}
}

func run() error {
	record := flag.String("record", "", "write an fdata profile to this path")
	lbr := flag.Bool("lbr", true, "use LBR sampling (-j any,u)")
	event := flag.String("event", "cycles", "sampling event: cycles|instructions|branches")
	period := flag.Uint64("period", 4096, "sampling period (instructions)")
	pebs := flag.Int("pebs", 0, "PEBS precision level 0-3 (non-LBR skid reduction)")
	shapes := flag.Bool("shapes", true, "embed CFG block shapes in the profile (v2 format) for stale matching")
	stat := flag.Bool("stat", false, "simulate the microarchitecture and print perf-stat counters")
	maxInstr := flag.Uint64("max-instr", 0, "stop after N instructions (0 = run to halt)")
	flag.Parse()

	ev, err := perf.ParseEvent(*event)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmrun: -event:", err)
		return errUsage
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vmrun [flags] <binary>")
		return errUsage
	}
	f, err := elfx.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}

	m, err := vm.New(f)
	if err != nil {
		return err
	}
	var tracers vm.TeeTracer
	var sampler *perf.Sampler
	if *record != "" {
		sampler = perf.NewSampler(perf.Mode{LBR: *lbr, Event: ev, Period: *period, PEBS: *pebs})
		tracers = append(tracers, sampler)
	}
	var sim *uarch.Sim
	if *stat {
		sim = uarch.New(uarch.DefaultConfig())
		tracers = append(tracers, sim)
	}
	switch len(tracers) {
	case 1:
		m.SetTracer(tracers[0]) // not through a tee: a recording pays no fan-out
	case 2:
		m.SetTracer(tracers)
	}
	if _, err := m.Run(*maxInstr); err != nil {
		return err
	}
	if sampler != nil {
		fd := perf.Convert(&sampler.Raw, f)
		if *shapes {
			// Disassemble the profiled binary and embed its CFG shapes so
			// a future gobolt run on a *different* build can stale-match
			// this profile instead of dropping it.
			if fs, err := fileShapes(f); err == nil {
				fd.Shapes = fs
			} else {
				fmt.Fprintf(os.Stderr, "vmrun: cannot derive CFG shapes (profile stays v1, stale matching unavailable): %v\n", err)
			}
		}
		if err := bolt.SaveProfile(fd, *record); err != nil {
			return err
		}
		fmt.Printf("vmrun: result=%d instructions=%d branches=%d (profile: %d branch records, %d samples, %d shapes)\n",
			m.Result(), m.C.Instructions, m.C.Branches, len(fd.Branches), len(fd.Samples), len(fd.Shapes))
	} else {
		fmt.Printf("vmrun: result=%d halted=%v\n", m.Result(), m.Halted())
		fmt.Printf("  retired: %d instructions, %d cond branches (%d taken), %d calls, %d returns, %d throws\n",
			m.C.Instructions, m.C.Branches, m.C.TakenBranch, m.C.Calls, m.C.Returns, m.C.Throws)
	}
	if sim != nil {
		fmt.Print(sim.Finish().Format())
	}
	return nil
}

// fileShapes analyzes the binary through a bolt session and returns its
// CFG shapes.
func fileShapes(f *elfx.File) (map[string]profile.FuncShape, error) {
	sess, err := bolt.OpenELF(f)
	if err != nil {
		return nil, err
	}
	if err := sess.Analyze(context.Background()); err != nil {
		return nil, err
	}
	return sess.Shapes()
}
