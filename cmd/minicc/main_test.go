package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gobolt/internal/bench"
	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/ld"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

// TestProfileUseMatchesHarness: `minicc -flto -fprofile-use p.fdata`, with
// p recorded on `minicc -flto`'s output, builds the binary the harness's
// PGO+LTO subject is. Both convert the profile against the LTO build it
// was recorded on; converted against a build without LTO, multifeed1's
// profile compiles into another binary.
func TestProfileUseMatchesHarness(t *testing.T) {
	spec := workload.Multifeed1()
	spec.Iterations = 500
	lab := bench.NewLab(1)
	plain, err := lab.Subject(spec, bench.CfgLTO)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := plain.Profile(perf.DefaultMode())
	if err != nil {
		t.Fatal(err)
	}
	// The profile reaches minicc through a file, as from vmrun -record.
	var buf bytes.Buffer
	if err := fd.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if fd, err = profile.Parse(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	copts := cc.DefaultOptions()
	copts.LTO = true
	got, err := build(workload.Generate(spec), copts, ld.Options{EmitRelocs: true, ICF: true, NoPLT: true}, fd, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := lab.Subject(spec, bench.CfgPGOLTO)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(t, got.File), image(t, want.File)) {
		t.Fatal("minicc -flto -fprofile-use differs from the harness's PGO+LTO build")
	}
}

// image serializes f with its symbol table in address order: ld emits
// ICF-alias symbols in map order.
func image(t *testing.T, f *elfx.File) []byte {
	t.Helper()
	sort.Slice(f.Symbols, func(i, j int) bool {
		a, b := f.Symbols[i], f.Symbols[j]
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Name < b.Name
	})
	data, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReorderFunctionsNeedsProfile: -freorder-functions orders by a
// profile, so without -fprofile-use it is a usage error that writes no
// binary, not a plain build.
func TestReorderFunctionsNeedsProfile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "a.elf")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "tiny", "-freorder-functions", "hfsort", "-o", out}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if msg := stderr.String(); !strings.Contains(msg, "-freorder-functions needs -fprofile-use") {
		t.Errorf("stderr %q does not say -freorder-functions needs -fprofile-use", msg)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("wrote %s (stat: %v)", out, err)
	}
	if code := run([]string{"-workload", "tiny", "-o", out}, &stdout, &stderr); code != 0 {
		t.Errorf("plain build: exit status %d, stderr %q", code, stderr.String())
	}
}
