package bincheck_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/bench"
	"gobolt/internal/bincheck"
	"gobolt/internal/elfx"
	"gobolt/internal/perf"
	"gobolt/internal/workload"
)

// mutationBase builds, profiles and BOLTs the corruption matrix's base
// workload (the spec TestVerifierCatchesCorruption uses: exception paths
// and cold splits everywhere) and returns the serialized output image.
var mutationBase = sync.OnceValues(func() ([]byte, error) {
	spec := workload.Tiny()
	spec.Name = "mutation-base"
	spec.ThrowFrac = 0.9
	spec.ColdProb = 0.1
	return boltImage(spec)
})

// boltImage builds spec, profiles it under the VM, optimizes it with the
// default options and returns the serialized output image.
func boltImage(spec workload.Spec) ([]byte, error) {
	s, err := bench.NewLab(1).Subject(spec, bench.CfgBaseline)
	if err != nil {
		return nil, err
	}
	fd, err := s.Profile(perf.DefaultMode())
	if err != nil {
		return nil, err
	}
	sess, err := bolt.OpenELF(s.File)
	if err != nil {
		return nil, err
	}
	cx := context.Background()
	if err := sess.LoadProfile(cx, bolt.Fdata(fd)); err != nil {
		return nil, err
	}
	if _, err := sess.Optimize(cx); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = sess.WriteTo(&buf)
	return buf.Bytes(), err
}

// corruptCase is one image of the findings matrix: the clean base, the
// base with one mutation, or the base with every composable mutation
// stacked (a mutation that finds no site on the already-corrupted image
// is left out and not listed in Applied).
type corruptCase struct {
	Name    string   `json:"case"`
	Applied []string `json:"applied,omitempty"`
	image   []byte
}

func corruptCases(t testing.TB) []corruptCase {
	t.Helper()
	base, err := mutationBase()
	if err != nil {
		t.Fatalf("mutation base: %v", err)
	}
	corrupt := func(name string, muts ...bincheck.Mutation) corruptCase {
		f, err := elfx.Read(base)
		if err != nil {
			t.Fatal(err)
		}
		c := corruptCase{Name: name}
		for _, m := range muts {
			if err := m.Apply(f); err != nil {
				if len(muts) == 1 {
					t.Fatalf("mutation %s: %v", m.Name, err)
				}
				continue
			}
			c.Applied = append(c.Applied, m.Name)
		}
		if c.image, err = f.Bytes(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []corruptCase{{Name: "clean", image: base}}
	for _, m := range bincheck.Mutations() {
		cases = append(cases, corrupt(m.Name, m))
	}
	return append(cases, corrupt("stacked", bincheck.Mutations()...))
}

// goldenEntry is one record of testdata/findings_golden.json.
type goldenEntry struct {
	corruptCase
	Result *bincheck.Result `json:"result"`
}

const goldenPath = "testdata/findings_golden.json"

// TestFindingsMatchParent holds the checker to the findings — rule,
// severity, function, address and message — that the serial map-based
// checker it replaced produced over the corruption matrix. The golden
// file was recorded with that checker (commit 5a9e794) through this
// file's corruptCases, and is not regenerated from the checker under
// test. One exception, PR 24: line-aware placement moved the fragment
// after f0_0 from 0x407350 to 0x40734e, so the ten messages that quote
// that address (or the byte found there) were re-recorded with the
// checker as it stood, untouched by that PR; rules, functions and counts
// are the serial checker's.
func TestFindingsMatchParent(t *testing.T) {
	var got []goldenEntry
	for _, c := range corruptCases(t) {
		res, err := bincheck.Check(c.image)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		got = append(got, goldenEntry{c, res})
	}
	doc, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(append(doc, '\n'), want) {
		return
	}
	var parent []goldenEntry
	if err := json.Unmarshal(want, &parent); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(parent) != len(got) {
		t.Fatalf("%d cases, golden has %d", len(got), len(parent))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		p, _ := json.Marshal(parent[i])
		if !bytes.Equal(g, p) {
			t.Errorf("case %s differs from the parent checker:\n got %s\nwant %s", got[i].Name, g, p)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the regenerated document in formatting only", goldenPath)
	}
}

// resultJSON is the byte-level identity two runs are compared on.
func resultJSON(data []byte, jobs int) ([]byte, error) {
	res, err := bincheck.CheckJobs(data, jobs)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// TestCheckDeterministicAcrossJobs runs under -short too: CI's -race
// pass at GOMAXPROCS=2 is where a finding list shared by two workers, or
// a rule reading a fragment another worker is still decoding, would show.
func TestCheckDeterministicAcrossJobs(t *testing.T) {
	cases := corruptCases(t)
	for _, c := range []corruptCase{cases[0], cases[len(cases)-1]} {
		serial, err := resultJSON(c.image, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, jobs := range []int{2, 8} {
			if got, _ := resultJSON(c.image, jobs); !bytes.Equal(got, serial) {
				t.Errorf("%s: jobs=%d result differs from jobs=1:\n%s\nvs\n%s", c.Name, jobs, got, serial)
			}
		}
	}
}

// TestCheckLeavesInputUnchanged: Check reads the image in place, so it
// must write none of it, at one worker or at two, clean or corrupted.
func TestCheckLeavesInputUnchanged(t *testing.T) {
	cases := corruptCases(t)
	for _, c := range []corruptCase{cases[0], cases[len(cases)-1]} {
		want := bytes.Clone(c.image)
		for _, jobs := range []int{1, 2} {
			if _, err := bincheck.CheckJobs(c.image, jobs); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if !bytes.Equal(c.image, want) {
				t.Fatalf("%s: jobs=%d: Check wrote to its input", c.Name, jobs)
			}
		}
	}
}

// BenchmarkCheck measures one check of a BOLTed proxygen output at
// GOMAXPROCS workers (what bincheck and gobolt -verify run).
func BenchmarkCheck(b *testing.B) {
	image, err := boltImage(workload.Proxygen())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(image)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := bincheck.Check(image); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzCheck: any bytes either fail to open or verify to the same Result
// at one worker and at two, without a panic (on a pool worker it would
// kill the process, not surface as a finding) and without a hang.
func FuzzCheck(f *testing.F) {
	for _, c := range corruptCases(f) {
		if c.Name != "stacked" {
			f.Add(c.image)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		serial, err := resultJSON(data, 1)
		if err != nil {
			return
		}
		if got, _ := resultJSON(data, 2); !bytes.Equal(got, serial) {
			t.Errorf("jobs=2 result differs from jobs=1:\n%s\nvs\n%s", got, serial)
		}
	})
}
