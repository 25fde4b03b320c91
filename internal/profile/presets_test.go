package profile_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ld"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

// recorded caches presetProfile's serialized profiles for the process,
// so runs at several -cpu values record each one once.
var recorded struct {
	sync.Mutex
	fdata map[recordKey][]byte
}

type recordKey struct {
	preset string
	mode   perf.Mode
}

// presetProfile builds a workload preset as minicc does and returns the
// profile mode records of it, serialized by Write.
func presetProfile(tb testing.TB, spec workload.Spec, mode perf.Mode) []byte {
	tb.Helper()
	recorded.Lock()
	defer recorded.Unlock()
	key := recordKey{spec.Name, mode}
	if data, ok := recorded.fdata[key]; ok {
		return data
	}
	objs, err := cc.Compile(workload.Generate(spec), cc.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		tb.Fatal(err)
	}
	fd, _, err := perf.RecordFile(res.File, mode, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fd.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	if recorded.fdata == nil {
		recorded.fdata = map[recordKey][]byte{}
	}
	recorded.fdata[key] = buf.Bytes()
	return buf.Bytes()
}

// TestParseDataMatchesReferenceOnPresets holds ParseData to the oracle
// on every preset's LBR profile and its non-LBR profile at period 512,
// and checks that Write reproduces each profile byte for byte. -short
// keeps the two smallest presets.
func TestParseDataMatchesReferenceOnPresets(t *testing.T) {
	for _, name := range []string{"tiny", "proxygen", "multifeed2", "multifeed1", "tao", "gcc", "clang", "hhvm"} {
		if testing.Short() && name != "tiny" && name != "proxygen" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			spec, ok := workload.ByName(name)
			if !ok {
				spec = workload.Tiny()
			}
			for _, mode := range []perf.Mode{perf.DefaultMode(), {Event: perf.EventCycles, Period: 512}} {
				data := presetProfile(t, spec, mode)
				profile.CheckParseDataMatchesReference(t, name, data)
				fd, err := profile.ParseData(context.Background(), data, 2)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := fd.Write(&out); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), data) {
					t.Errorf("lbr=%v: Write of the parsed profile differs from the profile", mode.LBR)
				}
			}
		})
	}
}

// BenchmarkParseData measures parsing the clang preset's default LBR
// profile at the worker count -cpu sets.
func BenchmarkParseData(b *testing.B) {
	data := presetProfile(b, workload.Clang(), perf.DefaultMode())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := profile.ParseData(context.Background(), data, 0); err != nil {
			b.Fatal(err)
		}
	}
}
