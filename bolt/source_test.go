package bolt

import (
	"reflect"
	"testing"

	"gobolt/internal/elfx"
	"gobolt/internal/profile"
)

// TestValidateProfileRule pins validateProfile to its rule, written here
// as a scan of the symbol table: a location resolves when the first
// symbol of its name, of any type, is larger than its offset. The profile
// has an unknown symbol, offsets at and past a symbol's size, a
// zero-sized symbol and a name whose second symbol would decide the other
// way.
func TestValidateProfileRule(t *testing.T) {
	f := &elfx.File{Symbols: []elfx.Symbol{
		{Name: "f", Size: 16, Type: elfx.STTFunc},
		{Name: "g", Size: 8, Type: elfx.STTObject},
		{Name: "f", Size: 4, Type: elfx.STTFunc},
		{Name: "h", Size: 0},
		{Name: "k", Size: 2, Type: elfx.STTFunc},
		{Name: "k", Size: 32, Type: elfx.STTFunc},
	}}
	loc := func(sym string, off uint64) profile.Loc { return profile.Loc{Sym: sym, Off: off} }
	fd := &profile.Fdata{LBR: true, Event: "cycles"}
	for _, from := range []profile.Loc{loc("f", 0), loc("f", 10), loc("k", 20), loc("nosuch", 0)} {
		for _, to := range []profile.Loc{loc("g", 7), loc("g", 8), loc("h", 0), loc("k", 1), loc("f", 15), loc("f", 16)} {
			fd.Branches = append(fd.Branches, profile.Branch{From: from, To: to, Count: 3, Mispreds: 1})
		}
	}
	for _, at := range []profile.Loc{loc("f", 4), loc("g", 9), loc("h", 0), loc("nosuch", 1), loc("k", 1)} {
		fd.Samples = append(fd.Samples, profile.Sample{At: at, Count: 5})
	}

	resolves := func(l profile.Loc) bool {
		for _, s := range f.Symbols {
			if s.Name == l.Sym {
				return l.Off < s.Size
			}
		}
		return false
	}
	want := &profile.Fdata{LBR: fd.LBR, Event: fd.Event}
	wantDropped := 0
	for _, b := range fd.Branches {
		if resolves(b.From) && resolves(b.To) {
			want.Branches = append(want.Branches, b)
		} else {
			wantDropped++
		}
	}
	for _, s := range fd.Samples {
		if resolves(s.At) {
			want.Samples = append(want.Samples, s)
		} else {
			wantDropped++
		}
	}

	kept, dropped := validateProfile(fd, f)
	if dropped != wantDropped || !reflect.DeepEqual(kept, want) {
		t.Fatalf("validateProfile kept %d branches, %d samples, dropped %d; want %d, %d, %d",
			len(kept.Branches), len(kept.Samples), dropped, len(want.Branches), len(want.Samples), wantDropped)
	}
	if len(want.Branches) == 0 || len(want.Samples) == 0 || wantDropped == 0 {
		t.Fatal("the profile must both keep and drop records")
	}
}
