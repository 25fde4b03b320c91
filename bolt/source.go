package bolt

import (
	"context"
	"fmt"
	"os"

	"gobolt/internal/bat"
	"gobolt/internal/elfx"
	"gobolt/internal/par"
	"gobolt/internal/profile"
)

// ProfileSource abstracts where a profile comes from, so the pipeline
// never cares: a file, an in-memory Fdata, merged shards, or samples
// collected on an already-optimized binary that need BAT translation.
// Sources compose — SampledOn wraps any source, MergeShards merges any
// mix of sources.
type ProfileSource interface {
	// Describe returns a short human-readable origin for reports and
	// error messages ("perf.fdata", "merge of 8 shards", ...).
	Describe() string
	// Load produces the profile. It honors cancellation of cx and may be
	// called at most once per Session.
	Load(cx context.Context) (*profile.Fdata, error)
}

// fileSource reads an fdata file from disk.
type fileSource struct{ path string }

// FdataFile reads an fdata profile from a file path.
func FdataFile(path string) ProfileSource { return fileSource{path} }

func (s fileSource) Describe() string { return s.path }

func (s fileSource) Load(cx context.Context) (*profile.Fdata, error) {
	if err := cx.Err(); err != nil {
		return nil, err
	}
	r, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return profile.Parse(cx, r)
}

// memSource hands over an in-memory profile.
type memSource struct{ fd *profile.Fdata }

// Fdata wraps an in-memory profile — the natural source for toolchain
// code that just recorded one (perf.RecordFile) or synthesized one.
func Fdata(fd *profile.Fdata) ProfileSource { return memSource{fd} }

func (s memSource) Describe() string { return "<memory>" }

func (s memSource) Load(cx context.Context) (*profile.Fdata, error) {
	if err := cx.Err(); err != nil {
		return nil, err
	}
	if s.fd == nil {
		return nil, fmt.Errorf("nil profile")
	}
	return s.fd, nil
}

// MergeSource aggregates N profile shards from parallel runs into one
// deterministic profile (BOLT's merge-fdata). Shards load concurrently
// over the shared worker pool.
type MergeSource struct {
	// Jobs bounds the shard-parsing pool (0 = GOMAXPROCS).
	Jobs    int
	sources []ProfileSource
}

// MergeShards merges any mix of profile sources. LoadProfile uses it
// implicitly when given more than one source.
func MergeShards(sources ...ProfileSource) *MergeSource {
	return &MergeSource{sources: sources}
}

// FdataFiles builds one file source per path — the common MergeShards
// input for `perf2bolt -merge shard*.fdata`.
func FdataFiles(paths ...string) []ProfileSource {
	out := make([]ProfileSource, len(paths))
	for i, p := range paths {
		out[i] = FdataFile(p)
	}
	return out
}

func (s *MergeSource) Describe() string {
	if len(s.sources) == 1 {
		return s.sources[0].Describe()
	}
	return fmt.Sprintf("merge of %d shards", len(s.sources))
}

func (s *MergeSource) Load(cx context.Context) (*profile.Fdata, error) {
	shards := make([]*profile.Fdata, len(s.sources))
	if _, err := par.For(cx, len(s.sources), par.Jobs(s.Jobs, len(s.sources)), func(_, i int) error {
		fd, err := s.sources[i].Load(cx)
		if err != nil {
			return fmt.Errorf("%s: %w", s.sources[i].Describe(), err)
		}
		shards[i] = fd
		return nil
	}); err != nil {
		return nil, err
	}
	return profile.Merge(shards)
}

// SampledResult reports what SampledOn did to the profile, for tools
// that surface translation statistics (perf2bolt).
type SampledResult struct {
	// Translated is true when the binary carried a .bolt.bat section and
	// the profile was rewritten into input-binary coordinates.
	Translated bool
	// BATFuncs/BATRanges describe the translation table when Translated.
	BATFuncs, BATRanges int
	// Stats are the per-record translation outcomes when Translated.
	Stats bat.TranslateStats
	// Branches/Samples count the records kept; Dropped counts records
	// discarded by plain-mode symbol validation (0 when Translated —
	// translation accounts drops in Stats.DroppedCount instead).
	Branches, Samples, Dropped int
}

// SampledSource re-symbolizes a profile against the binary it was
// sampled on. If that binary carries a .bolt.bat section (it is a gobolt
// output), the profile is translated back to input-binary coordinates —
// the §7.3 continuous-profiling step, auto-detected. Otherwise every
// record is validated against the binary's symbol table and records that
// no longer resolve are dropped (classic perf2bolt).
type SampledSource struct {
	// Translate controls the .bolt.bat auto-detection (default true);
	// clear it to force plain validation even on an optimized binary,
	// e.g. to bypass a corrupt table.
	Translate bool
	// Result is populated by Load.
	Result SampledResult

	src  ProfileSource
	path string     // binary path ("" when file was handed over directly)
	file *elfx.File // sampled binary, lazily read from path
}

// SampledOn declares that src's profile was sampled while running the
// binary at path. Load reads the binary, auto-detects .bolt.bat, and
// translates or validates accordingly.
func SampledOn(src ProfileSource, path string) *SampledSource {
	return &SampledSource{Translate: true, src: src, path: path}
}

// SampledOnELF is SampledOn for an already-loaded binary image.
func SampledOnELF(src ProfileSource, f *elfx.File) *SampledSource {
	return &SampledSource{Translate: true, src: src, file: f}
}

func (s *SampledSource) Describe() string {
	on := s.path
	if on == "" {
		on = "<memory binary>"
	}
	return fmt.Sprintf("%s sampled on %s", s.src.Describe(), on)
}

func (s *SampledSource) Load(cx context.Context) (*profile.Fdata, error) {
	fd, err := s.src.Load(cx)
	if err != nil {
		return nil, err
	}
	if s.file == nil {
		f, err := elfx.ReadFile(s.path)
		if err != nil {
			return nil, err
		}
		s.file = f
	}
	if err := cx.Err(); err != nil {
		return nil, err
	}
	if s.Translate {
		table, err := bat.FromFile(s.file)
		if err != nil {
			return nil, err
		}
		if table != nil {
			kept, st := bat.TranslateProfile(fd, s.file, table)
			s.Result = SampledResult{
				Translated: true,
				BATFuncs:   len(table.Funcs),
				BATRanges:  len(table.Ranges),
				Stats:      st,
				Branches:   len(kept.Branches),
				Samples:    len(kept.Samples),
			}
			return kept, nil
		}
	}
	kept, dropped := validateProfile(fd, s.file)
	s.Result = SampledResult{
		Branches: len(kept.Branches),
		Samples:  len(kept.Samples),
		Dropped:  dropped,
	}
	return kept, nil
}

// validateProfile drops records whose locations no longer resolve
// against the binary's symbol table: a location resolves when the first
// symbol of its name is larger than its offset.
func validateProfile(fd *profile.Fdata, f *elfx.File) (*profile.Fdata, int) {
	size := make(map[string]uint64, len(f.Symbols))
	for _, sym := range f.Symbols {
		if _, seen := size[sym.Name]; !seen {
			size[sym.Name] = sym.Size
		}
	}
	resolves := func(l profile.Loc) bool {
		sz, ok := size[l.Sym]
		return ok && l.Off < sz
	}
	kept := &profile.Fdata{LBR: fd.LBR, Event: fd.Event, Shapes: fd.Shapes}
	dropped := 0
	for _, b := range fd.Branches {
		if resolves(b.From) && resolves(b.To) {
			kept.Branches = append(kept.Branches, b)
		} else {
			dropped++
		}
	}
	for _, sm := range fd.Samples {
		if resolves(sm.At) {
			kept.Samples = append(kept.Samples, sm)
		} else {
			dropped++
		}
	}
	return kept, dropped
}

// SaveProfile writes a profile to path in fdata format — the tail end of
// every profile-tooling flow (perf2bolt, vmrun -record).
func SaveProfile(fd *profile.Fdata, path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fd.Write(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
