package cfi

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecodeFrames feeds arbitrary bytes to the frame-table parser (must
// never panic) and, whenever an input parses, checks that decode → encode
// → decode is a fixpoint: the rewriter re-encodes the frames it read, and
// the loader replays every decoded FDE, so each is also evaluated at the
// end of its range, which must not panic either.
func FuzzDecodeFrames(f *testing.F) {
	f.Add(EncodeFrames([]FDE{standardPrologue(), {Start: 0x400100, Len: 8, LSDA: 0x500000}}))
	f.Add(EncodeFrames(nil))
	f.Add([]byte{5, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		fdes, err := DecodeFrames(in)
		if err != nil {
			return // rejected inputs just must not panic
		}
		for i := range fdes {
			fdes[i].Evaluate(fdes[i].Len)
		}
		enc := EncodeFrames(fdes)
		got, err := DecodeFrames(enc)
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if len(got) != len(fdes) {
			t.Fatalf("%d FDEs after a round trip, want %d", len(got), len(fdes))
		}
		if !bytes.Equal(EncodeFrames(got), enc) {
			t.Fatal("encode is not a fixpoint after one round trip")
		}
	})
}

// FuzzLSDADecode feeds arbitrary bytes and offsets to the LSDA parser
// (must never panic) and, whenever a record parses, checks that decode →
// encode → decode keeps its call sites and re-encodes to the same bytes.
// Lookup, which the loader asks for every call, must not panic on what
// was decoded.
func FuzzLSDADecode(f *testing.F) {
	seed, off := EncodeLSDA([]byte{0xEE}, &LSDA{CallSites: []CallSite{
		{Start: 0x10, Len: 5, LandingPad: 0x400500, Action: 1},
		{Start: 0x20, Len: 5, LandingPad: 0, Action: 0},
	}})
	f.Add(seed, off)
	f.Add([]byte{255, 0, 0, 0}, uint32(0))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, in []byte, off uint32) {
		var l LSDA
		if err := l.Decode(in, off); err != nil {
			return // rejected inputs just must not panic
		}
		l.Lookup(off)
		enc, at := EncodeLSDA(nil, &l)
		var got LSDA
		if err := got.Decode(enc, at); err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if !slices.Equal(got.CallSites, l.CallSites) {
			t.Fatalf("call sites drift:\n got %+v\nwant %+v", got.CallSites, l.CallSites)
		}
		if again, _ := EncodeLSDA(nil, &got); !bytes.Equal(again, enc) {
			t.Fatal("encode is not a fixpoint after one round trip")
		}
	})
}
