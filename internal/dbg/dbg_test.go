package dbg

import "testing"

func TestRoundTripAndLookup(t *testing.T) {
	tab := &Table{}
	tab.Add(0x401000, "a.mir", 10)
	tab.Add(0x401010, "a.mir", 12)
	tab.Add(0x402000, "b.mir", 3)
	tab.Sort()
	data := tab.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if f, l, ok := got.Lookup(0x401008); !ok || f != "a.mir" || l != 10 {
		t.Errorf("Lookup mid-range: %q %d %v", f, l, ok)
	}
	if f, l, ok := got.Lookup(0x402500); !ok || f != "b.mir" || l != 3 {
		t.Errorf("Lookup last entry: %q %d %v", f, l, ok)
	}
	if _, _, ok := got.Lookup(0x400000); ok {
		t.Error("address before first entry must miss")
	}
}

func TestSortDedups(t *testing.T) {
	tab := &Table{}
	tab.Add(0x10, "f", 1)
	tab.Add(0x20, "f", 1) // same file/line: dropped
	tab.Add(0x30, "f", 2)
	tab.Sort()
	if len(tab.Entries) != 2 {
		t.Fatalf("dedup failed: %+v", tab.Entries)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{{}, {1}, {1, 0, 0, 0, 5}, {0, 0, 0, 0, 9, 0, 0, 0}} {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(% x) accepted garbage", b)
		}
	}
}

// FileIndex returns a name's first index, also in a decoded table that
// repeats names, and sees names appended to Files directly.
func TestFileIndexFirstOccurrence(t *testing.T) {
	enc := (&Table{Files: []string{"a", "b", "a", "c", "b"}}).Encode()
	tab, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint32{"a": 0, "b": 1, "c": 3} {
		if got := tab.FileIndex(name); got != want {
			t.Errorf("FileIndex(%q) = %d, want %d", name, got, want)
		}
	}
	if got := tab.FileIndex("d"); got != 5 || len(tab.Files) != 6 {
		t.Errorf("FileIndex(new) = %d with %d files, want 5 with 6", got, len(tab.Files))
	}
	tab.Files = append(tab.Files, "e", "e")
	if got := tab.FileIndex("e"); got != 6 {
		t.Errorf("FileIndex after a direct append = %d, want 6", got)
	}
}
