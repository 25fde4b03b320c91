package core

import (
	"os"
	"strings"
	"testing"
)

// TestReadmeStatKeysInSync keeps the README's documented stat-key table
// generated, not hand-maintained: the block between the stat-keys
// markers must be exactly StatKeyDoc(). Regenerate by pasting the
// failure's "want" output (or any `fmt.Print(core.StatKeyDoc())`)
// between the markers.
func TestReadmeStatKeysInSync(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README: %v", err)
	}
	const begin = "<!-- stat-keys:begin -->"
	const end = "<!-- stat-keys:end -->"
	readme := string(data)
	i := strings.Index(readme, begin)
	j := strings.Index(readme, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README is missing the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(readme[i+len(begin) : j])
	want := strings.TrimSpace(StatKeyDoc())
	if got != want {
		t.Errorf("README stat-key table is stale; regenerate from core.StatKeyDoc().\nwant:\n%s", want)
	}
}

// TestStatDefsComplete catches the one gap the Stat type leaves open: a
// constant added without a row in statDefs (an empty Def), or two rows
// under one name. The names themselves are pinned by the README table.
func TestStatDefsComplete(t *testing.T) {
	seen := map[string]Stat{}
	for s := Stat(0); s < numStats; s++ {
		d := statDefs[s]
		if d.Name == "" || d.Help == "" {
			t.Errorf("Stat %d has no row in statDefs: %+v", s, d)
			continue
		}
		if prev, dup := seen[d.Name]; dup {
			t.Errorf("Stat %d and %d share the name %q", prev, s, d.Name)
		}
		seen[d.Name] = s
	}
}
