package intern

import (
	"fmt"
	"testing"
	"unsafe"
)

func TestLabel(t *testing.T) {
	for _, i := range []int{0, 1, 37, nLabels - 1, nLabels, nLabels + 5} {
		want := fmt.Sprintf(".LBB%d", i)
		if got := Label(i); got != want {
			t.Fatalf("Label(%d) = %q, want %q", i, got, want)
		}
	}
	// Within the precomputed range the same instance comes back every
	// time — block labels are process-wide constants.
	if unsafe.StringData(Label(3)) != unsafe.StringData(Label(3)) {
		t.Fatal("Label(3) not identity-stable")
	}
}
