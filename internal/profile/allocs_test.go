package profile

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation allocates on its own account.
var raceEnabled bool

// lbrProfile serializes n branch records over 50 plain function names.
func lbrProfile(n int) []byte {
	var buf bytes.Buffer
	buf.WriteString("boltprofile v1 lbr event=cycles\n")
	for i := range n {
		fmt.Fprintf(&buf, "1 func_%d %x 1 func_%d %x %d %d\n", i%50, i%4096, (i+7)%50, i%64, i%3, i+1)
	}
	return buf.Bytes()
}

// TestParseDataAllocsDoNotScale: a parse allocates per profile and per
// chunk, never per record or per name, so 2 000 and 20 000 records at
// jobs 2 make the same number of allocations. Only an escaped name gets
// a string of its own, and these have none.
func TestParseDataAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var allocs [2]float64
	for i, n := range []int{2000, 20000} {
		data := lbrProfile(n)
		allocs[i] = testing.AllocsPerRun(10, func() {
			fd, err := ParseData(context.Background(), data, 2)
			if err != nil || len(fd.Branches) != n {
				t.Fatalf("%d records: parsed %d, err %v", n, len(fd.Branches), err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("ParseData made %v allocations for 2 000 records and %v for 20 000", allocs[0], allocs[1])
	} else {
		t.Logf("ParseData made %v allocations at both sizes", allocs[0])
	}
}
