package scratch

import "testing"

func TestZeroedReusesAndClears(t *testing.T) {
	buf := []int{7, 8, 9, 10}
	got := Zeroed(buf, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("got[%d] = %d, want 0", i, v)
		}
	}
	if &got[0] != &buf[0] {
		t.Fatal("Zeroed reallocated a buffer whose capacity was enough")
	}
	if buf[3] != 10 {
		t.Fatalf("buf[3] = %d: Zeroed touched past n", buf[3])
	}
}

func TestZeroedAllocatesNothingWithinCapacity(t *testing.T) {
	buf := make([]uint64, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = Zeroed(buf, 48)
		buf[0] = 1
	})
	if allocs != 0 {
		t.Fatalf("Zeroed within capacity made %v allocations, want 0", allocs)
	}
}

func TestZeroedGrows(t *testing.T) {
	buf := []int32{1, 2}
	got := Zeroed(buf, 5)
	if len(got) != 5 || cap(got) < 5 {
		t.Fatalf("len, cap = %d, %d, want 5, ≥5", len(got), cap(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("got[%d] = %d, want 0", i, v)
		}
	}
	if buf[0] != 1 {
		t.Fatal("growing wrote to the old array")
	}
	if got := Zeroed([]byte(nil), 0); len(got) != 0 {
		t.Fatalf("Zeroed(nil, 0) has length %d", len(got))
	}
}
