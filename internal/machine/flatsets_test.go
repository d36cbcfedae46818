package machine

import (
	"testing"

	"repro/internal/mem"
)

// TestFirstLoadTableGrowthIsLogarithmic records ascending LineIDs 1..4096,
// the order a run's interner hands them out, and checks the dense table
// reallocates O(log n) times rather than once per new ID.
func TestFirstLoadTableGrowthIsLogarithmic(t *testing.T) {
	const maxID = 4096
	var tb firstLoadTable
	reallocs := 0
	for id := mem.LineID(1); id <= maxID; id++ {
		before := cap(tb.ops)
		tb.record(id, int(id))
		if cap(tb.ops) != before {
			reallocs++
		}
	}
	// Doubling headroom from one entry to 4097 needs ~log2(4097)+1 steps.
	if reallocs > 14 {
		t.Fatalf("ops table reallocated %d times over %d ascending IDs, want O(log n) (<= 14)", reallocs, maxID)
	}
	for id := mem.LineID(1); id <= maxID; id++ {
		if op, ok := tb.get(id); !ok || op != int(id) {
			t.Fatalf("get(%d) = %d, %v; want %d, true", id, op, ok, id)
		}
	}

	// The same walk's heap traffic: ops-table growth plus the touched
	// list's append growth, both logarithmic. One reallocation per new ID
	// would cost thousands.
	allocs := testing.AllocsPerRun(5, func() {
		var tb firstLoadTable
		for id := mem.LineID(1); id <= maxID; id++ {
			tb.record(id, 0)
		}
	})
	if allocs > 40 {
		t.Fatalf("recording %d ascending IDs allocated %.0f times, want O(log n) (<= 40)", maxID, allocs)
	}
}

// TestFirstLoadTableGrowWithinCapacityReadsAbsent checks the reslice path:
// after a reset, growing within the retained capacity must expose only
// absent entries — both the cleared IDs of the previous attempt and the
// never-written tail between the old length and the capacity.
func TestFirstLoadTableGrowWithinCapacityReadsAbsent(t *testing.T) {
	var tb firstLoadTable
	for id := mem.LineID(1); id <= 50; id++ {
		tb.record(id, int(id))
	}
	if len(tb.ops) >= cap(tb.ops) {
		t.Fatalf("setup: want spare capacity, have len %d cap %d", len(tb.ops), cap(tb.ops))
	}
	tb.reset()
	c := cap(tb.ops)
	top := mem.LineID(c - 1)
	tb.record(top, 7)
	if cap(tb.ops) != c {
		t.Fatalf("grow within capacity reallocated: cap %d -> %d", c, cap(tb.ops))
	}
	for id := mem.LineID(0); id < top; id++ {
		if op, ok := tb.get(id); ok {
			t.Fatalf("get(%d) = %d, true after reset; want absent", id, op)
		}
	}
	if op, ok := tb.get(top); !ok || op != 7 {
		t.Fatalf("get(%d) = %d, %v; want 7, true", top, op, ok)
	}
}
