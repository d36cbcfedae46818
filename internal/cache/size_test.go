package cache

import (
	"testing"
	"unsafe"
)

// TestEntrySize bounds the size of a cache entry, which every L1 and L2
// way holds: laid out widest field first it has no padding, and a field
// added out of place brings the padding back and fails here. The bound
// assumes 8-byte pointers.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are bounded for 64-bit hosts")
	}
	if got, max := unsafe.Sizeof(Entry{}), uintptr(88); got > max {
		t.Errorf("Entry is %d bytes, want at most %d", got, max)
	}
}
