package coherence

import (
	"testing"
	"unsafe"
)

// TestHotStructSizes bounds the size of the structs every message and
// every directory line pays for. Both are laid out widest field first with
// no padding; a field added out of place brings the padding back and fails
// here. The bounds assume 8-byte pointers and ints.
func TestHotStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are bounded for 64-bit hosts")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"Msg", unsafe.Sizeof(Msg{}), 168},
		{"dirEntry", unsafe.Sizeof(dirEntry{}), 168},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}
