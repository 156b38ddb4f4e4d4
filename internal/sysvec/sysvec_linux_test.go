//go:build linux && (amd64 || arm64)

package sysvec

import (
	"testing"
	"unsafe"
)

// iovecsTotal sums the bytes the iovec suffix starting at start still
// describes.
func iovecsTotal(iovs []iovec, start int) int {
	n := 0
	for _, v := range iovs[start:] {
		n += int(v.len)
	}
	return n
}

// TestConsumeIovecs pins the short-transfer continuation cursor: after
// n bytes land, the remaining iovec chain must describe exactly the
// untransferred suffix — including a partially-consumed iovec whose
// base advances and len shrinks in place.
func TestConsumeIovecs(t *testing.T) {
	mk := func(sizes ...int) ([]iovec, [][]byte) {
		bufs := make([][]byte, len(sizes))
		iovs := make([]iovec, len(sizes))
		for i, sz := range sizes {
			bufs[i] = make([]byte, sz)
			iovs[i] = iovec{base: &bufs[i][0], len: uint64(sz)}
		}
		return iovs, bufs
	}

	// Mid-iovec stop: 10 bytes into {8, 8, 8} consumes the first iovec
	// and trims two bytes off the second.
	iovs, bufs := mk(8, 8, 8)
	start := consumeIovecs(iovs, 0, 10)
	if start != 1 {
		t.Fatalf("start = %d, want 1", start)
	}
	if got := iovecsTotal(iovs, start); got != 14 {
		t.Fatalf("remaining bytes = %d, want 14", got)
	}
	if want := (*byte)(unsafe.Add(unsafe.Pointer(&bufs[1][0]), 2)); iovs[1].base != want {
		t.Fatal("partial iovec base did not advance to the untransferred byte")
	}

	// Exact-boundary stop: the next iovec stays whole.
	iovs, bufs = mk(8, 8, 8)
	if start = consumeIovecs(iovs, 0, 16); start != 2 {
		t.Fatalf("boundary start = %d, want 2", start)
	}
	if iovs[2].base != &bufs[2][0] || iovs[2].len != 8 {
		t.Fatal("boundary stop must leave the next iovec untouched")
	}

	// Continuation of a continuation: consume from a nonzero start.
	iovs, _ = mk(4, 4, 4, 4)
	start = consumeIovecs(iovs, 1, 6)
	if start != 2 {
		t.Fatalf("nested start = %d, want 2", start)
	}
	if got := iovecsTotal(iovs, start); got != 6 {
		t.Fatalf("nested remaining = %d, want 6", got)
	}

	// Everything consumed: start lands one past the end.
	iovs, _ = mk(4, 4)
	if start = consumeIovecs(iovs, 0, 8); start != 2 {
		t.Fatalf("full-consume start = %d, want 2", start)
	}
}
