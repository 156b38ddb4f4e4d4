//go:build linux && (amd64 || arm64)

package store

import (
	"bytes"
	"testing"
)

// iovMax is the kernel's IOV_MAX, the most buffers one preadv/pwritev
// takes (sysvec chunks larger spans).
const iovMax = 1024

// TestVectorSpanAllocBound pins the batch path's allocation on Dir: a
// one-span batch call costs exactly one allocation — the iovec array —
// no matter how the transfer is chunked or continued, since
// continuation reuses the array instead of rebuilding it. The []Span
// is built once outside the measured call, so the bound is about the
// store, not the caller's literal.
func TestVectorSpanAllocBound(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const h = 1
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, 512)
	}
	spans := []Span{{Off: 0, Bufs: bufs}}
	if n, err := d.WriteBatch(h, spans); err != nil || n != spanLen(bufs) {
		t.Fatalf("seed WriteBatch = %d, %v", n, err)
	}

	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.WriteBatch(h, spans); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("WriteBatch costs %.1f allocs/run, want <= 1 (the iovec array)", allocs)
	}
	got := make([][]byte, len(bufs))
	for i := range got {
		got[i] = make([]byte, 512)
	}
	rspans := []Span{{Off: 0, Bufs: got}}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := d.ReadBatch(h, rspans); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ReadBatch costs %.1f allocs/run, want <= 1 (the iovec array)", allocs)
	}
	for i := range got {
		if !bytes.Equal(got[i], bufs[i]) {
			t.Fatalf("buffer %d diverges after vectored round trip", i)
		}
	}
}

// TestVectorSmallSpanAllocsNothing pins the short end of the same
// path: a span of at most 8 buffers (every packed list span is one)
// takes its iovecs from the stack, so a batch call allocates nothing.
func TestVectorSmallSpanAllocsNothing(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const h = 1
	for _, nbufs := range []int{1, 8} {
		bufs := make([][]byte, nbufs)
		got := make([][]byte, nbufs)
		for i := range bufs {
			bufs[i] = bytes.Repeat([]byte{byte(nbufs + i)}, 512)
			got[i] = make([]byte, 512)
		}
		spans := []Span{{Off: 4096, Bufs: bufs}}
		rspans := []Span{{Off: 4096, Bufs: got}}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := d.WriteBatch(h, spans); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%d-buffer WriteBatch costs %.1f allocs/run, want 0", nbufs, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := d.ReadBatch(h, rspans); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%d-buffer ReadBatch costs %.1f allocs/run, want 0", nbufs, allocs)
		}
		for i := range got {
			if !bytes.Equal(got[i], bufs[i]) {
				t.Fatalf("%d buffers: buffer %d diverges after the round trip", nbufs, i)
			}
		}
	}
}

// TestVectorIOVMaxChunking pins the syscall counter across the
// IOV_MAX boundary: a span of more buffers than one preadv accepts
// costs exactly ceil(bufs/IOV_MAX) syscalls, in one submission.
func TestVectorIOVMaxChunking(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const h, nbufs = 1, 2*iovMax + 5
	bufs := make([][]byte, nbufs)
	for i := range bufs {
		bufs[i] = []byte{byte(i), byte(i >> 8)}
	}
	before := d.IOStats()
	n, err := d.WriteBatch(h, []Span{{Off: 0, Bufs: bufs}})
	if err != nil || n != 2*nbufs {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	if delta := d.IOStats().Sub(before); delta.SyscallsWrite != 3 || delta.Submissions != 1 {
		t.Fatalf("WriteBatch used %d syscalls in %d submissions for %d bufs, want 3 in 1",
			delta.SyscallsWrite, delta.Submissions, nbufs)
	}
	got := make([][]byte, nbufs)
	for i := range got {
		got[i] = make([]byte, 2)
	}
	before = d.IOStats()
	if _, err := d.ReadBatch(h, []Span{{Off: 0, Bufs: got}}); err != nil {
		t.Fatal(err)
	}
	if nsys := d.IOStats().Sub(before).SyscallsRead; nsys != 3 {
		t.Fatalf("ReadBatch used %d syscalls for %d bufs, want 3", nsys, nbufs)
	}
	for i := range got {
		if !bytes.Equal(got[i], bufs[i]) {
			t.Fatalf("buffer %d diverges across the IOV_MAX boundary", i)
		}
	}
}
