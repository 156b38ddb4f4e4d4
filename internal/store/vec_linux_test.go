//go:build linux && (amd64 || arm64)

package store

import (
	"bytes"
	"testing"
)

// iovMax is the kernel's IOV_MAX, the most buffers one preadv/pwritev
// takes (sysvec chunks larger spans).
const iovMax = 1024

// TestVectorSpanAllocBound pins the span path's allocation: one
// vectored span call costs exactly one allocation (the iovec array), no
// matter how the transfer is chunked or continued — continuation reuses
// the array instead of rebuilding it.
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
	span := spanLen(bufs)
	if n, err := d.WriteSpanv(h, 0, bufs); err != nil || n != span {
		t.Fatalf("seed WriteSpanv = %d, %v", n, err)
	}

	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.WriteSpanv(h, 0, bufs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("WriteSpanv costs %.1f allocs/run, want <= 1 (the iovec array)", allocs)
	}
	got := make([][]byte, len(bufs))
	for i := range got {
		got[i] = make([]byte, 512)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := d.ReadSpanv(h, 0, got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ReadSpanv costs %.1f allocs/run, want <= 1 (the iovec array)", allocs)
	}
	for i := range got {
		if !bytes.Equal(got[i], bufs[i]) {
			t.Fatalf("buffer %d diverges after vectored round trip", i)
		}
	}
}

// TestVectorIOVMaxChunking pins the syscall counter across the
// IOV_MAX boundary: a span of more buffers than one preadv accepts
// costs exactly ceil(bufs/IOV_MAX) syscalls.
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
	n, err := d.WriteSpanv(h, 0, bufs)
	if err != nil || n != 2*nbufs {
		t.Fatalf("WriteSpanv = %d, %v", n, err)
	}
	if nsys := d.IOStats().Sub(before).SyscallsWrite; nsys != 3 {
		t.Fatalf("WriteSpanv used %d syscalls for %d bufs, want 3", nsys, nbufs)
	}
	got := make([][]byte, nbufs)
	for i := range got {
		got[i] = make([]byte, 2)
	}
	before = d.IOStats()
	if _, err := d.ReadSpanv(h, 0, got); err != nil {
		t.Fatal(err)
	}
	if nsys := d.IOStats().Sub(before).SyscallsRead; nsys != 3 {
		t.Fatalf("ReadSpanv used %d syscalls for %d bufs, want 3", nsys, nbufs)
	}
	for i := range got {
		if !bytes.Equal(got[i], bufs[i]) {
			t.Fatalf("buffer %d diverges across the IOV_MAX boundary", i)
		}
	}
}
