package store

// Tests for the packed-vector storage path (DESIGN.md §10, §11): the
// syscall-count contract of ApplyPacked over Dir, the sparse semantics
// of one-span batches, and the cache's batched fill/flush paths.

import (
	"bytes"
	"testing"

	"pvfs/internal/ioseg"
)

// TestDirVectorSyscallCount pins the regression the vectored datapath
// exists to prevent: a 64-fragment adjacent window against Dir must
// cost a small constant number of data syscalls, not one per
// fragment.
func TestDirVectorSyscallCount(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const handle, frag, n = uint64(1), int64(4096), 64
	segs := make(ioseg.List, n)
	for i := range segs {
		segs[i] = ioseg.Segment{Offset: int64(i) * frag, Length: frag}
	}
	p := make([]byte, n*frag)
	for i := range p {
		p[i] = byte(i * 131)
	}

	before := d.IOStats()
	if _, err := ApplyPacked(d, handle, segs, p, true); err != nil {
		t.Fatal(err)
	}
	delta := d.IOStats().Sub(before)
	if delta.SyscallsWrite != 1 || delta.Submissions != 1 {
		t.Fatalf("64 adjacent fragments cost %d write syscalls in %d submissions, want 1 in 1",
			delta.SyscallsWrite, delta.Submissions)
	}
	if delta.BytesWritten != n*frag {
		t.Fatalf("wrote %d bytes, want %d", delta.BytesWritten, n*frag)
	}

	got := make([]byte, n*frag)
	before = d.IOStats()
	if _, err := ApplyPacked(d, handle, segs, got, false); err != nil {
		t.Fatal(err)
	}
	delta = d.IOStats().Sub(before)
	if delta.SyscallsRead != 1 || delta.Submissions != 1 {
		t.Fatalf("64 adjacent fragments cost %d read syscalls in %d submissions, want 1 in 1",
			delta.SyscallsRead, delta.Submissions)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("vector read diverges from vector write")
	}

	// Gapped fragments cannot coalesce: one syscall per fragment is
	// the honest count, still in one submission.
	gapped := make(ioseg.List, n)
	for i := range gapped {
		gapped[i] = ioseg.Segment{Offset: int64(i) * 2 * frag, Length: frag}
	}
	before = d.IOStats()
	if _, err := ApplyPacked(d, handle, gapped, p, true); err != nil {
		t.Fatal(err)
	}
	if delta := d.IOStats().Sub(before); delta.SyscallsWrite != n || delta.Submissions != 1 {
		t.Fatalf("64 gapped fragments cost %d write syscalls in %d submissions, want %d in 1",
			delta.SyscallsWrite, delta.Submissions, n)
	}

	// An unsorted list is applied one scalar call per segment, in list
	// order, and no batch.
	reversed := make(ioseg.List, n)
	for i := range reversed {
		reversed[i] = gapped[n-1-i]
	}
	before = d.IOStats()
	if _, err := ApplyPacked(d, handle, reversed, p, true); err != nil {
		t.Fatal(err)
	}
	if delta := d.IOStats().Sub(before); delta.SyscallsWrite != n || delta.Submissions != 0 {
		t.Fatalf("64 unsorted fragments cost %d write syscalls in %d submissions, want %d in 0",
			delta.SyscallsWrite, delta.Submissions, n)
	}
}

// TestSpanIOSparseSemantics drives one-span ReadBatch/WriteBatch calls
// on Mem and Dir over the same image — including a span crossing EOF,
// which must zero-fill — and demands byte-identical results. The
// buffer count exceeds the preadv iovec limit so the chunking loop is
// exercised.
func TestSpanIOSparseSemantics(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := NewMem()
	defer m.Close()
	const handle = uint64(9)

	// 1500 buffers of 37 bytes: > IOV_MAX, misaligned on purpose.
	mkBufs := func() [][]byte {
		bufs := make([][]byte, 1500)
		for i := range bufs {
			bufs[i] = make([]byte, 37)
		}
		return bufs
	}
	src := mkBufs()
	for i, b := range src {
		for j := range b {
			b[j] = byte(i*37 + j + 1)
		}
	}
	for _, s := range []Store{d, m} {
		if _, err := s.WriteBatch(handle, []Span{{Off: 11, Bufs: src}}); err != nil {
			t.Fatal(err)
		}
	}

	// Read a span that starts inside the data and runs past EOF: the
	// tail must come back zero on both backends.
	total := int64(len(src)) * 37
	readAt := total/2 + 11
	for name, s := range map[string]Store{"dir": d, "mem": m} {
		bufs := mkBufs()
		if _, err := s.ReadBatch(handle, []Span{{Off: readAt, Bufs: bufs}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flat := bytes.Join(bufs, nil)
		// Reference: the same span via the scalar ReadAt path.
		want := make([]byte, len(flat))
		if _, err := s.ReadAt(handle, want, readAt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(flat, want) {
			t.Fatalf("%s: span read diverges from scalar read", name)
		}
		if tail := flat[len(flat)-100:]; !bytes.Equal(tail, make([]byte, 100)) {
			t.Fatalf("%s: bytes past EOF read nonzero", name)
		}
	}

	// The two backends must hold identical images.
	di, mi := make([]byte, total+11), make([]byte, total+11)
	if _, err := d.ReadAt(handle, di, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(handle, mi, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(di, mi) {
		t.Fatal("dir and mem images diverge after span writes")
	}
}

// TestCacheFlushCoalesced pins coalesced write-back: a run of
// adjacent dirty blocks flushes as ONE backend submission, and a
// Sync-visible partial tail block is clipped to the file size.
func TestCacheFlushCoalesced(t *testing.T) {
	inner := NewMem()
	c := Cached(inner, CacheOptions{
		BlockSize:     4096,
		FlushInterval: -1, // only Sync flushes: deterministic runs
	})
	defer c.Close()
	const handle = uint64(3)
	// 8 adjacent blocks plus a 100-byte tail into a ninth.
	data := make([]byte, 8*4096+100)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	if _, err := c.WriteAt(handle, data, 0); err != nil {
		t.Fatal(err)
	}
	before := inner.IOStats()
	if err := c.Sync(handle); err != nil {
		t.Fatal(err)
	}
	delta := inner.IOStats().Sub(before)
	if delta.SyscallsWrite != 1 {
		t.Fatalf("9 adjacent dirty blocks flushed in %d submissions, want 1", delta.SyscallsWrite)
	}
	if delta.BytesWritten != int64(len(data)) {
		t.Fatalf("flushed %d bytes, want %d (tail must clip to file size)", delta.BytesWritten, len(data))
	}
	if st := c.CacheStats(); st.Flushes != 9 {
		t.Fatalf("flushed block count %d, want 9", st.Flushes)
	}
	got := make([]byte, len(data))
	if _, err := inner.ReadAt(handle, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("backend image diverges after coalesced flush")
	}

	// Two dirty runs separated by a clean gap now flush as ONE
	// batched submission (§11): Mem implements BatchIO, so
	// flushFileRuns hands both gapped sub-runs to one WriteBatch.
	for _, off := range []int64{20 * 4096, 21 * 4096, 40 * 4096, 41 * 4096} {
		if _, err := c.WriteAt(handle, data[:4096], off); err != nil {
			t.Fatal(err)
		}
	}
	before = inner.IOStats()
	if err := c.Sync(handle); err != nil {
		t.Fatal(err)
	}
	delta = inner.IOStats().Sub(before)
	if delta.SyscallsWrite != 1 || delta.Submissions != 1 {
		t.Fatalf("two gapped dirty runs flushed in %d syscalls / %d submissions, want 1 / 1",
			delta.SyscallsWrite, delta.Submissions)
	}
	if delta.BytesWritten != 4*4096 {
		t.Fatalf("batched flush wrote %d bytes, want %d", delta.BytesWritten, 4*4096)
	}
}

// TestCacheVectorReadBatchesFills pins the vectored fill: a cold
// multi-block vector read fills its whole block span with one backend
// submission.
func TestCacheVectorReadBatchesFills(t *testing.T) {
	inner := NewMem()
	c := Cached(inner, CacheOptions{BlockSize: 4096, FlushInterval: -1})
	defer c.Close()
	const handle = uint64(4)
	img := make([]byte, 8*4096)
	for i := range img {
		img[i] = byte(i * 31)
	}
	if _, err := inner.WriteAt(handle, img, 0); err != nil {
		t.Fatal(err)
	}
	// 32 adjacent 1 KiB fragments spanning 8 cold blocks.
	segs := make(ioseg.List, 32)
	for i := range segs {
		segs[i] = ioseg.Segment{Offset: int64(i) * 1024, Length: 1024}
	}
	p := make([]byte, 32*1024)
	before := inner.IOStats()
	if _, err := ApplyPacked(c, handle, segs, p, false); err != nil {
		t.Fatal(err)
	}
	if delta := inner.IOStats().Sub(before); delta.SyscallsRead != 1 || delta.Submissions != 1 {
		t.Fatalf("cold 8-block vector read cost %d backend reads in %d submissions, want 1 in 1",
			delta.SyscallsRead, delta.Submissions)
	}
	if !bytes.Equal(p, img[:len(p)]) {
		t.Fatal("vector read through cache diverges")
	}
}
