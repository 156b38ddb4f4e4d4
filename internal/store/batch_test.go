package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// gappedSpans builds n disjoint spans of width bytes separated by gap
// bytes, each scattered across scatter buffers, with deterministic
// content for writes.
func gappedSpans(n, width, gap, scatter int, fill byte) []Span {
	spans := make([]Span, n)
	off := int64(0)
	for i := range spans {
		bufs := make([][]byte, scatter)
		per := width / scatter
		for j := range bufs {
			b := make([]byte, per)
			for k := range b {
				b[k] = fill + byte(i*7+j*3+k)
			}
			bufs[j] = b
		}
		spans[i] = Span{Off: off, Bufs: bufs}
		off += int64(width + gap)
	}
	return spans
}

// flattenSpans returns the spans' buffer bytes concatenated in span
// order — the packed image of the batch.
func flattenSpans(spans []Span) []byte {
	var out []byte
	for _, sp := range spans {
		for _, b := range sp.Bufs {
			out = append(out, b...)
		}
	}
	return out
}

// TestDirBatchGappedSubmission pins how a gapped 64-fragment window
// goes down on Dir, on every host: one pwritev (write) or preadv (read)
// per fragment from the calling goroutine, counted as one submission,
// with the bytes read back identical to those written.
func TestDirBatchGappedSubmission(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const frags = 64
	spans := gappedSpans(frags, 4096, 512, 4, 1)
	before := d.IOStats()
	n, err := d.WriteBatch(1, spans)
	if err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	if want := frags * 4096; n != want {
		t.Fatalf("WriteBatch moved %d bytes, want %d", n, want)
	}
	delta := d.IOStats().Sub(before)
	if delta.Submissions != 1 {
		t.Errorf("gapped %d-fragment write = %d submissions, want 1", frags, delta.Submissions)
	}
	if delta.SyscallsWrite != frags {
		t.Errorf("gapped %d-fragment write = %d write syscalls, want one pwritev per fragment", frags, delta.SyscallsWrite)
	}
	for _, sp := range spans {
		got := make([]byte, sp.Len())
		if _, err := d.ReadAt(1, got, sp.Off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, flattenSpans([]Span{sp})) {
			t.Fatalf("stored bytes at %d differ from the span written there", sp.Off)
		}
	}

	// Read the same gapped window back as one submission and verify
	// byte identity with the written image.
	rspans := gappedSpans(frags, 4096, 512, 4, 0)
	for _, sp := range rspans {
		for _, b := range sp.Bufs {
			for i := range b {
				b[i] = 0xee
			}
		}
	}
	before = d.IOStats()
	if _, err := d.ReadBatch(1, rspans); err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	delta = d.IOStats().Sub(before)
	if delta.Submissions != 1 || delta.SyscallsRead != frags {
		t.Errorf("gapped read = %d submissions, %d syscalls; want 1, one preadv per fragment (%d)",
			delta.Submissions, delta.SyscallsRead, frags)
	}
	if !bytes.Equal(flattenSpans(rspans), flattenSpans(spans)) {
		t.Fatal("batch read-back differs from written image")
	}
}

// TestDirWriteBatchConcurrent has 16 goroutines issue disjoint gapped
// WriteBatches on one Dir and one handle at once — the daemon's shape
// under a full request window — and checks every byte and the
// counters. Run under -race.
func TestDirWriteBatchConcurrent(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const (
		writers = 16
		frags   = 16
		width   = 4096
	)
	// Writer w owns fragment slots w, w+writers, w+2*writers, ...: the
	// batches interleave in the file and never overlap.
	batches := make([][]Span, writers)
	for w := range batches {
		batches[w] = make([]Span, frags)
		for i := range batches[w] {
			buf := bytes.Repeat([]byte{byte(w*frags + i + 1)}, width)
			batches[w][i] = Span{Off: int64(i*writers+w) * 2 * width, Bufs: [][]byte{buf[:width/2], buf[width/2:]}}
		}
	}
	before := d.IOStats()
	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func(spans []Span) {
			defer wg.Done()
			if n, err := d.WriteBatch(7, spans); err != nil || n != frags*width {
				t.Errorf("WriteBatch = %d, %v; want %d", n, err, frags*width)
			}
		}(batches[w])
	}
	wg.Wait()
	delta := d.IOStats().Sub(before)
	if delta.Submissions != writers || delta.SyscallsWrite != writers*frags || delta.BytesWritten != writers*frags*width {
		t.Errorf("counters after %d batches: %+v", writers, delta)
	}
	for _, spans := range batches {
		for _, sp := range spans {
			got := make([]byte, width)
			if _, err := d.ReadAt(7, got, sp.Off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, flattenSpans([]Span{sp})) {
				t.Fatalf("bytes at %d are not the ones their writer put there", sp.Off)
			}
		}
	}
}

// TestRingFallbackEquivalence drives random gapped batches through
// Dir's batch path — one pwritev/preadv per span (DESIGN.md §11) — and
// requires the stored image to match the per-fragment scalar reference
// on Mem, and ReadBatch to return the bytes written.
func TestRingFallbackEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	for round := 0; round < 8; round++ {
		// Random disjoint gapped batch.
		nspans := 1 + rng.Intn(90)
		spans := make([]Span, nspans)
		ref := NewMem()
		off := int64(rng.Intn(1000))
		for i := range spans {
			width := 1 + rng.Intn(9000)
			scatter := 1 + rng.Intn(5)
			bufs := make([][]byte, scatter)
			rem := width
			for j := range bufs {
				l := rem / (scatter - j)
				b := make([]byte, l)
				rng.Read(b)
				bufs[j] = b
				rem -= l
			}
			spans[i] = Span{Off: off, Bufs: bufs}
			off += int64(width + rng.Intn(5000))
		}
		// Reference image: per-fragment scalar writes into Mem.
		for _, sp := range spans {
			pos := sp.Off
			for _, b := range sp.Bufs {
				if _, err := ref.WriteAt(42, b, pos); err != nil {
					t.Fatal(err)
				}
				pos += int64(len(b))
			}
		}
		size, _ := ref.Size(42)
		want := make([]byte, size)
		if _, err := ref.ReadAt(42, want, 0); err != nil {
			t.Fatal(err)
		}

		t.Run(fmt.Sprintf("round%d/vectored", round), func(t *testing.T) {
			d, err := NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if _, err := d.WriteBatch(42, spans); err != nil {
				t.Fatalf("WriteBatch: %v", err)
			}
			got := make([]byte, size)
			if _, err := d.ReadAt(42, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stored image differs from per-fragment reference")
			}
			if st := d.IOStats(); st.SyscallsWrite != int64(len(spans)) || st.Submissions != 1 {
				t.Errorf("WriteBatch of %d spans = %d write syscalls, %d submissions; want one pwritev per span, 1 submission",
					len(spans), st.SyscallsWrite, st.Submissions)
			}
			// Read the batch back through ReadBatch too.
			rspans := make([]Span, len(spans))
			for i, sp := range spans {
				bufs := make([][]byte, len(sp.Bufs))
				for j, b := range sp.Bufs {
					bufs[j] = make([]byte, len(b))
				}
				rspans[i] = Span{Off: sp.Off, Bufs: bufs}
			}
			before := d.IOStats()
			if _, err := d.ReadBatch(42, rspans); err != nil {
				t.Fatalf("ReadBatch: %v", err)
			}
			if st := d.IOStats().Sub(before); st.SyscallsRead != int64(len(spans)) || st.Submissions != 1 {
				t.Errorf("ReadBatch of %d spans = %d read syscalls, %d submissions; want one preadv per span, 1 submission",
					len(spans), st.SyscallsRead, st.Submissions)
			}
			if !bytes.Equal(flattenSpans(rspans), flattenSpans(spans)) {
				t.Fatal("batch read-back differs from written data")
			}
		})
	}
}

// TestBatchEOFZeroFill checks sparse semantics through ReadBatch: a
// batch whose spans straddle and exceed EOF zero-fills the tails.
func TestBatchEOFZeroFill(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// 1000 bytes of 0xaa, then read spans at [500,+300), [900,+300),
	// [5000,+200): in-file, straddling, and fully past EOF.
	data := bytes.Repeat([]byte{0xaa}, 1000)
	if _, err := d.WriteAt(9, data, 0); err != nil {
		t.Fatal(err)
	}
	mk := func(n int) [][]byte {
		a := make([]byte, n/2)
		b := make([]byte, n-n/2)
		for i := range a {
			a[i] = 0xee
		}
		for i := range b {
			b[i] = 0xee
		}
		return [][]byte{a, b}
	}
	spans := []Span{
		{Off: 500, Bufs: mk(300)},
		{Off: 900, Bufs: mk(300)},
		{Off: 5000, Bufs: mk(200)},
	}
	if _, err := d.ReadBatch(9, spans); err != nil {
		t.Fatal(err)
	}
	got := flattenSpans(spans)
	want := append(bytes.Repeat([]byte{0xaa}, 300), bytes.Repeat([]byte{0xaa}, 100)...)
	want = append(want, make([]byte, 200)...)
	want = append(want, make([]byte, 200)...)
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("byte %d: got %#x want %#x", i, got[i], want[i])
			}
		}
	}
}

// TestBatchOverlapRejected pins BatchIO's disjointness contract.
func TestBatchOverlapRejected(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	spans := []Span{
		{Off: 100, Bufs: [][]byte{make([]byte, 50)}},
		{Off: 120, Bufs: [][]byte{make([]byte, 50)}},
	}
	if _, err := d.WriteBatch(1, spans); err == nil {
		t.Fatal("overlapping batch accepted")
	}
	// Out-of-order but disjoint is fine.
	spans = []Span{
		{Off: 200, Bufs: [][]byte{make([]byte, 50)}},
		{Off: 100, Bufs: [][]byte{make([]byte, 50)}},
	}
	if _, err := d.WriteBatch(1, spans); err != nil {
		t.Fatalf("disjoint unsorted batch rejected: %v", err)
	}
	m := NewMem()
	if _, err := m.ReadBatch(1, []Span{
		{Off: 0, Bufs: [][]byte{make([]byte, 10)}},
		{Off: 5, Bufs: [][]byte{make([]byte, 10)}},
	}); err == nil {
		t.Fatal("Mem accepted overlapping batch")
	}
}
