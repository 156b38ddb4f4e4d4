package store

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"slices"
	"testing"

	"pvfs/internal/ioseg"
)

// backends returns both store implementations for shared tests.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	return map[string]Store{"mem": NewMem(), "dir": dir}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("stripe unit contents")
			if _, err := s.WriteAt(1, data, 100); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := s.ReadAt(1, got, 100); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read back %q", got)
			}
		})
	}
}

func TestSparseReads(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.WriteAt(2, []byte{0xAB}, 10); err != nil {
				t.Fatal(err)
			}
			// Read covering the hole before and past EOF.
			p := bytes.Repeat([]byte{0xFF}, 20)
			n, err := s.ReadAt(2, p, 5)
			if err != nil {
				t.Fatal(err)
			}
			if n != 20 {
				t.Fatalf("n = %d, want 20 (sparse)", n)
			}
			for i, b := range p {
				want := byte(0)
				if i == 5 { // offset 10 in file
					want = 0xAB
				}
				if b != want {
					t.Fatalf("byte %d = %#x, want %#x", i, b, want)
				}
			}
		})
	}
}

// TestReadUnknownHandle: a read of a handle never written yields zeros
// and creates nothing, on both backends, and a stream of one fails;
// a write batch that moves no bytes creates nothing either.
func TestReadUnknownHandle(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			p := []byte{1, 2, 3}
			if _, err := s.ReadAt(999, p, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, []byte{0, 0, 0}) {
				t.Fatalf("unknown handle read = %v", p)
			}
			q := []byte{4, 5, 6, 7}
			if n, err := s.ReadBatch(998, []Span{{Off: 10, Bufs: [][]byte{q[:1], q[1:]}}}); err != nil || n != 4 {
				t.Fatalf("unknown handle batch read = %d, %v", n, err)
			}
			if !bytes.Equal(q, []byte{0, 0, 0, 0}) {
				t.Fatalf("unknown handle batch read = %v", q)
			}
			if _, err := s.WriteBatch(997, []Span{{Off: 10, Bufs: [][]byte{nil}}}); err != nil {
				t.Fatal(err)
			}
			if fsr, ok := s.(FileStreamer); ok {
				if _, err := fsr.StreamReader(996, 0, 10); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("unknown handle stream: %v, want fs.ErrNotExist", err)
				}
			}
			if hs, err := s.Handles(); err != nil || len(hs) != 0 {
				t.Fatalf("handles after reads and an empty write = %v, %v; want none", hs, err)
			}
		})
	}
}

func TestSizeAndTruncate(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.WriteAt(3, make([]byte, 50), 100); err != nil {
				t.Fatal(err)
			}
			if sz, _ := s.Size(3); sz != 150 {
				t.Fatalf("size = %d, want 150", sz)
			}
			if err := s.Truncate(3, 60); err != nil {
				t.Fatal(err)
			}
			if sz, _ := s.Size(3); sz != 60 {
				t.Fatalf("size after shrink = %d", sz)
			}
			if err := s.Truncate(3, 200); err != nil {
				t.Fatal(err)
			}
			if sz, _ := s.Size(3); sz != 200 {
				t.Fatalf("size after grow = %d", sz)
			}
			// Extended region must read as zeros.
			p := make([]byte, 10)
			if _, err := s.ReadAt(3, p, 190); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, make([]byte, 10)) {
				t.Fatalf("extended region = %v", p)
			}
		})
	}
}

// TestZeroLengthWritesKeepSize pins that an empty extent past EOF does
// not grow a file on any write path, as a zero-byte pwrite does not:
// a scalar write, a packed vector ending in an empty segment (sorted,
// so one batch, and unsorted, so scalar calls), a one-span batch of an
// empty buffer and a gapped batch ending in one. Mem must agree with
// Dir here, or an equivalence run whose vector ends in a zero-length
// segment past EOF diverges on the final size.
func TestZeroLengthWritesKeepSize(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.WriteAt(4, make([]byte, 10), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteAt(4, nil, 500); err != nil {
				t.Fatal(err)
			}
			for _, segs := range []ioseg.List{
				{{Offset: 2, Length: 3}, {Offset: 600}},
				{{Offset: 6, Length: 2}, {Offset: 1, Length: 1}, {Offset: 650}},
			} {
				if _, err := ApplyPacked(s, 4, segs, make([]byte, 3), true); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.WriteBatch(4, []Span{{Off: 700, Bufs: [][]byte{{}}}}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteBatch(4, []Span{{Off: 5, Bufs: [][]byte{{1}}}, {Off: 800, Bufs: [][]byte{{}}}}); err != nil {
				t.Fatal(err)
			}
			if sz, _ := s.Size(4); sz != 10 {
				t.Fatalf("size after zero-length writes past EOF = %d, want 10", sz)
			}
		})
	}
}

func TestRemove(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.WriteAt(4, []byte{1}, 0); err != nil {
				t.Fatal(err)
			}
			if err := s.Remove(4); err != nil {
				t.Fatal(err)
			}
			if sz, _ := s.Size(4); sz != 0 {
				t.Fatalf("size after remove = %d", sz)
			}
			// Removing again is not an error.
			if err := s.Remove(4); err != nil {
				t.Fatalf("double remove: %v", err)
			}
		})
	}
}

func TestHandles(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, h := range []uint64{9, 3, 7} {
				if _, err := s.WriteAt(h, []byte{1}, 0); err != nil {
					t.Fatal(err)
				}
			}
			hs, err := s.Handles()
			if err != nil {
				t.Fatal(err)
			}
			if len(hs) != 3 || hs[0] != 3 || hs[1] != 7 || hs[2] != 9 {
				t.Fatalf("handles = %v", hs)
			}
		})
	}
}

func TestNegativeOffsetRejected(t *testing.T) {
	s := NewMem()
	if _, err := s.WriteAt(1, []byte{1}, -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if _, err := s.ReadAt(1, []byte{1}, -1); err == nil {
		t.Fatal("negative read offset accepted")
	}
	if err := s.Truncate(1, -1); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

func TestBackendsAgreeRandomOps(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	mem := NewMem()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		h := uint64(r.Intn(5))
		off := int64(r.Intn(5000))
		n := 1 + r.Intn(200)
		switch r.Intn(4) {
		case 0, 1: // write; handles 3 and 4 are only ever read
			h %= 3
			p := make([]byte, n)
			r.Read(p)
			if _, err := mem.WriteAt(h, p, off); err != nil {
				t.Fatal(err)
			}
			if _, err := dir.WriteAt(h, p, off); err != nil {
				t.Fatal(err)
			}
		case 2: // read
			a, b := make([]byte, n), make([]byte, n)
			if _, err := mem.ReadAt(h, a, off); err != nil {
				t.Fatal(err)
			}
			if _, err := dir.ReadAt(h, b, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("op %d: backends diverge at handle %d off %d", i, h, off)
			}
		case 3: // size
			a, _ := mem.Size(h)
			b, _ := dir.Size(h)
			if a != b {
				t.Fatalf("op %d: sizes diverge: mem=%d dir=%d", i, a, b)
			}
		}
	}
	a, _ := mem.Handles()
	b, err := dir.Handles()
	if err != nil || !slices.Equal(a, b) || !slices.Equal(a, []uint64{0, 1, 2}) {
		t.Fatalf("handles: mem=%v dir=%v (%v), want [0 1 2]", a, b, err)
	}
}

func TestDirPersistence(t *testing.T) {
	root := t.TempDir()
	d1, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.WriteAt(5, []byte("persists"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	p := make([]byte, 8)
	if _, err := d2.ReadAt(5, p, 0); err != nil {
		t.Fatal(err)
	}
	if string(p) != "persists" {
		t.Fatalf("read back %q", p)
	}
}

func BenchmarkMemWriteAt(b *testing.B) {
	s := NewMem()
	p := make([]byte, 16384)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		if _, err := s.WriteAt(1, p, int64(i%64)*16384); err != nil {
			b.Fatal(err)
		}
	}
}
