package datatype

import (
	"testing"

	"pvfs/internal/ioseg"
)

// FuzzDecodeType drives the network-facing codec with arbitrary bytes:
// malformed or adversarial encodings (cyclic depth, overflowing
// extents, negative counts, truncations) must return errors — never
// panic, hang, or allocate beyond the input-proportional bound — and
// every type it accepts of at most 64 KiB flattens to exactly its walk,
// covering Size bytes. Run as
// a regression test on the seed corpus under `go test`; CI adds a
// -fuzztime smoke run.
func FuzzDecodeType(f *testing.F) {
	for _, t := range []Type{
		Bytes(8),
		Contiguous(4, Bytes(3)),
		Vector(100000, 1, 4, Double()),
		HVector(7, 2, 64, Bytes(2)),
		Contiguous(3, Vector(4, 1, 2, Contiguous(2, Bytes(5)))),
	} {
		enc, err := Encode(t)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	if sub, err := Subarray([]int64{8, 16}, []int64{3, 4}, []int64{2, 5}, Bytes(1)); err == nil {
		enc, _ := Encode(sub)
		f.Add(enc)
	}
	if idx, err := Indexed([]int64{2, 1, 4}, []int64{0, 5, 9}, Double()); err == nil {
		enc, _ := Encode(idx)
		f.Add(enc)
	}
	if st, err := Struct(Field{Displ: 0, Type: Vector(2, 1, 4, Bytes(1))}, Field{Displ: 1, Type: Bytes(2)}); err == nil {
		enc, _ := Encode(st) // fields that interleave and overlap
		f.Add(enc)
	}
	f.Add([]byte{kindContig, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(appendU32([]byte{kindIndexed}, 1<<31))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, err := Decode(data)
		if err != nil {
			return
		}
		// Anything Decode accepts must have checked, non-negative
		// size/extent and survive an encode/decode round trip.
		size, extent := typ.Size(), typ.Extent()
		if size < 0 || extent < 0 {
			t.Fatalf("accepted type with size %d extent %d", size, extent)
		}
		enc, err := Encode(typ)
		if err != nil {
			t.Fatalf("accepted type does not re-encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if again.Size() != size || again.Extent() != extent {
			t.Fatal("round trip changed size/extent")
		}
		// A small type flattens to exactly its walk, totalling Size.
		if size <= 1<<16 {
			l := Flatten(typ, 0)
			if !l.Equal(collect(typ, 0, 1, 0)) {
				t.Fatalf("%s: flatten %v differs from the walk", typ, l)
			}
			if l.TotalLength() != size {
				t.Fatalf("%s: flatten covers %d bytes, Size %d", typ, l.TotalLength(), size)
			}
		}
		// A bounded walk prefix must emit valid, in-range regions.
		n := 0
		WalkRepeated(typ, 0, 1, 0, func(s ioseg.Segment) bool {
			if s.Validate() != nil || s.Length == 0 || s.End() > extent {
				t.Fatalf("walk emitted invalid region %v (extent %d)", s, extent)
			}
			n++
			return n < 256
		})
	})
}
