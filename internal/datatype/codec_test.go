package datatype

import (
	"bytes"
	"errors"
	"testing"

	"pvfs/internal/ioseg"
)

// sampleTypes builds one instance of every constructor plus nested
// compositions, for round-trip and walk coverage.
func sampleTypes(t *testing.T) map[string]Type {
	t.Helper()
	indexed, err := Indexed([]int64{2, 1, 4}, []int64{0, 5, 9}, Double())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Subarray([]int64{8, 16}, []int64{3, 4}, []int64{2, 5}, Bytes(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Struct(Field{Displ: 0, Type: Bytes(3)}, Field{Displ: 10, Type: Vector(2, 1, 3, Bytes(2))})
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]Type{
		"bytes":    Bytes(17),
		"contig":   Contiguous(5, Bytes(3)),
		"vector":   Vector(7, 2, 5, Double()),
		"hvector":  HVector(4, 3, 100, Bytes(2)),
		"indexed":  indexed,
		"subarray": sub,
		"struct":   st,
		"nested":   Contiguous(3, Vector(4, 1, 2, Contiguous(2, Bytes(5)))),
	}
	for name, typ := range unorderedStructs(t) {
		types["struct-"+name] = typ
	}
	return types
}

// unorderedStructs builds structs whose data order is not ascending
// offset order: fields that interleave, touch, or overlap.
func unorderedStructs(t *testing.T) map[string]Type {
	t.Helper()
	build := func(fields ...Field) Type {
		st, err := Struct(fields...)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	return map[string]Type{
		"interleaved": build(Field{Displ: 0, Type: Vector(2, 1, 4, Bytes(1))}, Field{Displ: 1, Type: Bytes(1)}),
		"touching":    build(Field{Displ: 0, Type: Bytes(4)}, Field{Displ: 4, Type: Bytes(4)}),
		"overlapping": build(Field{Displ: 0, Type: Bytes(4)}, Field{Displ: 2, Type: Bytes(4)}),
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for name, typ := range sampleTypes(t) {
		enc, err := Encode(typ)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.Size() != typ.Size() || got.Extent() != typ.Extent() {
			t.Fatalf("%s: size/extent %d/%d, want %d/%d", name, got.Size(), got.Extent(), typ.Size(), typ.Extent())
		}
		if !Flatten(got, 1000).Equal(Flatten(typ, 1000)) {
			t.Fatalf("%s: regions diverge after round trip", name)
		}
		// Re-encoding is byte-identical (canonical form).
		enc2, err := Encode(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: encoding not canonical", name)
		}
	}
}

func TestDecodeRejectsAdversarial(t *testing.T) {
	deep := Bytes(1)
	for i := 0; i < maxTypeDepth+2; i++ {
		deep = Contiguous(1, deep)
	}
	if _, err := Encode(deep); err == nil {
		t.Error("over-deep tree encoded")
	}
	// Hand-build an over-deep encoding: kindContig count=1 repeated.
	var enc []byte
	for i := 0; i < maxTypeDepth+2; i++ {
		enc = appendI64(append(enc, kindContig), 1)
	}
	enc = appendI64(append(enc, kindBytes), 1)
	if _, err := Decode(enc); err == nil {
		t.Error("over-deep encoding decoded")
	}

	reject := func(name string, enc []byte) {
		t.Helper()
		if _, err := Decode(enc); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	reject("empty", nil)
	reject("unknown kind", []byte{99})
	reject("negative bytes", appendI64([]byte{kindBytes}, -5))
	reject("negative count", func() []byte {
		b := appendI64([]byte{kindContig}, -1)
		return appendI64(append(b, kindBytes), 1)
	}())
	reject("negative stride", func() []byte {
		b := appendI64([]byte{kindVector}, 2)
		b = appendI64(b, 1)
		b = appendI64(b, -3)
		return appendI64(append(b, kindBytes), 1)
	}())
	reject("overflowing extent", func() []byte {
		// contig(maxTypeCount, bytes(maxTypeSpan)) overflows the cap.
		b := appendI64([]byte{kindContig}, maxTypeCount)
		return appendI64(append(b, kindBytes), maxTypeSpan)
	}())
	reject("indexed count over limit", func() []byte {
		return appendU32([]byte{kindIndexed}, maxIndexedEntries+1)
	}())
	reject("indexed count beyond bytes", func() []byte {
		// Claims 1000 entries but supplies none: must error before
		// allocating for the claim.
		return appendU32([]byte{kindIndexed}, 1000)
	}())
	reject("trailing garbage", func() []byte {
		b := appendI64([]byte{kindBytes}, 4)
		return append(b, 0xFF)
	}())
	reject("subarray zero dims", appendU32([]byte{kindSubarray}, 0))
}

func TestDecodeTruncatedIsError(t *testing.T) {
	for name, typ := range sampleTypes(t) {
		enc, err := Encode(typ)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := Decode(enc[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d decoded", name, cut)
			}
		}
	}
}

func TestCheckPattern(t *testing.T) {
	v := Vector(100, 2, 5, Double())
	n, end, err := CheckPattern(v, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * v.Size(); n != want {
		t.Fatalf("dataLen = %d, want %d", n, want)
	}
	if want := 80 + 3*v.Extent(); end != want {
		t.Fatalf("end = %d, want %d", end, want)
	}
	if _, _, err := CheckPattern(v, -1, 1); err == nil {
		t.Error("negative base accepted")
	}
	if _, _, err := CheckPattern(v, 0, -1); err == nil {
		t.Error("negative count accepted")
	}
	if _, _, err := CheckPattern(Bytes(maxTypeSpan), 0, maxTypeCount); err == nil {
		t.Error("overflowing pattern accepted")
	}
}

// collect gathers walked regions.
func collect(t Type, base, count, skip int64) ioseg.List {
	var out ioseg.List
	WalkRepeated(t, base, count, skip, func(s ioseg.Segment) bool {
		out = append(out, s)
		return true
	})
	return out
}

func TestWalkMatchesFlatten(t *testing.T) {
	for name, typ := range sampleTypes(t) {
		for _, count := range []int64{1, 3} {
			want := Flatten(Contiguous(count, typ), 64)
			got := collect(typ, 64, count, 0)
			if !got.Equal(want) {
				t.Fatalf("%s x%d: walk %v, flatten %v", name, count, got, want)
			}
			if n := want.TotalLength(); n != count*typ.Size() {
				t.Fatalf("%s x%d: flatten covers %d bytes, want %d", name, count, n, count*typ.Size())
			}
		}
	}
}

func TestWalkSkipEverySplit(t *testing.T) {
	for name, typ := range sampleTypes(t) {
		total := 2 * typ.Size()
		full := collect(typ, 0, 2, 0)
		for skip := int64(0); skip <= total; skip++ {
			got := collect(typ, 0, 2, skip)
			// The walk from skip must cover exactly the data bytes
			// [skip, total) in the same order as the tail of the full
			// walk.
			var wantBytes, gotBytes int64
			for _, s := range got {
				gotBytes += s.Length
			}
			wantBytes = total - skip
			if gotBytes != wantBytes {
				t.Fatalf("%s skip %d: walked %d bytes, want %d", name, skip, gotBytes, wantBytes)
			}
			// Byte-position sequence must match the full walk's tail.
			wantSeq := expandPositions(full)[skip:]
			gotSeq := expandPositions(got)
			if len(wantSeq) != len(gotSeq) {
				t.Fatalf("%s skip %d: %d positions, want %d", name, skip, len(gotSeq), len(wantSeq))
			}
			for i := range wantSeq {
				if wantSeq[i] != gotSeq[i] {
					t.Fatalf("%s skip %d: position %d = %d, want %d", name, skip, i, gotSeq[i], wantSeq[i])
				}
			}
		}
	}
}

// expandPositions lists the file offset of every data byte in walk
// order.
func expandPositions(l ioseg.List) []int64 {
	var out []int64
	for _, s := range l {
		for i := int64(0); i < s.Length; i++ {
			out = append(out, s.Offset+i)
		}
	}
	return out
}

func TestWalkEarlyStop(t *testing.T) {
	typ := Vector(100, 1, 4, Double())
	n := 0
	WalkRepeated(typ, 0, 1, 0, func(ioseg.Segment) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("walk visited %d regions after stop at 5", n)
	}
}

func TestWalkCoalescesAdjacent(t *testing.T) {
	// 4 doubles back to back must arrive as one 32-byte region.
	got := collect(Contiguous(4, Double()), 0, 1, 0)
	if len(got) != 1 || got[0] != (ioseg.Segment{Offset: 0, Length: 32}) {
		t.Fatalf("walk = %v, want one 32-byte region", got)
	}
	// Seek into the middle of the merged run clips it.
	got = collect(Contiguous(4, Double()), 0, 1, 13)
	if len(got) != 1 || got[0] != (ioseg.Segment{Offset: 13, Length: 19}) {
		t.Fatalf("walk from 13 = %v", got)
	}
}

func TestDataLen(t *testing.T) {
	v := Vector(10, 3, 7, Bytes(2))
	n, end, err := DataLen(v, 100, 4)
	if err != nil || n != 4*v.Size() || end != 100+4*v.Extent() {
		t.Fatalf("DataLen = %d, %d, %v", n, end, err)
	}
	for _, tc := range []struct {
		name        string
		typ         Type
		base, count int64
	}{
		{"negative count", v, 0, -2},
		{"negative base", v, -1, 1},
		{"data length", Bytes(1 << 30), 0, 1 << 34},
		{"extent", HVector(2, 1, 1<<62, Bytes(1)), 0, 2},
		{"end", Bytes(8), 1<<63 - 8, 2},
	} {
		if _, _, err := DataLen(tc.typ, tc.base, tc.count); err == nil {
			t.Errorf("%s: overflowing pattern accepted", tc.name)
		}
	}
	// No codec limit applies: an unencodable repetition count passes.
	if _, _, err := DataLen(Bytes(1), 0, maxTypeCount+1); err != nil {
		t.Errorf("DataLen applied a codec limit: %v", err)
	}
}

func TestEncodeRejectsForeignType(t *testing.T) {
	// A type from outside the package cannot exist (the interface is
	// sealed), so the closest foreign case is exercising ErrNotEncodable
	// via measure on a nil-like wrapper; instead just confirm the error
	// value is wired for the unknown default branch by encoding a valid
	// type and checking no ErrNotEncodable leaks.
	if _, err := Encode(Bytes(1)); errors.Is(err, ErrNotEncodable) {
		t.Fatal("valid type reported not encodable")
	}
}
