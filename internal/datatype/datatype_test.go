package datatype

import (
	"testing"

	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
)

func flat(t Type) ioseg.List { return Flatten(t, 0) }

func TestBytes(t *testing.T) {
	b := Bytes(16)
	if b.Size() != 16 || b.Extent() != 16 {
		t.Fatalf("bytes: %d %d", b.Size(), b.Extent())
	}
	l := flat(b)
	if len(l) != 1 || l[0] != (ioseg.Segment{Offset: 0, Length: 16}) {
		t.Fatalf("flatten = %v", l)
	}
	if len(flat(Bytes(0))) != 0 {
		t.Fatal("zero bytes flattens to regions")
	}
	if Double().Size() != 8 {
		t.Fatal("Double size")
	}
}

func TestContiguousMerges(t *testing.T) {
	c := Contiguous(4, Bytes(8))
	if c.Size() != 32 || c.Extent() != 32 {
		t.Fatalf("contig: %d %d", c.Size(), c.Extent())
	}
	l := flat(c)
	if len(l) != 1 || l[0].Length != 32 {
		t.Fatalf("contiguous of dense elements should merge: %v", l)
	}
}

func TestVector(t *testing.T) {
	// 3 blocks of 2 doubles every 5 doubles.
	v := Vector(3, 2, 5, Double())
	if v.Size() != 48 {
		t.Fatalf("size = %d", v.Size())
	}
	if v.Extent() != (2*5+2)*8 {
		t.Fatalf("extent = %d", v.Extent())
	}
	l := Flatten(v, 100)
	want := ioseg.List{{Offset: 100, Length: 16}, {Offset: 140, Length: 16}, {Offset: 180, Length: 16}}
	if !l.Equal(want) {
		t.Fatalf("flatten = %v, want %v", l, want)
	}
}

func TestVectorDegeneratesToContiguous(t *testing.T) {
	v := Vector(4, 3, 3, Bytes(2)) // stride == blocklen
	l := flat(v)
	if len(l) != 1 || l[0].Length != 24 {
		t.Fatalf("dense vector should merge: %v", l)
	}
}

func TestHVector(t *testing.T) {
	v := HVector(3, 4, 100, Bytes(1))
	l := flat(v)
	want := ioseg.List{{Offset: 0, Length: 4}, {Offset: 100, Length: 4}, {Offset: 200, Length: 4}}
	if !l.Equal(want) {
		t.Fatalf("flatten = %v", l)
	}
	if v.Extent() != 204 {
		t.Fatalf("extent = %d", v.Extent())
	}
}

func TestIndexed(t *testing.T) {
	x, err := Indexed([]int64{2, 1, 3}, []int64{0, 5, 10}, Double())
	if err != nil {
		t.Fatal(err)
	}
	if x.Size() != 48 {
		t.Fatalf("size = %d", x.Size())
	}
	if x.Extent() != 13*8 {
		t.Fatalf("extent = %d", x.Extent())
	}
	l := flat(x)
	want := ioseg.List{{Offset: 0, Length: 16}, {Offset: 40, Length: 8}, {Offset: 80, Length: 24}}
	if !l.Equal(want) {
		t.Fatalf("flatten = %v", l)
	}
}

func TestIndexedRejectsOverlap(t *testing.T) {
	if _, err := Indexed([]int64{4, 2}, []int64{0, 2}, Bytes(1)); err == nil {
		t.Fatal("overlapping indexed accepted")
	}
	if _, err := Indexed([]int64{1}, []int64{0, 1}, Bytes(1)); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := Indexed([]int64{-1}, []int64{0}, Bytes(1)); err == nil {
		t.Fatal("negative block accepted")
	}
}

func TestSubarray2D(t *testing.T) {
	// 2x3 block at (1,2) of a 4x8 byte array.
	s, err := Subarray([]int64{4, 8}, []int64{2, 3}, []int64{1, 2}, Bytes(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 6 || s.Extent() != 32 {
		t.Fatalf("size=%d extent=%d", s.Size(), s.Extent())
	}
	l := flat(s)
	want := ioseg.List{{Offset: 10, Length: 3}, {Offset: 18, Length: 3}}
	if !l.Equal(want) {
		t.Fatalf("flatten = %v, want %v", l, want)
	}
}

func TestSubarray3D(t *testing.T) {
	// 2x2x2 cube at origin of a 3x3x3 array of doubles.
	s, err := Subarray([]int64{3, 3, 3}, []int64{2, 2, 2}, []int64{0, 0, 0}, Double())
	if err != nil {
		t.Fatal(err)
	}
	l := flat(s)
	if len(l) != 4 { // 2*2 rows of 2 doubles
		t.Fatalf("rows = %d: %v", len(l), l)
	}
	if l.TotalLength() != 64 {
		t.Fatalf("total = %d", l.TotalLength())
	}
	// Row starts: z=0:(0,0)=0,(1,0)=3; z=1:(0,0)=9,(1,0)=12 (elements).
	wantOffsets := []int64{0, 24, 72, 96}
	for i, s := range l {
		if s.Offset != wantOffsets[i] {
			t.Fatalf("row %d at %d, want %d", i, s.Offset, wantOffsets[i])
		}
	}
}

func TestSubarrayWholeRowsMerge(t *testing.T) {
	// Full-width rows merge into one region per contiguous band.
	s, err := Subarray([]int64{4, 8}, []int64{2, 8}, []int64{1, 0}, Bytes(1))
	if err != nil {
		t.Fatal(err)
	}
	l := flat(s)
	if len(l) != 1 || l[0] != (ioseg.Segment{Offset: 8, Length: 16}) {
		t.Fatalf("whole rows should merge: %v", l)
	}
}

func TestSubarrayValidation(t *testing.T) {
	if _, err := Subarray([]int64{4}, []int64{5}, []int64{0}, Bytes(1)); err == nil {
		t.Fatal("oversized subarray accepted")
	}
	if _, err := Subarray([]int64{4}, []int64{2}, []int64{3}, Bytes(1)); err == nil {
		t.Fatal("out-of-range start accepted")
	}
	if _, err := Subarray([]int64{4, 4}, []int64{2}, []int64{0}, Bytes(1)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestStruct(t *testing.T) {
	s, err := Struct(
		Field{Displ: 0, Type: Bytes(4)},
		Field{Displ: 8, Type: Vector(2, 1, 2, Double())},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 20 {
		t.Fatalf("size = %d", s.Size())
	}
	l := flat(s)
	want := ioseg.List{{Offset: 0, Length: 4}, {Offset: 8, Length: 8}, {Offset: 24, Length: 8}}
	if !l.Equal(want) {
		t.Fatalf("flatten = %v", l)
	}
	if _, err := Struct(Field{Displ: 8, Type: Bytes(1)}, Field{Displ: 0, Type: Bytes(1)}); err == nil {
		t.Fatal("decreasing displacements accepted")
	}
}

func TestNestedVectorOfVector(t *testing.T) {
	// A vector of vectors: 2 groups every 10 elements, each group
	// being 2 blocks of 1 byte every 3 bytes.
	inner := Vector(2, 1, 3, Bytes(1)) // extent 4, regions {0,3}
	outer := Vector(2, 1, 10, inner)
	l := flat(outer)
	want := ioseg.List{{Offset: 0, Length: 1}, {Offset: 3, Length: 1}, {Offset: 40, Length: 1}, {Offset: 43, Length: 1}}
	if !l.Equal(want) {
		t.Fatalf("flatten = %v, want %v", l, want)
	}
	if outer.Size() != 4 {
		t.Fatalf("size = %d", outer.Size())
	}
}

func TestFlattenSizeInvariant(t *testing.T) {
	// Flatten total must equal Size for every constructor; a type whose
	// data order ascends flattens to a normalized list.
	sub, _ := Subarray([]int64{7, 9}, []int64{3, 4}, []int64{2, 1}, Double())
	idx, _ := Indexed([]int64{3, 5}, []int64{0, 7}, Bytes(3))
	noRows, _ := Subarray([]int64{4, 8}, []int64{0, 5}, []int64{1, 2}, Bytes(1))
	ascending := []Type{
		noRows,
		Bytes(13),
		Contiguous(5, Bytes(3)),
		Vector(7, 2, 4, Bytes(5)),
		HVector(4, 2, 64, Double()),
		sub,
		idx,
	}
	for _, ty := range ascending {
		l := flat(ty)
		if l.TotalLength() != ty.Size() {
			t.Errorf("%s: flatten covers %d, Size %d", ty, l.TotalLength(), ty.Size())
		}
		if !l.IsNormalized() {
			t.Errorf("%s: flatten not normalized: %v", ty, l)
		}
	}
	for name, ty := range unorderedStructs(t) {
		if l := flat(ty); l.TotalLength() != ty.Size() {
			t.Errorf("%s: flatten %v covers %d, Size %d", name, l, l.TotalLength(), ty.Size())
		}
	}
}

func TestFlattenKeepsDataOrder(t *testing.T) {
	st := unorderedStructs(t)
	for _, tc := range []struct {
		name string
		want ioseg.List
	}{
		// Field 0's bytes 0 and 4 come before field 1's byte 1.
		{"interleaved", ioseg.List{{Offset: 0, Length: 1}, {Offset: 4, Length: 1}, {Offset: 1, Length: 1}}},
		// Fields that touch merge into one region.
		{"touching", ioseg.List{{Offset: 0, Length: 8}}},
		// Overlapping fields both keep their bytes.
		{"overlapping", ioseg.List{{Offset: 0, Length: 4}, {Offset: 2, Length: 4}}},
	} {
		if got := flat(st[tc.name]); !got.Equal(tc.want) {
			t.Errorf("%s: flatten = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDatatypeExpressesCyclicPattern(t *testing.T) {
	// The 1-D cyclic access pattern is exactly a vector datatype: the
	// cross-check the paper's §5 proposes.
	cyc, err := patterns.NewCyclic1D(4, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	bs := cyc.BlockSize()
	rank := 2
	v := Vector(100, bs, int64(4)*bs, Bytes(1))
	got := Flatten(v, int64(rank)*bs)
	want := patterns.FileList(cyc, rank)
	if !got.Equal(want) {
		t.Fatalf("vector flattening != cyclic pattern:\n%v\n%v", got[:3], want[:3])
	}
}

func TestDatatypeExpressesFlashFileView(t *testing.T) {
	// FLASH's file view for one rank is a vector of 4 KiB chunks
	// strided by ranks*4 KiB.
	flash := patterns.DefaultFlash(4)
	rank := 1
	v := Vector(int64(flash.FileRegions(rank)), 4096, 4*4096, Bytes(1))
	got := Flatten(v, int64(rank)*4096)
	want := patterns.FileList(flash, rank)
	if !got.Equal(want) {
		t.Fatalf("vector flattening != FLASH file view")
	}
}

func TestDatatypeExpressesTiledPattern(t *testing.T) {
	// A display tile is a 2-D subarray of the frame.
	tiled := patterns.DefaultTiled()
	rank := 4 // second row, middle tile
	frameH := int64(2*768 - 128)
	frameW := int64(3*1024 - 2*270)
	tx, ty := int64(rank%3), int64(rank/3)
	sub, err := Subarray(
		[]int64{frameH, frameW * 3},
		[]int64{768, 1024 * 3},
		[]int64{ty * 640, tx * 754 * 3},
		Bytes(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := Flatten(sub, 0)
	want := patterns.FileList(tiled, rank)
	if !got.Equal(want) {
		t.Fatalf("subarray flattening != tiled pattern:\ngot  %v\nwant %v", got[:2], want[:2])
	}
}

func BenchmarkFlattenVector(b *testing.B) {
	v := Vector(10000, 8, 64, Bytes(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Flatten(v, 0)
	}
}
