// Package datatype implements MPI-style derived datatypes and their
// enumeration as contiguous regions.
//
// The paper closes (§5) by observing that list I/O's largest drawback —
// the linear relationship between contiguous regions and I/O requests —
// disappears with more descriptive request languages "similar to MPI
// datatypes". This package provides that language: elementary types,
// contiguous, vector/hvector, indexed, struct-like and N-dimensional
// subarray constructors, with exact Size/Extent semantics.
//
// A type's regions have one definition: WalkRepeated's. It emits them
// in data order (the typemap order of MPI: the i-th data byte of the
// type is the i-th byte of the emitted regions) and merges only
// neighbours that touch end to end, so the walk covers exactly Size
// bytes per repetition even when struct fields interleave or overlap.
// Flatten materialises the same list; every consumer outside this
// package enumerates a type one of these two ways.
package datatype

import (
	"fmt"

	"pvfs/internal/ioseg"
)

// Type is a derived datatype: a byte-granularity template of data
// blocks within an extent, relocatable to any base offset. The
// interface is sealed (walkFrom is unexported): all implementations
// live in this package, which is what lets the wire codec and the
// streaming walker cover every constructor.
type Type interface {
	// Size is the number of data bytes the type selects.
	Size() int64
	// Extent is the span the type occupies (holes included); it is
	// the stride applied when the type is repeated.
	Extent() int64
	// AppendRegions appends the type's raw (unmerged) regions, shifted
	// by base, onto dst in data order and returns dst. It materialises
	// the sequence walkFrom streams and is the reference the walk is
	// tested against.
	AppendRegions(dst ioseg.List, base int64) ioseg.List
	// walkFrom invokes fn for each raw (unmerged) region of the type
	// at base in data order, skipping the first skip data bytes — the
	// region containing byte skip is clipped to start there. It
	// returns false iff fn stopped the walk. State is O(tree depth):
	// nothing is materialized, and skipping jumps whole subtrees by
	// size arithmetic instead of visiting them.
	walkFrom(base, skip int64, fn func(ioseg.Segment) bool) bool
	// denseRun reports (conservatively) whether the type's layout is a
	// single contiguous run of size bytes at displacement displ from
	// the base. Walks emit such subtrees as one region instead of
	// iterating their elements, so a dense repetition of any count
	// costs O(1) — without this, a hostile vector(2^40, 1, 1, bytes(1))
	// would grind a walk through 2^40 merge steps.
	denseRun() (displ, size int64, ok bool)
	// String renders the type constructor tree.
	String() string
}

// Flatten materializes the region list of t at a base offset: t's
// regions in data order with touching neighbours merged, which is
// exactly the list WalkRepeated(t, base, 1, 0, ...) emits. Overlapping
// regions (only Struct fields can overlap) are kept, so the list always
// totals t.Size() bytes.
func Flatten(t Type, base int64) ioseg.List {
	l := t.AppendRegions(nil, base)
	out := l[:0] // the merge writes behind the element it reads
	c := coalescer{fn: func(s ioseg.Segment) bool {
		out = append(out, s)
		return true
	}}
	for _, s := range l {
		c.add(s)
	}
	c.flush()
	return out
}

// --- elementary ---

type bytesT struct{ n int64 }

// Bytes is a contiguous run of n bytes (an elementary type; Double is
// Bytes(8)).
func Bytes(n int64) Type {
	if n < 0 {
		panic("datatype: negative byte count")
	}
	return bytesT{n: n}
}

// Double is the 8-byte elementary type of the FLASH variables.
func Double() Type { return Bytes(8) }

func (b bytesT) Size() int64   { return b.n }
func (b bytesT) Extent() int64 { return b.n }
func (b bytesT) AppendRegions(dst ioseg.List, base int64) ioseg.List {
	if b.n == 0 {
		return dst
	}
	return append(dst, ioseg.Segment{Offset: base, Length: b.n})
}
func (b bytesT) String() string { return fmt.Sprintf("bytes(%d)", b.n) }

// --- contiguous ---

type contiguousT struct {
	count int64
	elem  Type
}

// Contiguous repeats elem count times back to back.
func Contiguous(count int64, elem Type) Type {
	if count < 0 {
		panic("datatype: negative count")
	}
	return contiguousT{count: count, elem: elem}
}

func (c contiguousT) Size() int64   { return c.count * c.elem.Size() }
func (c contiguousT) Extent() int64 { return c.count * c.elem.Extent() }
func (c contiguousT) AppendRegions(dst ioseg.List, base int64) ioseg.List {
	if c.elem.Size() == 0 {
		return dst // no element loop for a type that selects nothing
	}
	for i := int64(0); i < c.count; i++ {
		dst = c.elem.AppendRegions(dst, base+i*c.elem.Extent())
	}
	return dst
}
func (c contiguousT) String() string {
	return fmt.Sprintf("contig(%d, %s)", c.count, c.elem)
}

// --- vector ---

type vectorT struct {
	count    int64
	blockLen int64
	stride   int64 // in elem extents
	elem     Type
}

// Vector is MPI_Type_vector: count blocks of blockLen elements, the
// start of consecutive blocks separated by stride elements.
func Vector(count, blockLen, stride int64, elem Type) Type {
	if count < 0 || blockLen < 0 {
		panic("datatype: negative vector shape")
	}
	return vectorT{count: count, blockLen: blockLen, stride: stride, elem: elem}
}

// HVector is MPI_Type_hvector: stride given in bytes.
func HVector(count, blockLen, strideBytes int64, elem Type) Type {
	return hvectorT{count: count, blockLen: blockLen, stride: strideBytes, elem: elem}
}

// bytes is the vector with its stride in bytes: the layout the
// vector's size, extent and regions are computed from.
func (v vectorT) bytes() hvectorT {
	return hvectorT{count: v.count, blockLen: v.blockLen, stride: v.stride * v.elem.Extent(), elem: v.elem}
}

func (v vectorT) Size() int64   { return v.bytes().Size() }
func (v vectorT) Extent() int64 { return v.bytes().Extent() }
func (v vectorT) AppendRegions(dst ioseg.List, base int64) ioseg.List {
	return v.bytes().AppendRegions(dst, base)
}
func (v vectorT) String() string {
	return fmt.Sprintf("vector(%d x %d every %d, %s)", v.count, v.blockLen, v.stride, v.elem)
}

type hvectorT struct {
	count    int64
	blockLen int64
	stride   int64 // bytes
	elem     Type
}

func (v hvectorT) Size() int64 { return v.count * v.blockLen * v.elem.Size() }
func (v hvectorT) Extent() int64 {
	if v.count == 0 {
		return 0
	}
	return (v.count-1)*v.stride + v.blockLen*v.elem.Extent()
}
func (v hvectorT) AppendRegions(dst ioseg.List, base int64) ioseg.List {
	if v.Size() == 0 {
		return dst
	}
	blk := Contiguous(v.blockLen, v.elem)
	for i := int64(0); i < v.count; i++ {
		dst = blk.AppendRegions(dst, base+i*v.stride)
	}
	return dst
}
func (v hvectorT) String() string {
	return fmt.Sprintf("hvector(%d x %d every %dB, %s)", v.count, v.blockLen, v.stride, v.elem)
}

// --- indexed ---

type indexedT struct {
	blockLens []int64
	displs    []int64 // in elem extents
	elem      Type
}

// Indexed is MPI_Type_indexed: blocks of varying lengths at varying
// displacements (in elements). Blocks must come in increasing
// displacement order without overlapping; Indexed rejects others.
func Indexed(blockLens, displs []int64, elem Type) (Type, error) {
	if len(blockLens) != len(displs) {
		return nil, fmt.Errorf("datatype: %d block lengths vs %d displacements", len(blockLens), len(displs))
	}
	prevEnd := int64(-1 << 62)
	for i := range blockLens {
		if blockLens[i] < 0 {
			return nil, fmt.Errorf("datatype: negative block length at %d", i)
		}
		if displs[i] < prevEnd {
			return nil, fmt.Errorf("datatype: displacement %d overlaps or precedes previous block", i)
		}
		prevEnd = displs[i] + blockLens[i]
	}
	return indexedT{blockLens: append([]int64(nil), blockLens...), displs: append([]int64(nil), displs...), elem: elem}, nil
}

func (x indexedT) Size() int64 {
	var n int64
	for _, b := range x.blockLens {
		n += b
	}
	return n * x.elem.Size()
}
func (x indexedT) Extent() int64 {
	if len(x.displs) == 0 {
		return 0
	}
	last := len(x.displs) - 1
	return (x.displs[last] + x.blockLens[last]) * x.elem.Extent()
}
func (x indexedT) AppendRegions(dst ioseg.List, base int64) ioseg.List {
	for i := range x.blockLens {
		dst = Contiguous(x.blockLens[i], x.elem).AppendRegions(dst, base+x.displs[i]*x.elem.Extent())
	}
	return dst
}
func (x indexedT) String() string {
	return fmt.Sprintf("indexed(%d blocks, %s)", len(x.blockLens), x.elem)
}

// --- subarray ---

type subarrayT struct {
	sizes, subsizes, starts []int64
	elem                    Type
}

// Subarray is MPI_Type_create_subarray with C (row-major) order: an
// N-dimensional sub-block of an N-dimensional array of elem.
func Subarray(sizes, subsizes, starts []int64, elem Type) (Type, error) {
	if len(sizes) == 0 || len(sizes) != len(subsizes) || len(sizes) != len(starts) {
		return nil, fmt.Errorf("datatype: subarray dims mismatch: %d/%d/%d", len(sizes), len(subsizes), len(starts))
	}
	for d := range sizes {
		if sizes[d] <= 0 || subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			return nil, fmt.Errorf("datatype: subarray dim %d out of range (size %d, sub %d, start %d)",
				d, sizes[d], subsizes[d], starts[d])
		}
	}
	return subarrayT{
		sizes:    append([]int64(nil), sizes...),
		subsizes: append([]int64(nil), subsizes...),
		starts:   append([]int64(nil), starts...),
		elem:     elem,
	}, nil
}

func (s subarrayT) Size() int64 {
	n := int64(1)
	for _, d := range s.subsizes {
		n *= d
	}
	return n * s.elem.Size()
}
func (s subarrayT) Extent() int64 {
	n := int64(1)
	for _, d := range s.sizes {
		n *= d
	}
	return n * s.elem.Extent()
}

// rowCount is the number of row pieces: the product of the subsizes
// of all but the last dimension.
func (s subarrayT) rowCount() int64 {
	n := int64(1)
	for _, d := range s.subsizes[:len(s.subsizes)-1] {
		n *= d
	}
	return n
}

func (s subarrayT) AppendRegions(dst ioseg.List, base int64) ioseg.List {
	if s.Size() == 0 {
		return dst // a zero subsize selects no row, not the first one
	}
	nd := len(s.sizes)
	rowLen := s.subsizes[nd-1]
	row := Contiguous(rowLen, s.elem)
	// Strides (in elements) of each dimension.
	strides := make([]int64, nd)
	strides[nd-1] = 1
	for d := nd - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * s.sizes[d+1]
	}
	idx := make([]int64, nd-1)
	for {
		off := s.starts[nd-1] * strides[nd-1]
		for d := 0; d < nd-1; d++ {
			off += (s.starts[d] + idx[d]) * strides[d]
		}
		dst = row.AppendRegions(dst, base+off*s.elem.Extent())
		// Odometer increment over the leading dimensions.
		d := nd - 2
		for d >= 0 {
			idx[d]++
			if idx[d] < s.subsizes[d] {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	return dst
}
func (s subarrayT) String() string {
	return fmt.Sprintf("subarray(%v of %v at %v, %s)", s.subsizes, s.sizes, s.starts, s.elem)
}

// --- struct-like ---

// Field is one (displacement, type) member of a Struct.
type Field struct {
	Displ int64 // byte displacement from the struct base
	Type  Type
}

type structT struct {
	fields []Field
	extent int64
}

// Struct composes fields at byte displacements (MPI_Type_create_struct
// with explicit, nondecreasing displacements). The fields' extents may
// interleave or overlap: data order is field order whatever the
// offsets, so such a struct's regions are not ascending.
func Struct(fields ...Field) (Type, error) {
	var prev int64 = -1 << 62
	var extent int64
	for i, f := range fields {
		if f.Displ < prev {
			return nil, fmt.Errorf("datatype: struct field %d displacement decreases", i)
		}
		prev = f.Displ
		if e := f.Displ + f.Type.Extent(); e > extent {
			extent = e
		}
	}
	return structT{fields: append([]Field(nil), fields...), extent: extent}, nil
}

func (s structT) Size() int64 {
	var n int64
	for _, f := range s.fields {
		n += f.Type.Size()
	}
	return n
}
func (s structT) Extent() int64 { return s.extent }
func (s structT) AppendRegions(dst ioseg.List, base int64) ioseg.List {
	for _, f := range s.fields {
		dst = f.Type.AppendRegions(dst, base+f.Displ)
	}
	return dst
}
func (s structT) String() string { return fmt.Sprintf("struct(%d fields)", len(s.fields)) }
