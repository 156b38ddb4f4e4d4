package datatype

// Wire codec for datatype constructor trees (DESIGN.md §6). The
// encoding is a compact prefix walk of the tree:
//
//	type  := kind:u8 body
//	kind 1 bytes:    n:i64
//	kind 2 contig:   count:i64 elem:type
//	kind 3 vector:   count:i64 blockLen:i64 stride:i64 elem:type
//	kind 4 hvector:  count:i64 blockLen:i64 strideBytes:i64 elem:type
//	kind 5 indexed:  n:u32 (blockLen:i64 displ:i64)*n elem:type
//	kind 6 subarray: nd:u32 (size:i64 subsize:i64 start:i64)*nd elem:type
//	kind 7 struct:   n:u32 (displ:i64 elem:type)*n
//
// All integers are big-endian. Counts travel explicitly — a vector of
// a million blocks costs the same 25 + elem bytes as a vector of four —
// which is the whole point: the description is proportional to the
// constructor tree, never to the flattened region list.
//
// Decode faces the network, so it is defensive: depth, node and entry
// counts are capped; every count is checked against the bytes actually
// present before any allocation, so a hostile length prefix cannot
// force a large allocation; and the decoded tree is re-measured with
// overflow-checked arithmetic so Size/Extent of anything Decode
// returns is known to fit int64 (and the span cap).

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec limits. They bound decoder memory and CPU, not pattern
// expressiveness: counts inside a node are data, not structure.
const (
	// MaxEncodedType caps the encoded tree size accepted on the wire.
	MaxEncodedType = 64 << 10

	maxTypeDepth      = 32      // constructor nesting
	maxTypeNodes      = 1 << 16 // total nodes in one tree
	maxIndexedEntries = 1 << 14 // blocks per indexed node
	maxStructFields   = 1 << 12 // fields per struct node
	maxSubarrayDims   = 16      // dimensions per subarray node
	maxTypeCount      = 1 << 40 // any single repetition count
	maxTypeSpan       = 1 << 56 // Size and Extent of any subtree
)

// Codec errors.
var (
	ErrNotEncodable = errors.New("datatype: type not expressible in the wire encoding")
	ErrEncodedSize  = fmt.Errorf("datatype: encoding exceeds %d bytes", MaxEncodedType)
	ErrTruncated    = errors.New("datatype: truncated encoding")
)

const (
	kindBytes = 1 + iota
	kindContig
	kindVector
	kindHVector
	kindIndexed
	kindSubarray
	kindStruct
)

// Encode serializes t for the wire. It fails on trees the decoder
// would reject — negative strides, out-of-range counts, overflowing
// extents, excessive depth — so a nil error is a guarantee that any
// conforming receiver can evaluate the type.
func Encode(t Type) ([]byte, error) {
	return AppendEncode(nil, t)
}

// AppendEncode appends the encoding of t to dst and returns the
// extended slice, leaving dst unchanged on error.
func AppendEncode(dst []byte, t Type) ([]byte, error) {
	if _, _, err := measure(t, 0); err != nil {
		return dst, err
	}
	mark := len(dst)
	out, err := appendType(dst, t)
	if err != nil {
		return dst[:mark], err
	}
	if len(out)-mark > MaxEncodedType {
		return dst[:mark], ErrEncodedSize
	}
	return out, nil
}

// CanEncode reports whether t is expressible in the wire encoding
// (the selection predicate upper layers use before routing an access
// through the datatype path).
func CanEncode(t Type) error {
	_, _, err := measure(t, 0)
	return err
}

// DataLen returns the data bytes count repetitions of t based at base
// select (count * t.Size()) and the end of the span they occupy
// (base + count*t.Extent()), failing when either leaves non-negative
// int64 space. It applies none of the codec's limits, so it bounds a
// pattern a client flattens as well as one it encodes; CheckPattern
// adds those limits.
func DataLen(t Type, base, count int64) (dataLen, end int64, err error) {
	dataLen, ok1 := mulNN(count, t.Size())
	span, ok2 := mulNN(count, t.Extent())
	end, ok3 := addNN(base, span)
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, fmt.Errorf("datatype: %d repetitions of %s at offset %d leave non-negative int64 space", count, t, base)
	}
	return dataLen, end, nil
}

// CheckPattern validates that count repetitions of t based at base
// stay within the non-negative int64 offset space (DataLen) and the
// codec's limits, and returns the pattern's data length and end offset
// (base for an empty pattern). Every region the walk of a checked
// pattern emits lies in [base, end), so evaluation arithmetic cannot
// overflow.
func CheckPattern(t Type, base, count int64) (dataLen, end int64, err error) {
	if _, _, err := measure(t, 0); err != nil {
		return 0, 0, err
	}
	if count > maxTypeCount {
		return 0, 0, fmt.Errorf("datatype: repetition count %d out of range", count)
	}
	dataLen, end, err = DataLen(t, base, count)
	if err == nil && dataLen > maxTypeSpan {
		err = fmt.Errorf("datatype: pattern data length %d exceeds the span cap", dataLen)
	}
	return dataLen, end, err
}

func appendType(dst []byte, t Type) ([]byte, error) {
	switch v := t.(type) {
	case bytesT:
		return appendI64(append(dst, kindBytes), v.n), nil
	case contiguousT:
		dst = appendI64(append(dst, kindContig), v.count)
		return appendType(dst, v.elem)
	case vectorT:
		dst = appendI64(append(dst, kindVector), v.count)
		dst = appendI64(dst, v.blockLen)
		dst = appendI64(dst, v.stride)
		return appendType(dst, v.elem)
	case hvectorT:
		dst = appendI64(append(dst, kindHVector), v.count)
		dst = appendI64(dst, v.blockLen)
		dst = appendI64(dst, v.stride)
		return appendType(dst, v.elem)
	case indexedT:
		dst = appendU32(append(dst, kindIndexed), uint32(len(v.blockLens)))
		for i := range v.blockLens {
			dst = appendI64(dst, v.blockLens[i])
			dst = appendI64(dst, v.displs[i])
		}
		return appendType(dst, v.elem)
	case subarrayT:
		dst = appendU32(append(dst, kindSubarray), uint32(len(v.sizes)))
		for d := range v.sizes {
			dst = appendI64(dst, v.sizes[d])
			dst = appendI64(dst, v.subsizes[d])
			dst = appendI64(dst, v.starts[d])
		}
		return appendType(dst, v.elem)
	case structT:
		dst = appendU32(append(dst, kindStruct), uint32(len(v.fields)))
		var err error
		for _, f := range v.fields {
			dst = appendI64(dst, f.Displ)
			if dst, err = appendType(dst, f.Type); err != nil {
				return dst, err
			}
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("%w: %T", ErrNotEncodable, t)
	}
}

// Decode parses an encoding produced by Encode (or a hostile peer).
// On success the returned type satisfies every codec limit: bounded
// depth and node count, non-negative shape parameters, and Size/Extent
// that fit the span cap without overflow anywhere in the tree.
func Decode(b []byte) (Type, error) {
	if len(b) > MaxEncodedType {
		return nil, ErrEncodedSize
	}
	d := typeDecoder{buf: b}
	t, err := d.decode(0)
	if err != nil {
		return nil, err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("datatype: %d trailing bytes after encoding", len(d.buf))
	}
	if _, _, err := measure(t, 0); err != nil {
		return nil, err
	}
	return t, nil
}

type typeDecoder struct {
	buf   []byte
	nodes int
}

func (d *typeDecoder) u8() (byte, error) {
	if len(d.buf) < 1 {
		return 0, ErrTruncated
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v, nil
}

func (d *typeDecoder) u32() (uint32, error) {
	if len(d.buf) < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, nil
}

func (d *typeDecoder) i64() (int64, error) {
	if len(d.buf) < 8 {
		return 0, ErrTruncated
	}
	v := int64(binary.BigEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v, nil
}

// need verifies n more 8-byte words are present before the caller
// allocates anything sized by a decoded count.
func (d *typeDecoder) need(words int) error {
	if len(d.buf) < words*8 {
		return ErrTruncated
	}
	return nil
}

func (d *typeDecoder) decode(depth int) (Type, error) {
	if depth > maxTypeDepth {
		return nil, fmt.Errorf("datatype: nesting deeper than %d", maxTypeDepth)
	}
	d.nodes++
	if d.nodes > maxTypeNodes {
		return nil, fmt.Errorf("datatype: more than %d nodes", maxTypeNodes)
	}
	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindBytes:
		n, err := d.i64()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > maxTypeSpan {
			return nil, fmt.Errorf("datatype: byte count %d out of range", n)
		}
		return bytesT{n: n}, nil
	case kindContig:
		count, err := d.i64()
		if err != nil {
			return nil, err
		}
		if count < 0 || count > maxTypeCount {
			return nil, fmt.Errorf("datatype: contig count %d out of range", count)
		}
		elem, err := d.decode(depth + 1)
		if err != nil {
			return nil, err
		}
		return contiguousT{count: count, elem: elem}, nil
	case kindVector, kindHVector:
		count, err := d.i64()
		if err != nil {
			return nil, err
		}
		blockLen, err := d.i64()
		if err != nil {
			return nil, err
		}
		stride, err := d.i64()
		if err != nil {
			return nil, err
		}
		if count < 0 || count > maxTypeCount || blockLen < 0 || blockLen > maxTypeCount {
			return nil, fmt.Errorf("datatype: vector shape %dx%d out of range", count, blockLen)
		}
		if stride < 0 || stride > maxTypeSpan {
			return nil, fmt.Errorf("datatype: vector stride %d out of range", stride)
		}
		elem, err := d.decode(depth + 1)
		if err != nil {
			return nil, err
		}
		if kind == kindVector {
			return vectorT{count: count, blockLen: blockLen, stride: stride, elem: elem}, nil
		}
		return hvectorT{count: count, blockLen: blockLen, stride: stride, elem: elem}, nil
	case kindIndexed:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if n > maxIndexedEntries {
			return nil, fmt.Errorf("datatype: %d indexed blocks exceeds limit", n)
		}
		if err := d.need(2 * int(n)); err != nil {
			return nil, err
		}
		blockLens := make([]int64, n)
		displs := make([]int64, n)
		for i := range blockLens {
			blockLens[i], _ = d.i64()
			displs[i], _ = d.i64()
			if displs[i] < 0 {
				return nil, fmt.Errorf("datatype: negative indexed displacement %d", displs[i])
			}
		}
		elem, err := d.decode(depth + 1)
		if err != nil {
			return nil, err
		}
		t, err := Indexed(blockLens, displs, elem)
		if err != nil {
			return nil, err
		}
		return t, nil
	case kindSubarray:
		nd, err := d.u32()
		if err != nil {
			return nil, err
		}
		if nd == 0 || nd > maxSubarrayDims {
			return nil, fmt.Errorf("datatype: %d subarray dims out of range", nd)
		}
		if err := d.need(3 * int(nd)); err != nil {
			return nil, err
		}
		sizes := make([]int64, nd)
		subsizes := make([]int64, nd)
		starts := make([]int64, nd)
		for i := range sizes {
			sizes[i], _ = d.i64()
			subsizes[i], _ = d.i64()
			starts[i], _ = d.i64()
		}
		elem, err := d.decode(depth + 1)
		if err != nil {
			return nil, err
		}
		t, err := Subarray(sizes, subsizes, starts, elem)
		if err != nil {
			return nil, err
		}
		return t, nil
	case kindStruct:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if n > maxStructFields {
			return nil, fmt.Errorf("datatype: %d struct fields exceeds limit", n)
		}
		fields := make([]Field, 0, min(int(n), 64))
		for i := 0; i < int(n); i++ {
			displ, err := d.i64()
			if err != nil {
				return nil, err
			}
			if displ < 0 {
				return nil, fmt.Errorf("datatype: negative struct displacement %d", displ)
			}
			elem, err := d.decode(depth + 1)
			if err != nil {
				return nil, err
			}
			fields = append(fields, Field{Displ: displ, Type: elem})
		}
		t, err := Struct(fields...)
		if err != nil {
			return nil, err
		}
		return t, nil
	default:
		return nil, fmt.Errorf("datatype: unknown constructor kind %d", kind)
	}
}

// measure computes (size, extent) of t bottom-up with overflow-checked
// arithmetic and enforces every structural limit, so both Encode and
// Decode accept exactly the same trees.
func measure(t Type, depth int) (size, extent int64, err error) {
	if depth > maxTypeDepth {
		return 0, 0, fmt.Errorf("datatype: nesting deeper than %d", maxTypeDepth)
	}
	fail := func(format string, args ...any) (int64, int64, error) {
		return 0, 0, fmt.Errorf("datatype: "+format, args...)
	}
	checked := func(size, extent int64, ok bool) (int64, int64, error) {
		if !ok || size > maxTypeSpan || extent > maxTypeSpan {
			return fail("size/extent of %s overflows the span cap", t)
		}
		return size, extent, nil
	}
	switch v := t.(type) {
	case bytesT:
		if v.n < 0 {
			return fail("negative byte count %d", v.n)
		}
		return checked(v.n, v.n, true)
	case contiguousT:
		if v.count < 0 || v.count > maxTypeCount {
			return fail("contig count %d out of range", v.count)
		}
		es, ee, err := measure(v.elem, depth+1)
		if err != nil {
			return 0, 0, err
		}
		size, ok1 := mulNN(v.count, es)
		extent, ok2 := mulNN(v.count, ee)
		return checked(size, extent, ok1 && ok2)
	case vectorT:
		if v.count < 0 || v.count > maxTypeCount || v.blockLen < 0 || v.blockLen > maxTypeCount {
			return fail("vector shape %dx%d out of range", v.count, v.blockLen)
		}
		if v.stride < 0 || v.stride > maxTypeSpan {
			return fail("vector stride %d out of range", v.stride)
		}
		es, ee, err := measure(v.elem, depth+1)
		if err != nil {
			return 0, 0, err
		}
		block, ok1 := mulNN(v.count, v.blockLen)
		size, ok2 := mulNN(block, es)
		extent := int64(0)
		ok3, ok4, ok5 := true, true, true
		if v.count > 0 {
			var span int64
			span, ok3 = mulNN(v.count-1, v.stride)
			span, ok4 = addNN(span, v.blockLen)
			extent, ok5 = mulNN(span, ee)
		}
		return checked(size, extent, ok1 && ok2 && ok3 && ok4 && ok5)
	case hvectorT:
		if v.count < 0 || v.count > maxTypeCount || v.blockLen < 0 || v.blockLen > maxTypeCount {
			return fail("hvector shape %dx%d out of range", v.count, v.blockLen)
		}
		if v.stride < 0 || v.stride > maxTypeSpan {
			return fail("hvector stride %d out of range", v.stride)
		}
		es, ee, err := measure(v.elem, depth+1)
		if err != nil {
			return 0, 0, err
		}
		block, ok1 := mulNN(v.count, v.blockLen)
		size, ok2 := mulNN(block, es)
		extent := int64(0)
		ok3, ok4, ok5 := true, true, true
		if v.count > 0 {
			var gaps, blockSpan int64
			gaps, ok3 = mulNN(v.count-1, v.stride)
			blockSpan, ok4 = mulNN(v.blockLen, ee)
			extent, ok5 = addNN(gaps, blockSpan)
		}
		return checked(size, extent, ok1 && ok2 && ok3 && ok4 && ok5)
	case indexedT:
		if len(v.blockLens) > maxIndexedEntries {
			return fail("%d indexed blocks exceeds limit", len(v.blockLens))
		}
		es, ee, err := measure(v.elem, depth+1)
		if err != nil {
			return 0, 0, err
		}
		var elems int64
		ok := true
		for i, b := range v.blockLens {
			if b < 0 || b > maxTypeCount || v.displs[i] < 0 {
				return fail("indexed block %d shape out of range", i)
			}
			var o bool
			elems, o = addNN(elems, b)
			ok = ok && o
		}
		size, ok1 := mulNN(elems, es)
		extent := int64(0)
		ok2, ok3 := true, true
		if n := len(v.displs); n > 0 {
			var last int64
			last, ok2 = addNN(v.displs[n-1], v.blockLens[n-1])
			extent, ok3 = mulNN(last, ee)
		}
		return checked(size, extent, ok && ok1 && ok2 && ok3)
	case subarrayT:
		if len(v.sizes) == 0 || len(v.sizes) > maxSubarrayDims {
			return fail("%d subarray dims out of range", len(v.sizes))
		}
		es, ee, err := measure(v.elem, depth+1)
		if err != nil {
			return 0, 0, err
		}
		cells, sub := int64(1), int64(1)
		ok := true
		for d := range v.sizes {
			if v.sizes[d] <= 0 || v.subsizes[d] < 0 || v.starts[d] < 0 ||
				v.subsizes[d] > maxTypeCount || v.sizes[d] > maxTypeCount {
				return fail("subarray dim %d out of range", d)
			}
			var o1, o2 bool
			cells, o1 = mulNN(cells, v.sizes[d])
			sub, o2 = mulNN(sub, v.subsizes[d])
			ok = ok && o1 && o2
		}
		size, ok1 := mulNN(sub, es)
		extent, ok2 := mulNN(cells, ee)
		return checked(size, extent, ok && ok1 && ok2)
	case structT:
		if len(v.fields) > maxStructFields {
			return fail("%d struct fields exceeds limit", len(v.fields))
		}
		ok := true
		for i, f := range v.fields {
			if f.Displ < 0 {
				return fail("struct field %d displacement negative", i)
			}
			fs, fe, err := measure(f.Type, depth+1)
			if err != nil {
				return 0, 0, err
			}
			var o1, o2 bool
			size, o1 = addNN(size, fs)
			var end int64
			end, o2 = addNN(f.Displ, fe)
			if end > extent {
				extent = end
			}
			ok = ok && o1 && o2
		}
		return checked(size, extent, ok)
	default:
		return 0, 0, fmt.Errorf("%w: %T", ErrNotEncodable, t)
	}
}

// mulNN multiplies non-negative a and b, reporting overflow.
func mulNN(a, b int64) (int64, bool) {
	if a < 0 || b < 0 {
		return 0, false
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// addNN adds non-negative a and b, reporting overflow.
func addNN(a, b int64) (int64, bool) {
	if a < 0 || b < 0 {
		return 0, false
	}
	s := a + b
	if s < 0 {
		return 0, false
	}
	return s, true
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

func appendI64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}
