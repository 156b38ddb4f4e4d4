package datatype

// Streaming evaluation of datatypes: walk the region sequence of a
// type (or count back-to-back repetitions of it) without materializing
// the region list, with O(tree depth) state and O(depth) seeking to an
// arbitrary data position. This is the engine behind server-side
// access-pattern evaluation (DESIGN.md §6): an I/O daemon receives the
// encoded constructor tree plus a data window and walks only the part
// of the pattern the window touches, so its memory never depends on
// how many contiguous fragments the pattern flattens to.

import "pvfs/internal/ioseg"

// WalkRepeated streams the regions of count back-to-back repetitions of
// t at base (each shifted by one extent, as Contiguous lays them out) in
// data order, starting at data byte skip of the full count*t.Size()
// byte stream (the region containing byte skip is clipped to start
// there), invoking fn for each maximal run of adjacent regions. It
// returns false iff fn stopped the walk. Memory is O(tree depth);
// seeking to skip costs O(depth) for uniform constructors (vector,
// subarray, contiguous) and O(entries) for indexed/struct nodes.
//
// Emission granularity: raw regions that touch end-to-end are merged
// on the fly, so a dense row of elements arrives as one region.
// Nothing else is merged or reordered: regions of interleaved Struct
// fields arrive in field order, and overlapping ones (possible only
// through Struct fields with overlapping extents) are not
// deduplicated. Every data byte is emitted exactly once, in data
// order, which is the contract stream-oriented I/O needs. Flatten
// materialises this sequence for a single repetition.
func WalkRepeated(t Type, base, count, skip int64, fn func(ioseg.Segment) bool) bool {
	c := coalescer{fn: fn}
	if !walkContig(count, t, base, skip, c.add) {
		return false
	}
	return c.flush()
}

// coalescer merges adjacent raw regions into maximal runs before
// handing them to fn.
type coalescer struct {
	cur  ioseg.Segment
	have bool
	fn   func(ioseg.Segment) bool
}

func (c *coalescer) add(s ioseg.Segment) bool {
	if s.Length == 0 {
		return true
	}
	if c.have && s.Offset == c.cur.End() {
		c.cur.Length += s.Length
		return true
	}
	if c.have && !c.fn(c.cur) {
		return false
	}
	c.cur, c.have = s, true
	return true
}

func (c *coalescer) flush() bool {
	if !c.have {
		return true
	}
	c.have = false
	return c.fn(c.cur)
}

// denseEmit emits the single run [pos, pos+size) clipped at skip.
func denseEmit(pos, size, skip int64, fn func(ioseg.Segment) bool) bool {
	if skip >= size {
		return true
	}
	return fn(ioseg.Segment{Offset: pos + skip, Length: size - skip})
}

// walkContig walks count repetitions of elem laid out back to back
// from base (stride = one extent), skipping the first skip data bytes.
// It is shared by contiguousT, the block loops of the vector family,
// and WalkRepeated, and avoids re-boxing elem into a contiguousT per
// call so hot walks do not allocate. A dense element collapses the
// whole repetition to one O(1) emission.
func walkContig(count int64, elem Type, base, skip int64, fn func(ioseg.Segment) bool) bool {
	es := elem.Size()
	if es <= 0 || count <= 0 {
		return true
	}
	if d, sz, ok := elem.denseRun(); ok {
		if count == 1 {
			return denseEmit(base+d, sz, skip, fn)
		}
		if d == 0 && sz == elem.Extent() {
			return denseEmit(base, count*sz, skip, fn)
		}
	}
	ee := elem.Extent()
	i := int64(0)
	if skip > 0 {
		i = skip / es
		skip -= i * es
	}
	for ; i < count; i++ {
		if !elem.walkFrom(base+i*ee, skip, fn) {
			return false
		}
		skip = 0
	}
	return true
}

func (b bytesT) walkFrom(base, skip int64, fn func(ioseg.Segment) bool) bool {
	if skip >= b.n {
		return true
	}
	return fn(ioseg.Segment{Offset: base + skip, Length: b.n - skip})
}

func (c contiguousT) walkFrom(base, skip int64, fn func(ioseg.Segment) bool) bool {
	return walkContig(c.count, c.elem, base, skip, fn)
}

func (v vectorT) walkFrom(base, skip int64, fn func(ioseg.Segment) bool) bool {
	return v.bytes().walkFrom(base, skip, fn)
}

func (v hvectorT) walkFrom(base, skip int64, fn func(ioseg.Segment) bool) bool {
	bs := v.blockLen * v.elem.Size()
	if bs <= 0 || v.count <= 0 {
		return true
	}
	if d, sz, ok := v.denseRun(); ok {
		return denseEmit(base+d, sz, skip, fn)
	}
	i := int64(0)
	if skip > 0 {
		i = skip / bs
		skip -= i * bs
	}
	for ; i < v.count; i++ {
		if !walkContig(v.blockLen, v.elem, base+i*v.stride, skip, fn) {
			return false
		}
		skip = 0
	}
	return true
}

func (x indexedT) walkFrom(base, skip int64, fn func(ioseg.Segment) bool) bool {
	es := x.elem.Size()
	if es <= 0 {
		return true
	}
	ee := x.elem.Extent()
	for i := range x.blockLens {
		if d := x.blockLens[i] * es; skip >= d {
			skip -= d
			continue
		}
		if !walkContig(x.blockLens[i], x.elem, base+x.displs[i]*ee, skip, fn) {
			return false
		}
		skip = 0
	}
	return true
}

func (s subarrayT) walkFrom(base, skip int64, fn func(ioseg.Segment) bool) bool {
	nd := len(s.sizes)
	es := s.elem.Size()
	rowLen := s.subsizes[nd-1]
	rowBytes := rowLen * es
	if rowBytes <= 0 {
		return true
	}
	if d, sz, ok := s.denseRun(); ok {
		return denseEmit(base+d, sz, skip, fn)
	}
	rows := s.rowCount()
	r := skip / rowBytes
	if r >= rows {
		return true
	}
	skip -= r * rowBytes
	ee := s.elem.Extent()
	strides := make([]int64, nd)
	strides[nd-1] = 1
	for d := nd - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * s.sizes[d+1]
	}
	// Decompose the starting row index into the leading-dimension
	// odometer (row-major: idx[0] outermost).
	idx := make([]int64, nd-1)
	for d := nd - 2; d >= 0; d-- {
		idx[d] = r % s.subsizes[d]
		r /= s.subsizes[d]
	}
	for {
		off := s.starts[nd-1] * strides[nd-1]
		for d := 0; d < nd-1; d++ {
			off += (s.starts[d] + idx[d]) * strides[d]
		}
		if !walkContig(rowLen, s.elem, base+off*ee, skip, fn) {
			return false
		}
		skip = 0
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
			return true
		}
	}
}

func (s structT) walkFrom(base, skip int64, fn func(ioseg.Segment) bool) bool {
	for _, f := range s.fields {
		if d := f.Type.Size(); skip >= d {
			skip -= d
			continue
		}
		if !f.Type.walkFrom(base+f.Displ, skip, fn) {
			return false
		}
		skip = 0
	}
	return true
}

// --- dense-run detection ---
//
// denseRun answers conservatively: ok=true guarantees the layout is
// exactly one contiguous run; false just means "walk the elements".
// Nodes with bounded fan-out (indexed, struct) answer false — their
// entry counts are codec-capped, so walking them is already cheap.

// denseFull reports whether t is a single run filling its entire
// extent (displacement 0), the condition under which repetitions of t
// merge into one run.
func denseFull(t Type) (size int64, ok bool) {
	d, sz, ok := t.denseRun()
	if !ok || d != 0 || sz != t.Extent() {
		return 0, false
	}
	return sz, true
}

func (b bytesT) denseRun() (int64, int64, bool) { return 0, b.n, true }

func (c contiguousT) denseRun() (int64, int64, bool) {
	if c.count == 0 {
		return 0, 0, true
	}
	if c.count == 1 {
		return c.elem.denseRun()
	}
	if sz, ok := denseFull(c.elem); ok {
		return 0, c.count * sz, true
	}
	return 0, 0, false
}

func (v vectorT) denseRun() (int64, int64, bool) { return v.bytes().denseRun() }

func (v hvectorT) denseRun() (int64, int64, bool) {
	if v.count == 0 || v.blockLen == 0 {
		return 0, 0, true
	}
	sz, ok := denseFull(v.elem)
	if !ok {
		return 0, 0, false
	}
	if v.count == 1 || v.stride == v.blockLen*v.elem.Extent() {
		return 0, v.count * v.blockLen * sz, true
	}
	return 0, 0, false
}

func (x indexedT) denseRun() (int64, int64, bool) { return 0, 0, false }

func (s subarrayT) denseRun() (int64, int64, bool) {
	es, ok := denseFull(s.elem)
	if !ok {
		return 0, 0, false
	}
	nd := len(s.sizes)
	// Contiguous slab: a single row piece, or full trailing dimensions
	// so successive rows touch end to end.
	rows := s.rowCount()
	full := true
	for d := 1; d < nd; d++ {
		if s.subsizes[d] != s.sizes[d] {
			full = false
			break
		}
	}
	if rows != 1 && !full {
		return 0, 0, false
	}
	sub := int64(1)
	for _, d := range s.subsizes {
		sub *= d
	}
	if sub == 0 {
		return 0, 0, true
	}
	// Element offset of the start corner.
	strides := int64(1)
	off := int64(0)
	for d := nd - 1; d >= 0; d-- {
		off += s.starts[d] * strides
		strides *= s.sizes[d]
	}
	return off * s.elem.Extent(), sub * es, true
}

func (s structT) denseRun() (int64, int64, bool) {
	if len(s.fields) == 1 {
		d, sz, ok := s.fields[0].Type.denseRun()
		return s.fields[0].Displ + d, sz, ok
	}
	return 0, 0, false
}
