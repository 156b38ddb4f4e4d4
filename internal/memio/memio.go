// Package memio implements the client-side memory engine for
// noncontiguous I/O: gathering noncontiguous memory regions into a
// contiguous wire stream, scattering a wire stream back into memory,
// and matching a memory region list against a file region list.
//
// The paper's list I/O interface (§3.3) takes parallel memory and file
// region lists whose total lengths must agree. Data travels between
// them in "stream order": the i-th byte of the concatenated memory
// regions corresponds to the i-th byte of the concatenated file
// regions. Match makes that correspondence explicit as maximal pieces
// contiguous in both spaces — the unit the paper's FLASH analysis
// counts when memory fragmentation (8-byte doubles) exceeds file
// fragmentation (4 KiB blocks).
//
// The datapaths move bytes through a StreamMap, which copies between
// the arena and any stream range without packing the whole stream.
// Gather and Scatter, which do pack it, are the reference
// implementations the StreamMap's tests and fuzzers compare against.
package memio

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"pvfs/internal/ioseg"
)

// ErrLengthMismatch reports memory and file lists covering different
// byte counts, which makes the stream correspondence undefined.
var ErrLengthMismatch = errors.New("memio: memory and file lists cover different byte counts")

// Pair is a maximal run of bytes contiguous in both memory and file
// space. Mem.Length == File.Length always holds.
type Pair struct {
	Mem  ioseg.Segment // extent in the client buffer (arena offsets)
	File ioseg.Segment // extent in the file's logical byte space
}

// Match aligns a memory region list with a file region list and
// returns the maximal doubly-contiguous pieces in stream order. The
// piece count is max-fragmentation: a new piece starts whenever either
// list starts a new region. Lists must cover equal byte totals.
func Match(mem, file ioseg.List) ([]Pair, error) {
	if mem.TotalLength() != file.TotalLength() {
		return nil, fmt.Errorf("%w: mem=%d file=%d",
			ErrLengthMismatch, mem.TotalLength(), file.TotalLength())
	}
	est := len(mem)
	if len(file) > est {
		est = len(file)
	}
	pairs := make([]Pair, 0, est)
	mi, fi := 0, 0
	var mOff, fOff int64 // consumed bytes within current mem/file region
	for mi < len(mem) && fi < len(file) {
		m, f := mem[mi], file[fi]
		if m.Empty() {
			mi++
			continue
		}
		if f.Empty() {
			fi++
			continue
		}
		n := m.Length - mOff
		if r := f.Length - fOff; r < n {
			n = r
		}
		pairs = append(pairs, Pair{
			Mem:  ioseg.Segment{Offset: m.Offset + mOff, Length: n},
			File: ioseg.Segment{Offset: f.Offset + fOff, Length: n},
		})
		mOff += n
		fOff += n
		if mOff == m.Length {
			mi, mOff = mi+1, 0
		}
		if fOff == f.Length {
			fi, fOff = fi+1, 0
		}
	}
	// Skip any trailing empty regions.
	for mi < len(mem) && mem[mi].Empty() {
		mi++
	}
	for fi < len(file) && file[fi].Empty() {
		fi++
	}
	if mi != len(mem) || fi != len(file) {
		return nil, fmt.Errorf("memio: internal: unconsumed regions (mem %d/%d, file %d/%d)",
			mi, len(mem), fi, len(file))
	}
	return pairs, nil
}

// Gather copies the listed arena regions, in order, into one
// contiguous buffer (stream order). Regions must lie within the arena.
func Gather(arena []byte, mem ioseg.List) ([]byte, error) {
	out := make([]byte, 0, mem.TotalLength())
	for i, s := range mem {
		if err := checkArena(arena, s); err != nil {
			return nil, fmt.Errorf("memio: gather region %d: %w", i, err)
		}
		out = append(out, arena[s.Offset:s.End()]...)
	}
	return out, nil
}

// Scatter copies the contiguous stream into the listed arena regions
// in order. The stream length must equal the list's total length.
func Scatter(arena []byte, mem ioseg.List, stream []byte) error {
	if int64(len(stream)) != mem.TotalLength() {
		return fmt.Errorf("memio: scatter stream %d bytes, regions cover %d",
			len(stream), mem.TotalLength())
	}
	var pos int64
	for i, s := range mem {
		if err := checkArena(arena, s); err != nil {
			return fmt.Errorf("memio: scatter region %d: %w", i, err)
		}
		copy(arena[s.Offset:s.End()], stream[pos:pos+s.Length])
		pos += s.Length
	}
	return nil
}

// StreamMap maps stream positions to arena extents, so stream bytes
// can be copied to or from the arena directly — without materializing
// the full packed stream — given only stream positions. It is the
// zero-copy engine of pipelined list and datatype I/O: each response
// (or request payload) holds the bytes of a list of stream ranges, its
// pieces, and one call moves them between the body and the arena.
//
// The region list is read once, by NewStreamMap, and compressed into
// runs (DESIGN.md §4); it is not retained, so callers may reuse or
// mutate it afterwards. A copy costs one O(log runs) search per piece
// plus the runs it touches: a dense row is one copy, a row of 8-byte
// elements a fixed-width load/store loop, anything else a copy per
// element. Regions with no common shape are kept as a plain
// list, 16 bytes and one copy each, which is what a list with no
// regularity costs. A StreamMap is immutable after construction and
// safe for concurrent use.
type StreamMap struct {
	runs  []run           // in stream order
	lits  []ioseg.Segment // the listed runs' regions, in stream order
	total int64           // stream bytes covered
	end   int64           // highest arena offset any region ends at
	err   error           // what made the list unusable; there are no runs when set
}

// run describes consecutive stream bytes in one of two forms.
//
// A strided run (elem > 0) is a two-level block of equal-length arena
// elements: n1 rows stride1 apart, each of n0 elements stride0 apart,
// the first at arena offset off. Strides may be zero or negative.
//
// A listed run (elem == 0) is n0 regions that share no shape, kept as
// they came: lits[off:off+n0] of the map.
type run struct {
	off     int64 // arena offset of the first element, or index of the first listed region
	elem    int64 // bytes per element
	n0      int64 // elements per row, or listed regions
	stride0 int64 // arena delta between consecutive elements of a row
	n1      int64 // rows
	stride1 int64 // arena delta between consecutive rows' first elements
	pos     int64 // stream position of the first byte
}

const (
	// minStrided is the fewest regions kept as a strided run: below it
	// the 56-byte run costs more than its regions listed at 16 bytes
	// each.
	minStrided = 4
	// maxListed caps a listed run, which is searched by walking it.
	maxListed = 64
)

// builder is NewStreamMap's scratch: runs and listed regions are
// appended here, their counts unknown until the pass ends, and copied
// out at their final size. Pooling it means a map in steady state
// allocates exactly what it keeps, with no growth garbage.
type builder struct {
	runs []run
	lits []ioseg.Segment
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// emptyMap is every zero-region list's map.
var emptyMap StreamMap

// NewStreamMap builds the map in one pass over l. The same pass
// validates every region, sums the lengths with overflow detection and
// finds the highest region end (see Err, Total and End), so callers
// need no walk of their own. Consecutive equal-length regions at a
// constant offset delta fold into a row, and consecutive rows of one
// shape at a constant start delta into a strided run; what folds into
// fewer than minStrided regions is listed instead. Empty regions are
// skipped.
func NewStreamMap(l ioseg.List) *StreamMap {
	if len(l) == 0 {
		return &emptyMap
	}
	b := builders.Get().(*builder)
	b.runs, b.lits = b.runs[:0], b.lits[:0]
	var (
		cur    run   // the run rows are being folded into; n0 == 0 before the first
		curRow int64 // arena offset of cur's last row
		// bad turns negative once any offset, length, region end or the
		// running total does; the regions are only named if that happens.
		total, end, bad int64
	)
	for i := 0; i < len(l); {
		s := l[i]
		i++
		bad |= s.Offset | s.Length | s.End()
		end = max(end, s.End())
		if s.Length == 0 {
			continue
		}
		pos := total
		total += s.Length
		bad |= total
		lone := i == len(l) || l[i].Length != s.Length
		if lone && s.Length != cur.elem {
			// s shares a length with neither neighbour, so no row or run
			// can hold it: list it without the detour through cur. This
			// is all a list with no regularity costs per region.
			if cur.n0 > 0 {
				b.add(cur)
				cur = run{}
			}
			b.list(s, pos)
			continue
		}
		// s opens a row. A next region of its length fixes the row's
		// stride, and the row runs on while regions keep both. The scan
		// loop is the hot one (FLASH: 7 of every 8 regions), so it carries
		// only what must be checked per region.
		row := run{off: s.Offset, elem: s.Length, n0: 1, n1: 1, pos: pos}
		if !lone {
			stride, next, first := l[i].Offset-s.Offset, l[i].Offset, i
			for i < len(l) && l[i].Length == s.Length && l[i].Offset == next {
				total += s.Length
				bad |= next | total
				next += stride
				i++
			}
			row.stride0, row.n0 = stride, row.n0+int64(i-first)
			// Offsets along a row are linear, so the last region ends
			// highest when the first does not.
			rowEnd := next - stride + s.Length
			bad |= rowEnd
			end = max(end, rowEnd)
		}
		// The row becomes one more row of cur when it has cur's shape and
		// starts one row stride past cur's last row (any start does for a
		// second row, which fixes that stride); otherwise cur is complete.
		if row.elem == cur.elem && row.n0 == cur.n0 && row.stride0 == cur.stride0 {
			d := row.off - curRow
			if cur.n1 == 1 {
				cur.stride1 = d
			}
			if d == cur.stride1 {
				cur.n1++
				curRow = row.off
				continue
			}
		}
		b.add(cur)
		cur, curRow = row, row.off
	}
	b.add(cur)
	m := &StreamMap{total: total, end: end}
	if bad < 0 {
		// Cold path: re-walk for the error the reference check gives,
		// region index included. Valid regions with a negative sum
		// leave only overflow.
		*m = StreamMap{err: l.Validate()}
		if m.err == nil {
			m.err = ioseg.ErrLengthOverflow
		}
	} else {
		m.runs, m.lits = exact(b.runs), exact(b.lits)
	}
	builders.Put(b)
	return m
}

// add appends a finished run in stream order: as it is, or region by
// region when it is too short to pay as a strided run.
func (b *builder) add(r run) {
	if r.n0*r.n1 >= minStrided {
		b.runs = append(b.runs, r)
		return
	}
	pos := r.pos
	for i1 := int64(0); i1 < r.n1; i1++ {
		for i0 := int64(0); i0 < r.n0; i0++ {
			b.list(ioseg.Segment{Offset: r.off + i1*r.stride1 + i0*r.stride0, Length: r.elem}, pos)
			pos += r.elem
		}
	}
}

// list appends s, at stream position pos, to the open listed run, or
// opens one.
func (b *builder) list(s ioseg.Segment, pos int64) {
	last := len(b.runs) - 1
	if last < 0 || b.runs[last].elem != 0 || b.runs[last].n0 == maxListed {
		b.runs = append(b.runs, run{off: int64(len(b.lits)), pos: pos})
		last++
	}
	b.runs[last].n0++
	b.lits = append(b.lits, s)
}

// exact returns a copy of s with no spare capacity.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Err reports why the list cannot be mapped: the first region with a
// negative or overflowing field (ioseg.List.Validate's error), or
// ioseg.ErrLengthOverflow when the lengths sum past int64. Total and
// End are zero and every copy fails with this error when it is set.
func (m *StreamMap) Err() error { return m.err }

// Total returns the stream length the map covers.
func (m *StreamMap) Total() int64 { return m.total }

// End returns the highest arena offset any region (empty ones
// included) ends at: every region lies inside an arena at least that
// long.
func (m *StreamMap) End() int64 { return m.end }

// checkRange rejects a stream range the map does not cover.
func (m *StreamMap) checkRange(pos, n int64) error {
	if m.err != nil {
		return m.err
	}
	if pos < 0 || n < 0 || pos > m.total-n {
		return fmt.Errorf("memio: stream range [%d,+%d) outside stream of %d bytes", pos, n, m.total)
	}
	return nil
}

// Piece is a range of stream bytes: Len bytes from stream position Pos.
type Piece struct {
	Pos, Len int64
}

// ScatterPieces copies body, the bytes of pieces back to back in piece
// order, into the arena extents their stream positions map to (the
// scatter direction of a read, body one response). Pieces may come in
// any stream order and be empty. Concurrent calls are safe when their
// stream ranges are disjoint and the regions do not overlap in arena
// space; where pieces of one call map to the same arena bytes, which of
// their values those bytes keep is unspecified.
//
// The map, not the caller, chooses the order bytes move in: a slice of
// blockBytes of every piece, then the next slice of every piece. Pieces
// whose elements share cache lines (FLASH's variables, interleaved per
// cell) so load each line once per slice, not once per piece (DESIGN.md
// §4).
//
// Only the bytes moved must lie inside the arena. A range that maps past
// it is an error naming the arena offset reached, not the region (the
// map does not keep region indexes; check End against the arena first
// to name one). Whatever the order, the error is the one moving the
// pieces one at a time, in order, meets first, and which bytes moved
// before it is unspecified.
func (m *StreamMap) ScatterPieces(arena, body []byte, pieces []Piece) error {
	k, n, err := m.checkPieces(pieces, int64(len(body)))
	if err == nil && n != int64(len(body)) {
		err = fmt.Errorf("memio: body of %d bytes, pieces cover %d", len(body), n)
	}
	if err != nil {
		return m.inOrder(arena, body, pieces[:k], true, err)
	}
	return m.movePieces(arena, body, pieces, true)
}

// GatherPieces appends the bytes of pieces, in piece order, gathered
// from the arena extents they map to, onto body (the gather direction of
// a write, body one request) and returns the extended slice. Pieces and
// errors are as in ScatterPieces; on error body comes back at its
// original length.
func (m *StreamMap) GatherPieces(body, arena []byte, pieces []Piece) ([]byte, error) {
	k, n, err := m.checkPieces(pieces, math.MaxInt-int64(len(body)))
	out := slices.Grow(body, int(n))[:len(body)+int(n)]
	if err != nil {
		return body, m.inOrder(arena, out[len(body):], pieces[:k], false, err)
	}
	if err := m.movePieces(arena, out[len(body):], pieces, false); err != nil {
		return body, err
	}
	return out, nil
}

// CopyIn is ScatterPieces of the one piece src holds, stream bytes from
// position pos on.
func (m *StreamMap) CopyIn(arena []byte, pos int64, src []byte) error {
	return m.ScatterPieces(arena, src, []Piece{{pos, int64(len(src))}})
}

// AppendOut is GatherPieces of the one piece of n stream bytes from
// position pos on.
func (m *StreamMap) AppendOut(dst []byte, arena []byte, pos, n int64) ([]byte, error) {
	return m.GatherPieces(dst, arena, []Piece{{pos, n}})
}

// AppendPieces appends the arena extents that the n stream bytes
// beginning at stream position pos map to, in stream order, onto dst
// and returns the extended slice: the payload of a copy-free write
// (wire.Vec), which AppendOut would have gathered. The pieces alias the
// arena and nothing is copied. Extents of this call that continue one
// another in the arena come out as one piece, so a range inside one
// region, one dense row or a block of abutting rows is a single piece,
// while strided elements cost a piece each: the count tells the caller
// whether a vector pays. Arena bounds are treated as in ScatterPieces;
// on error dst comes back at its original length.
func (m *StreamMap) AppendPieces(dst [][]byte, arena []byte, pos, n int64) ([][]byte, error) {
	if err := m.checkRange(pos, n); err != nil {
		return dst, err
	}
	keep := len(dst)
	lo, hi := int64(-1), int64(-1) // arena extent of the piece being grown; none yet
	var err error
	// Each stretch extends that piece when it starts where the piece
	// ends, and opens a new one otherwise.
	m.stretches(pos, n, func(a, k int64) bool {
		if a+k > int64(len(arena)) {
			err = arenaError(a+k, arena)
			return false
		}
		if a == hi {
			hi += k
			dst[len(dst)-1] = arena[lo:hi]
		} else {
			lo, hi = a, a+k
			dst = append(dst, arena[lo:hi])
		}
		return true
	})
	if err != nil {
		return dst[:keep], err
	}
	return dst, nil
}

// Extent reports whether the n stream bytes from position pos are one
// arena extent — the single piece AppendPieces would append — and if so
// where it starts: the bytes are arena[off:off+n]. It looks no further
// than the second extent, so a range of strided elements costs two
// steps, not one per element; ok is false then and the arena is not
// checked. A single extent that ends past the arena is an error, as in
// AppendPieces. An empty range is one extent.
func (m *StreamMap) Extent(arena []byte, pos, n int64) (off int64, ok bool, err error) {
	if err := m.checkRange(pos, n); err != nil {
		return 0, false, err
	}
	end := int64(-1) // arena offset the extent so far ends at; none yet
	ok = true
	m.stretches(pos, n, func(a, k int64) bool {
		if end < 0 {
			off, end = a, a
		}
		if ok = a == end; ok {
			end += k
		}
		return ok
	})
	if !ok {
		return 0, false, nil
	}
	if end > int64(len(arena)) {
		return 0, false, arenaError(end, arena)
	}
	return off, true, nil
}

// stretches calls yield with the arena extent [a, a+k) of each stretch
// of the n stream bytes from position pos on, in stream order, until
// yield returns false: a listed region, a dense row or a strided
// element, each cut to the range. The range must lie inside the stream.
func (m *StreamMap) stretches(pos, n int64, yield func(a, k int64) bool) {
	if n == 0 {
		return
	}
	ri := sort.Search(len(m.runs), func(i int) bool { return m.runs[i].pos > pos }) - 1
	// Only the first run is entered part way, as in move.
	for skip := pos - m.runs[ri].pos; n > 0; ri, skip = ri+1, 0 {
		r := &m.runs[ri]
		if r.elem == 0 {
			for _, s := range m.lits[r.off : r.off+r.n0] {
				if skip >= s.Length {
					skip -= s.Length
					continue
				}
				k := min(s.Length-skip, n)
				if !yield(s.Offset+skip, k) {
					return
				}
				if skip, n = 0, n-k; n == 0 {
					break
				}
			}
			continue
		}
		e, w := skip/r.elem, skip%r.elem // element in the run, byte in the element
		for i1, i0 := e/r.n0, e%r.n0; i1 < r.n1 && n > 0; i1, i0 = i1+1, 0 {
			a := r.off + i1*r.stride1 + i0*r.stride0
			// A dense row is one extent; any other row one per element.
			elems, width := r.n0-i0, r.elem
			if r.stride0 == r.elem {
				elems, width = 1, elems*r.elem
			}
			for ; elems > 0 && n > 0; elems, a, w = elems-1, a+r.stride0, 0 {
				k := min(width-w, n)
				if !yield(a+w, k) {
					return
				}
				n -= k
			}
		}
	}
}

const (
	// blockBytes is how much of one piece movePieces moves before it
	// turns to the next. Of FLASH memory, 2 KiB is 256 cells, whose 768
	// cache lines (48 KiB) every piece of a body shares; DESIGN.md §4
	// has the sweep that chose it.
	blockBytes = 2 << 10
	// maxCursors caps the pieces interleaved at once: a datatype
	// window's variables, half a list request's regions.
	maxCursors = 32
)

// cursor is a piece part way through a move: its next byte is byte skip
// of run ri, and body[next:end] holds its bytes not moved yet.
type cursor struct {
	ri        int
	skip      int64
	next, end int
}

// seek returns the cursor of the piece at stream position pos whose
// bytes are body[next:end]; pos must lie inside the stream.
func (m *StreamMap) seek(pos int64, next, end int) cursor {
	ri := sort.Search(len(m.runs), func(i int) bool { return m.runs[i].pos > pos }) - 1
	return cursor{ri: ri, skip: pos - m.runs[ri].pos, next: next, end: end}
}

// checkPieces checks pieces in order until one's stream range is not
// the map's or the running total passes limit. It returns how many
// passed, their byte total and what stopped it, if anything did.
func (m *StreamMap) checkPieces(pieces []Piece, limit int64) (int, int64, error) {
	var n int64
	for i, p := range pieces {
		if err := m.checkRange(p.Pos, p.Len); err != nil {
			return i, n, err
		}
		if p.Len > limit-n {
			return i, n, fmt.Errorf("memio: pieces cover more than %d bytes", limit)
		}
		n += p.Len
	}
	return len(pieces), n, nil
}

// movePieces moves body, the bytes of pieces back to back, into the
// arena when scatter is set and out of it otherwise: blockBytes of each
// piece in turn, up to maxCursors pieces at a time (a lone piece moves
// whole). The caller has checked the pieces.
func (m *StreamMap) movePieces(arena, body []byte, pieces []Piece, scatter bool) error {
	var cur [maxCursors]cursor
	for rest, off := pieces, 0; len(rest) > 0; {
		group := cur[:0]
		for _, p := range rest[:min(len(rest), maxCursors)] {
			if p.Len > 0 {
				group = append(group, m.seek(p.Pos, off, off+int(p.Len)))
			}
			off += int(p.Len)
		}
		rest = rest[min(len(rest), maxCursors):]
		step := blockBytes
		if len(group) == 1 {
			step = len(body)
		}
		for len(group) > 0 {
			live := group[:0]
			for i := range group {
				c := &group[i]
				if err := m.move(arena, body, c, min(step, c.end-c.next), scatter); err != nil {
					return m.inOrder(arena, body, pieces, scatter, err)
				}
				if c.next < c.end {
					live = append(live, *c)
				}
			}
			group = live
		}
	}
	return nil
}

// inOrder moves pieces one at a time, each whole, in order, and returns
// the first error that meets, or err if none does. It is the cold path
// of a failure, which names the error the reference order meets.
func (m *StreamMap) inOrder(arena, body []byte, pieces []Piece, scatter bool, err error) error {
	off := 0
	for _, p := range pieces {
		if p.Len > 0 {
			c := m.seek(p.Pos, off, off+int(p.Len))
			if err := m.move(arena, body, &c, int(p.Len), scatter); err != nil {
				return err
			}
		}
		off += int(p.Len)
	}
	return err
}

// move moves the next n bytes of c and advances c past them.
func (m *StreamMap) move(arena, body []byte, c *cursor, n int, scatter bool) error {
	buf := body[c.next : c.next+n]
	for c.next += n; ; c.ri, c.skip = c.ri+1, 0 {
		r := &m.runs[c.ri]
		var rest []byte
		var err error
		if r.elem == 0 {
			rest, err = moveListed(arena, buf, m.lits[r.off:r.off+r.n0], c.skip, scatter)
		} else {
			rest, err = r.moveStrided(arena, buf, c.skip, scatter)
		}
		if err != nil {
			return err
		}
		if len(rest) == 0 {
			c.skip += int64(len(buf))
			return nil
		}
		buf = rest
	}
}

// arenaError reports stream bytes that map past the arena's end.
func arenaError(hi int64, arena []byte) error {
	return fmt.Errorf("memio: stream range maps up to arena offset %d, outside arena of %d bytes", hi, len(arena))
}

// moveListed moves buf, or as much of it as the regions hold from their
// stream byte skip on, one copy per region, and returns what is left of
// buf.
func moveListed(arena, buf []byte, regions []ioseg.Segment, skip int64, scatter bool) ([]byte, error) {
	k := 0
	for k < len(regions) && skip >= regions[k].Length {
		skip -= regions[k].Length
		k++
	}
	for _, s := range regions[k:] {
		a, n := s.Offset+skip, min(s.Length-skip, int64(len(buf)))
		if a+n > int64(len(arena)) {
			return buf, arenaError(a+n, arena)
		}
		xfer(arena[a:a+n], buf[:n], scatter)
		if buf, skip = buf[n:], 0; len(buf) == 0 {
			break
		}
	}
	return buf, nil
}

// moveStrided moves buf, or as much of it as the run holds from its
// stream byte skip on, and returns what is left of buf. Whole rows go
// to the kernel in one block; a row the window cuts goes through
// moveRow. The divisions that locate skip are paid only when there is
// one.
func (r *run) moveStrided(arena, buf []byte, skip int64, scatter bool) ([]byte, error) {
	var i1 int64 // next row
	if skip > 0 {
		e, w := skip/r.elem, skip%r.elem // element in the run, byte in the element
		var i0 int64
		i1, i0 = e/r.n0, e%r.n0
		if i0 > 0 || w > 0 { // finish the row skip lies in
			n, err := r.moveRow(arena, buf, i1, i0, w, scatter)
			if err != nil {
				return buf, err
			}
			buf, i1 = buf[n:], i1+1
		}
	}
	rowBytes := r.n0 * r.elem
	if rows := min(r.n1-i1, int64(len(buf))/rowBytes); rows > 0 {
		// A block of rows is linear along both axes, so its outermost
		// element is at a corner.
		a := r.off + i1*r.stride1
		hi := a + max(0, (r.n0-1)*r.stride0) + max(0, (rows-1)*r.stride1) + r.elem
		if hi > int64(len(arena)) {
			return buf, arenaError(hi, arena)
		}
		moveRows(arena, buf, a, r, rows, scatter)
		buf, i1 = buf[rows*rowBytes:], i1+rows
	}
	if len(buf) > 0 && i1 < r.n1 { // buf ends inside this row
		n, err := r.moveRow(arena, buf, i1, 0, 0, scatter)
		return buf[n:], err
	}
	return buf, nil
}

// moveRow moves the bytes of row i1 from byte w of element i0 on, or as
// many as buf holds, and returns how many that was. An element the
// window cuts is copied on its own, so only the bytes moved are held to
// the arena's bounds; the whole elements between go to the kernel as a
// one-row block.
func (r *run) moveRow(arena, buf []byte, i1, i0, w int64, scatter bool) (int64, error) {
	a := r.off + i1*r.stride1 + i0*r.stride0
	take := min((r.n0-i0)*r.elem-w, int64(len(buf)))
	buf = buf[:take]
	if r.stride0 == r.elem { // one extent
		return take, xferAt(arena, a+w, buf, scatter)
	}
	if w > 0 {
		head := min(r.elem-w, take)
		if err := xferAt(arena, a+w, buf[:head], scatter); err != nil {
			return 0, err
		}
		buf, a = buf[head:], a+r.stride0
	}
	if k := int64(len(buf)) / r.elem; k > 0 {
		// A row is linear, so its outermost element is an endpoint.
		if hi := max(a, a+(k-1)*r.stride0) + r.elem; hi > int64(len(arena)) {
			return 0, arenaError(hi, arena)
		}
		moveRows(arena, buf, a, &run{elem: r.elem, n0: k, stride0: r.stride0}, 1, scatter)
		buf, a = buf[k*r.elem:], a+k*r.stride0
	}
	return take, xferAt(arena, a, buf, scatter)
}

// xferAt moves stream to or from the arena extent of its length at a;
// an empty stream touches nothing, wherever a lies.
func xferAt(arena []byte, a int64, stream []byte, scatter bool) error {
	if len(stream) == 0 {
		return nil
	}
	if hi := a + int64(len(stream)); hi > int64(len(arena)) {
		return arenaError(hi, arena)
	}
	xfer(arena[a:a+int64(len(stream))], stream, scatter)
	return nil
}

// xfer copies stream bytes into their arena extent or back.
func xfer(extent, stream []byte, scatter bool) {
	if scatter {
		copy(extent, stream)
	} else {
		copy(stream, extent)
	}
}

// moveRows is the kernel: it moves rows rows of r's shape, the first
// element at arena offset a, between the arena and stream, which holds
// the rows' bytes packed. The element width is chosen once per block: a
// dense row is one copy; 8-byte elements, the doubles FLASH and the
// paper's other typed workloads come in, move as one load and one
// store, four elements to a loop turn; every other width pays a copy
// call per element. Each row's stream bytes are cut from the block
// once, so per element only the arena side is bounds checked
// (BenchmarkStreamMap*/elem=N measures each width).
func moveRows(arena, stream []byte, a int64, r *run, rows int64, scatter bool) {
	rowBytes := r.n0 * r.elem
	stream = stream[:rows*rowBytes]
	switch s0, s1 := r.stride0, r.stride1; {
	case s0 == r.elem:
		for ; len(stream) > 0; stream, a = stream[rowBytes:], a+s1 {
			xfer(arena[a:a+rowBytes], stream[:rowBytes], scatter)
		}
	case r.elem == 8 && scatter:
		scatter8(arena, stream, a, s0, s1, rowBytes)
	case r.elem == 8:
		gather8(arena, stream, a, s0, s1, rowBytes)
	default:
		for d, elem := int64(0), r.elem; d < int64(len(stream)); a += s1 {
			e, end := a, d+rowBytes
			if scatter {
				for ; d < end; d, e = d+elem, e+s0 {
					copy(arena[e:e+elem], stream[d:d+elem])
				}
			} else {
				for ; d < end; d, e = d+elem, e+s0 {
					copy(stream[d:d+elem], arena[e:e+elem])
				}
			}
		}
	}
}

// The 8-byte arm of moveRows, one function per direction: stream is a
// block of whole rows of rowBytes, row j's element i at arena offset
// a + j*s1 + i*s0.

func gather8(arena, stream []byte, a, s0, s1, rowBytes int64) {
	for ; len(stream) > 0; a += s1 {
		row, e := stream[:rowBytes], a
		stream = stream[rowBytes:]
		for ; len(row) >= 32; row, e = row[32:], e+4*s0 {
			*(*[8]byte)(row[0:8]) = *(*[8]byte)(arena[e : e+8])
			*(*[8]byte)(row[8:16]) = *(*[8]byte)(arena[e+s0 : e+s0+8])
			*(*[8]byte)(row[16:24]) = *(*[8]byte)(arena[e+2*s0 : e+2*s0+8])
			*(*[8]byte)(row[24:32]) = *(*[8]byte)(arena[e+3*s0 : e+3*s0+8])
		}
		for ; len(row) >= 8; row, e = row[8:], e+s0 {
			*(*[8]byte)(row[0:8]) = *(*[8]byte)(arena[e : e+8])
		}
	}
}

func scatter8(arena, stream []byte, a, s0, s1, rowBytes int64) {
	for ; len(stream) > 0; a += s1 {
		row, e := stream[:rowBytes], a
		stream = stream[rowBytes:]
		for ; len(row) >= 32; row, e = row[32:], e+4*s0 {
			*(*[8]byte)(arena[e : e+8]) = *(*[8]byte)(row[0:8])
			*(*[8]byte)(arena[e+s0 : e+s0+8]) = *(*[8]byte)(row[8:16])
			*(*[8]byte)(arena[e+2*s0 : e+2*s0+8]) = *(*[8]byte)(row[16:24])
			*(*[8]byte)(arena[e+3*s0 : e+3*s0+8]) = *(*[8]byte)(row[24:32])
		}
		for ; len(row) >= 8; row, e = row[8:], e+s0 {
			*(*[8]byte)(arena[e : e+8]) = *(*[8]byte)(row[0:8])
		}
	}
}

func checkArena(arena []byte, s ioseg.Segment) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.End() > int64(len(arena)) {
		return fmt.Errorf("region %v outside arena of %d bytes", s, len(arena))
	}
	return nil
}
