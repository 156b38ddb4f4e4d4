// Package ioseg provides the region algebra used throughout the PVFS
// reproduction: contiguous byte extents ([offset, offset+length)) and
// operations over ordered lists of them.
//
// Noncontiguous I/O requests, stripe maps, data-sieving extents and the
// list I/O wire format all reduce to lists of Segment values, so this
// package is the shared vocabulary of the repository.
package ioseg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Segment is a contiguous byte extent starting at Offset and spanning
// Length bytes: the half-open interval [Offset, Offset+Length).
type Segment struct {
	Offset int64
	Length int64
}

// End returns the first byte past the segment.
func (s Segment) End() int64 { return s.Offset + s.Length }

// Empty reports whether the segment spans no bytes.
func (s Segment) Empty() bool { return s.Length == 0 }

// Contains reports whether byte position p falls inside the segment.
func (s Segment) Contains(p int64) bool { return p >= s.Offset && p < s.End() }

// Adjacent reports whether s ends exactly where t begins or vice versa.
func (s Segment) Adjacent(t Segment) bool {
	return s.End() == t.Offset || t.End() == s.Offset
}

// Intersect returns the overlapping byte range of s and t. The second
// return value is false when the segments do not overlap.
func (s Segment) Intersect(t Segment) (Segment, bool) {
	lo := max64(s.Offset, t.Offset)
	hi := min64(s.End(), t.End())
	if lo >= hi {
		return Segment{}, false
	}
	return Segment{Offset: lo, Length: hi - lo}, true
}

// Split cuts the segment at absolute position p. The first piece covers
// [Offset, p) and the second [p, End). Splitting outside the segment
// returns the whole segment on one side and an empty one on the other.
func (s Segment) Split(p int64) (Segment, Segment) {
	switch {
	case p <= s.Offset:
		return Segment{Offset: s.Offset}, s
	case p >= s.End():
		return s, Segment{Offset: s.End()}
	default:
		return Segment{Offset: s.Offset, Length: p - s.Offset},
			Segment{Offset: p, Length: s.End() - p}
	}
}

func (s Segment) String() string {
	return fmt.Sprintf("[%d,+%d)", s.Offset, s.Length)
}

// Validate checks the segment for negative fields and int64 overflow.
func (s Segment) Validate() error {
	switch {
	case s.Offset < 0:
		return fmt.Errorf("ioseg: negative offset %d", s.Offset)
	case s.Length < 0:
		return fmt.Errorf("ioseg: negative length %d", s.Length)
	case s.Offset+s.Length < s.Offset:
		return fmt.Errorf("ioseg: segment [%d,+%d) overflows int64", s.Offset, s.Length)
	}
	return nil
}

// List is an ordered sequence of segments. Most operations require or
// produce a normalized list: sorted by offset, non-overlapping, with no
// empty segments (adjacent segments may remain distinct unless merged).
type List []Segment

// ErrMismatchedLists reports offset/length slices of different sizes.
var ErrMismatchedLists = errors.New("ioseg: offsets and lengths differ in count")

// FromOffLen builds a List from parallel offset and length slices, the
// shape of the pvfs_read_list interface in the paper.
func FromOffLen(offsets, lengths []int64) (List, error) {
	if len(offsets) != len(lengths) {
		return nil, ErrMismatchedLists
	}
	l := make(List, 0, len(offsets))
	for i := range offsets {
		s := Segment{Offset: offsets[i], Length: lengths[i]}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		if s.Empty() {
			continue
		}
		l = append(l, s)
	}
	return l, nil
}

// TotalLength returns the sum of the segment lengths.
func (l List) TotalLength() int64 {
	var n int64
	for _, s := range l {
		n += s.Length
	}
	return n
}

// ErrLengthOverflow reports a region list whose total length exceeds
// int64 space.
var ErrLengthOverflow = errors.New("ioseg: total length overflows int64")

// TotalLengthChecked is TotalLength with overflow detection: segment
// lengths from an untrusted peer may individually pass Validate yet
// sum past MaxInt64, wrapping negative. Negative segment lengths are
// rejected too, so a nil error guarantees a non-negative exact total.
func (l List) TotalLengthChecked() (int64, error) {
	var n int64
	for i, s := range l {
		if s.Length < 0 {
			return 0, fmt.Errorf("ioseg: segment %d: negative length %d", i, s.Length)
		}
		if n > math.MaxInt64-s.Length {
			return 0, ErrLengthOverflow
		}
		n += s.Length
	}
	return n, nil
}

// Count returns the number of segments.
func (l List) Count() int { return len(l) }

// Span returns the covering extent from the first byte of the lowest
// segment to the last byte of the highest. The second return value is
// false for an empty list. The list need not be sorted.
func (l List) Span() (Segment, bool) {
	if len(l) == 0 {
		return Segment{}, false
	}
	lo, hi := l[0].Offset, l[0].End()
	for _, s := range l[1:] {
		lo = min64(lo, s.Offset)
		hi = max64(hi, s.End())
	}
	return Segment{Offset: lo, Length: hi - lo}, true
}

// IsSorted reports whether segments appear in nondecreasing offset order.
func (l List) IsSorted() bool {
	return sort.SliceIsSorted(l, func(i, j int) bool { return l[i].Offset < l[j].Offset })
}

// IsNormalized reports whether the list is sorted, free of empty
// segments, and free of overlaps.
func (l List) IsNormalized() bool {
	for i, s := range l {
		if s.Empty() || s.Validate() != nil {
			return false
		}
		if i > 0 && l[i-1].End() > s.Offset {
			return false
		}
	}
	return true
}

// Normalize returns a sorted copy with empty segments dropped and
// overlapping or adjacent segments merged. The input is unchanged.
func (l List) Normalize() List {
	out := make(List, 0, len(l))
	for _, s := range l {
		if !s.Empty() {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Offset != out[j].Offset {
			return out[i].Offset < out[j].Offset
		}
		return out[i].Length < out[j].Length
	})
	merged := out[:0]
	for _, s := range out {
		if n := len(merged); n > 0 && merged[n-1].End() >= s.Offset {
			if e := s.End(); e > merged[n-1].End() {
				merged[n-1].Length = e - merged[n-1].Offset
			}
			continue
		}
		merged = append(merged, s)
	}
	return merged
}

// Coalesce merges segments whose gap is at most maxGap bytes, in a
// sorted copy of the list. maxGap of 0 merges only adjacent/overlapping
// segments; a positive maxGap is the hybrid list+sieve coalescing rule
// from the paper's future work (§5): nearby regions are fetched as one.
// The returned list covers a superset of the input bytes when maxGap>0.
func (l List) Coalesce(maxGap int64) List {
	if len(l) == 0 {
		return List{}
	}
	sorted := append(List(nil), l...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	out := List{sorted[0]}
	for _, s := range sorted[1:] {
		last := &out[len(out)-1]
		if s.Offset <= last.End()+maxGap {
			if e := s.End(); e > last.End() {
				last.Length = e - last.Offset
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// CoalescePacked merges exactly-adjacent segments of a list that
// describes a packed byte stream: segment i's bytes occupy stream
// positions [sum(len 0..i-1), sum(len 0..i)). Merging is valid only
// when stream order equals file order — the list is sorted and free of
// overlaps — because then adjacent file extents are also adjacent in
// the stream, so the merged list describes the same stream byte for
// byte and a consumer may service each merged extent with a single
// contiguous I/O. Empty segments carry no stream bytes and are
// dropped. The second return value is false when the list is unsorted
// or self-overlapping; callers then must preserve per-segment order
// (a later overlapping write wins) and should fall back to sequential
// application.
func (l List) CoalescePacked() (List, bool) {
	out := make(List, 0, len(l))
	for _, s := range l {
		if s.Empty() {
			continue
		}
		if n := len(out); n > 0 {
			last := &out[n-1]
			if s.Offset == last.End() {
				last.Length += s.Length
				continue
			}
			if s.Offset < last.End() {
				return nil, false
			}
		}
		out = append(out, s)
	}
	return out, true
}

// CoalesceRuns is CoalescePacked plus the stream-position bookkeeping
// a batch builder needs: it returns the coalesced runs and, aligned
// with them, each run's starting position in the packed byte stream.
// ok is false under the same conditions as CoalescePacked (unsorted or
// overlapping list), in which case both returns are nil. A consumer
// handing the whole gapped window to the store in one call
// (store.BatchIO, one span per run) maps run i to the stream bytes
// [pos[i], pos[i]+runs[i].Length).
func (l List) CoalesceRuns() (runs List, pos []int64, ok bool) {
	runs, ok = l.CoalescePacked()
	if !ok {
		return nil, nil, false
	}
	pos = make([]int64, len(runs))
	var p int64
	for i, r := range runs {
		pos[i] = p
		p += r.Length
	}
	return runs, pos, true
}

// Intersect returns the normalized intersection of two lists.
func (l List) Intersect(m List) List {
	a, b := l.Normalize(), m.Normalize()
	var out List
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if s, ok := a[i].Intersect(b[j]); ok {
			out = append(out, s)
		}
		if a[i].End() < b[j].End() {
			i++
		} else {
			j++
		}
	}
	return out
}

// Clip returns the parts of the (normalized copy of the) list that fall
// within window.
func (l List) Clip(window Segment) List {
	var out List
	for _, s := range l.Normalize() {
		if c, ok := s.Intersect(window); ok {
			out = append(out, c)
		}
	}
	return out
}

// SplitCount cuts the list into batches of at most max segments each,
// preserving order. It is the 64-region trailing-data limit from the
// paper applied to an arbitrary list. max <= 0 yields a single batch.
func (l List) SplitCount(max int) []List {
	if max <= 0 || len(l) <= max {
		if len(l) == 0 {
			return nil
		}
		return []List{l}
	}
	out := make([]List, 0, (len(l)+max-1)/max)
	for start := 0; start < len(l); start += max {
		end := min(start+max, len(l))
		out = append(out, l[start:end])
	}
	return out
}

// Equal reports element-wise equality.
func (l List) Equal(m List) bool {
	if len(l) != len(m) {
		return false
	}
	for i := range l {
		if l[i] != m[i] {
			return false
		}
	}
	return true
}

// Validate checks every segment and returns the first error found.
func (l List) Validate() error {
	for i, s := range l {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the list.
func (l List) Clone() List { return append(List(nil), l...) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
