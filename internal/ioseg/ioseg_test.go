package ioseg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func seg(off, n int64) Segment { return Segment{Offset: off, Length: n} }

func TestSegmentBasics(t *testing.T) {
	s := seg(10, 5)
	if s.End() != 15 {
		t.Fatalf("End = %d, want 15", s.End())
	}
	if s.Empty() {
		t.Fatal("non-empty segment reported empty")
	}
	if !seg(3, 0).Empty() {
		t.Fatal("zero-length segment not empty")
	}
	for _, p := range []int64{10, 12, 14} {
		if !s.Contains(p) {
			t.Errorf("Contains(%d) = false, want true", p)
		}
	}
	for _, p := range []int64{9, 15, 100} {
		if s.Contains(p) {
			t.Errorf("Contains(%d) = true, want false", p)
		}
	}
}

func TestSegmentOverlapsAdjacent(t *testing.T) {
	cases := []struct {
		a, b              Segment
		overlap, adjacent bool
	}{
		{seg(0, 10), seg(5, 10), true, false},
		{seg(0, 10), seg(10, 5), false, true},
		{seg(10, 5), seg(0, 10), false, true},
		{seg(0, 10), seg(20, 5), false, false},
		{seg(0, 10), seg(0, 10), true, false},
		{seg(5, 1), seg(0, 20), true, false},
	}
	for _, c := range cases {
		if _, got := c.a.Intersect(c.b); got != c.overlap {
			t.Errorf("%v.Intersect(%v) overlap = %v, want %v", c.a, c.b, got, c.overlap)
		}
		if _, got := c.b.Intersect(c.a); got != c.overlap {
			t.Errorf("Intersect not symmetric for %v,%v", c.a, c.b)
		}
		if got := c.a.Adjacent(c.b); got != c.adjacent {
			t.Errorf("%v.Adjacent(%v) = %v, want %v", c.a, c.b, got, c.adjacent)
		}
	}
}

func TestSegmentIntersect(t *testing.T) {
	a, b := seg(0, 100), seg(50, 100)
	got, ok := a.Intersect(b)
	if !ok || got != seg(50, 50) {
		t.Fatalf("Intersect = %v,%v want [50,+50),true", got, ok)
	}
	if _, ok := seg(0, 10).Intersect(seg(10, 10)); ok {
		t.Fatal("adjacent segments should not intersect")
	}
	if _, ok := seg(0, 0).Intersect(seg(0, 10)); ok {
		t.Fatal("empty segment should not intersect")
	}
}

func TestSegmentSplit(t *testing.T) {
	s := seg(10, 10)
	l, r := s.Split(15)
	if l != seg(10, 5) || r != seg(15, 5) {
		t.Fatalf("Split mid: %v %v", l, r)
	}
	l, r = s.Split(5)
	if !l.Empty() || r != s {
		t.Fatalf("Split before: %v %v", l, r)
	}
	l, r = s.Split(25)
	if l != s || !r.Empty() {
		t.Fatalf("Split after: %v %v", l, r)
	}
	l, r = s.Split(10)
	if !l.Empty() || r != s {
		t.Fatalf("Split at start: %v %v", l, r)
	}
}

func TestSegmentValidate(t *testing.T) {
	if err := seg(0, 0).Validate(); err != nil {
		t.Errorf("empty segment invalid: %v", err)
	}
	if err := seg(-1, 5).Validate(); err == nil {
		t.Error("negative offset accepted")
	}
	if err := seg(1, -5).Validate(); err == nil {
		t.Error("negative length accepted")
	}
	if err := seg(1<<62, 1<<62).Validate(); err == nil {
		t.Error("overflowing segment accepted")
	}
}

func TestFromOffLen(t *testing.T) {
	l, err := FromOffLen([]int64{0, 100, 50}, []int64{10, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 2 { // zero-length entry dropped
		t.Fatalf("len = %d, want 2", len(l))
	}
	if _, err := FromOffLen([]int64{0}, []int64{1, 2}); err != ErrMismatchedLists {
		t.Fatalf("mismatched lists: err = %v", err)
	}
	if _, err := FromOffLen([]int64{-3}, []int64{1}); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestTotalLengthSpanCount(t *testing.T) {
	l := List{seg(10, 5), seg(100, 20), seg(0, 1)}
	if got := l.TotalLength(); got != 26 {
		t.Fatalf("TotalLength = %d, want 26", got)
	}
	if got := l.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	span, ok := l.Span()
	if !ok || span != seg(0, 120) {
		t.Fatalf("Span = %v,%v", span, ok)
	}
	if _, ok := (List{}).Span(); ok {
		t.Fatal("empty list has a span")
	}
}

func TestNormalize(t *testing.T) {
	l := List{seg(10, 5), seg(0, 5), seg(12, 10), seg(30, 0), seg(40, 2)}
	n := l.Normalize()
	want := List{seg(0, 5), seg(10, 12), seg(40, 2)}
	if !n.Equal(want) {
		t.Fatalf("Normalize = %v, want %v", n, want)
	}
	if !n.IsNormalized() {
		t.Fatal("normalized list fails IsNormalized")
	}
	if l.IsNormalized() {
		t.Fatal("unsorted overlapping list passes IsNormalized")
	}
}

func TestNormalizeMergesAdjacent(t *testing.T) {
	n := List{seg(0, 5), seg(5, 5)}.Normalize()
	if !n.Equal(List{seg(0, 10)}) {
		t.Fatalf("adjacent not merged: %v", n)
	}
}

func TestCoalesce(t *testing.T) {
	l := List{seg(0, 10), seg(15, 5), seg(100, 10)}
	if got := l.Coalesce(0); !got.Equal(l) {
		t.Fatalf("Coalesce(0) changed disjoint list: %v", got)
	}
	got := l.Coalesce(5)
	want := List{seg(0, 20), seg(100, 10)}
	if !got.Equal(want) {
		t.Fatalf("Coalesce(5) = %v, want %v", got, want)
	}
	got = l.Coalesce(1 << 40)
	if len(got) != 1 || got[0] != seg(0, 110) {
		t.Fatalf("Coalesce(big) = %v", got)
	}
	if got := (List{}).Coalesce(10); len(got) != 0 {
		t.Fatalf("Coalesce of empty = %v", got)
	}
}

func TestIntersectLists(t *testing.T) {
	a := List{seg(0, 10), seg(20, 10)}
	b := List{seg(5, 20)}
	got := a.Intersect(b)
	want := List{seg(5, 5), seg(20, 5)}
	if !got.Equal(want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if got := a.Intersect(List{}); len(got) != 0 {
		t.Fatalf("Intersect with empty = %v", got)
	}
}

func TestClip(t *testing.T) {
	l := List{seg(0, 10), seg(20, 10), seg(40, 10)}
	got := l.Clip(seg(5, 30))
	want := List{seg(5, 5), seg(20, 10)}
	if !got.Equal(want) {
		t.Fatalf("Clip = %v, want %v", got, want)
	}
}

func TestSplitCount(t *testing.T) {
	var l List
	for i := int64(0); i < 130; i++ {
		l = append(l, seg(i*10, 5))
	}
	batches := l.SplitCount(64)
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	if len(batches[0]) != 64 || len(batches[1]) != 64 || len(batches[2]) != 2 {
		t.Fatalf("batch sizes = %d,%d,%d", len(batches[0]), len(batches[1]), len(batches[2]))
	}
	var total int
	for _, b := range batches {
		total += len(b)
	}
	if total != 130 {
		t.Fatalf("total after split = %d", total)
	}
	if got := l.SplitCount(0); len(got) != 1 || len(got[0]) != 130 {
		t.Fatal("SplitCount(0) should return one batch")
	}
	if got := (List{}).SplitCount(64); got != nil {
		t.Fatalf("SplitCount of empty = %v", got)
	}
}

func TestValidateList(t *testing.T) {
	if err := (List{seg(0, 5), seg(-1, 2)}).Validate(); err == nil {
		t.Fatal("invalid list accepted")
	}
	if err := (List{seg(0, 5)}).Validate(); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
}

func randomList(r *rand.Rand, n int) List {
	l := make(List, n)
	for i := range l {
		l[i] = seg(int64(r.Intn(10000)), int64(r.Intn(100)))
	}
	return l
}

// Property: Normalize is idempotent and preserves covered bytes.
func TestNormalizeProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomList(r, int(n%50))
		norm := l.Normalize()
		if !norm.IsNormalized() {
			return false
		}
		if !norm.Normalize().Equal(norm) {
			return false
		}
		// Covered byte set must match: check by sampling positions.
		covered := func(list List, p int64) bool {
			for _, s := range list {
				if s.Contains(p) {
					return true
				}
			}
			return false
		}
		for i := 0; i < 200; i++ {
			p := int64(r.Intn(11000))
			if covered(l, p) != covered(norm, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersect(a,b) ⊆ a and ⊆ b, and is symmetric in coverage.
func TestIntersectProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomList(r, 20), randomList(r, 20)
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if !ab.Equal(ba) {
			return false
		}
		if !ab.Intersect(a).Equal(ab) || !ab.Intersect(b).Equal(ab) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SplitCount preserves order, count and content.
func TestSplitCountProperty(t *testing.T) {
	f := func(seed int64, maxRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomList(r, 100)
		max := int(maxRaw%80) + 1
		var rejoined List
		for _, b := range l.SplitCount(max) {
			if len(b) > max {
				return false
			}
			rejoined = append(rejoined, b...)
		}
		return rejoined.Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescePacked(t *testing.T) {
	cases := []struct {
		name string
		in   List
		want List
		ok   bool
	}{
		{"empty", List{}, List{}, true},
		{"single", List{seg(4, 8)}, List{seg(4, 8)}, true},
		{"adjacent-merge", List{seg(0, 4), seg(4, 4), seg(8, 4)}, List{seg(0, 12)}, true},
		{"gap-preserved", List{seg(0, 4), seg(8, 4)}, List{seg(0, 4), seg(8, 4)}, true},
		{"mixed-runs", List{seg(0, 2), seg(2, 2), seg(10, 1), seg(11, 1), seg(20, 5)},
			List{seg(0, 4), seg(10, 2), seg(20, 5)}, true},
		{"empties-dropped", List{seg(0, 4), seg(4, 0), seg(4, 4), seg(100, 0)}, List{seg(0, 8)}, true},
		{"all-empty", List{seg(3, 0), seg(9, 0)}, List{}, true},
		{"unsorted", List{seg(8, 4), seg(0, 4)}, nil, false},
		{"overlap", List{seg(0, 6), seg(4, 4)}, nil, false},
		{"overlap-after-merge", List{seg(0, 4), seg(4, 4), seg(6, 2)}, nil, false},
	}
	for _, c := range cases {
		got, ok := c.in.CoalescePacked()
		if ok != c.ok {
			t.Errorf("%s: ok=%v, want %v", c.name, ok, c.ok)
			continue
		}
		if ok && !got.Equal(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestCoalescePackedPreservesStream checks the defining property on
// random sorted lists: expanding the merged extents yields exactly the
// input's byte sequence (same total, same file positions in order).
func TestCoalescePackedPreservesStream(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var l List
		off := int64(r.Intn(64))
		for i := 0; i < r.Intn(20); i++ {
			n := int64(r.Intn(5)) // empties included
			l = append(l, seg(off, n))
			off += n + int64(r.Intn(3)) // gap 0..2
		}
		merged, ok := l.CoalescePacked()
		if !ok {
			t.Fatalf("trial %d: sorted non-overlapping list rejected: %v", trial, l)
		}
		if got, want := merged.TotalLength(), l.TotalLength(); got != want {
			t.Fatalf("trial %d: total %d, want %d", trial, got, want)
		}
		if !merged.IsNormalized() {
			t.Fatalf("trial %d: merged list not normalized: %v", trial, merged)
		}
		// Byte-for-byte: walking the input stream and the merged stream
		// must visit identical file offsets.
		var inOffs, outOffs []int64
		for _, s := range l {
			for k := int64(0); k < s.Length; k++ {
				inOffs = append(inOffs, s.Offset+k)
			}
		}
		for _, s := range merged {
			for k := int64(0); k < s.Length; k++ {
				outOffs = append(outOffs, s.Offset+k)
			}
		}
		if len(inOffs) != len(outOffs) {
			t.Fatalf("trial %d: stream lengths differ", trial)
		}
		for i := range inOffs {
			if inOffs[i] != outOffs[i] {
				t.Fatalf("trial %d: stream position %d maps to %d, want %d", trial, i, outOffs[i], inOffs[i])
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	l := List{seg(0, 5)}
	c := l.Clone()
	c[0].Offset = 99
	if l[0].Offset != 0 {
		t.Fatal("Clone shares backing array")
	}
}

func BenchmarkNormalize(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	l := randomList(r, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Normalize()
	}
}

func BenchmarkSplitCount64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	l := randomList(r, 100000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.SplitCount(64)
	}
}
