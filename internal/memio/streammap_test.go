package memio

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
)

// The StreamMap's contract is equivalence with the flat-list reference
// implementations: AppendOut over any stream window equals Gather's
// output sliced at that window, AppendPieces' pieces concatenate to the
// same bytes, and CopyIn of a stream cut anywhere leaves the arena
// image Scatter leaves. How the list compresses into runs must never
// show.

// joinPieces concatenates what AppendPieces appended after the first
// keep pieces, and reports whether those were left alone and no piece
// is empty.
func joinPieces(pieces [][]byte, keep [][]byte) ([]byte, bool) {
	ok := len(pieces) >= len(keep)
	for i := range keep {
		ok = ok && i < len(pieces) && bytes.Equal(pieces[i], keep[i])
	}
	var out []byte
	for _, p := range pieces[min(len(keep), len(pieces)):] {
		ok = ok && len(p) > 0
		out = append(out, p...)
	}
	return out, ok
}

// checkEquivalence drives the map over l with the stream cut at the
// given positions (any order, duplicates and out-of-range values are
// dropped) and compares against Gather and Scatter. Lists the reference
// rejects must make the map return errors instead.
func checkEquivalence(t *testing.T, arenaLen int, l ioseg.List, cuts []int64) {
	t.Helper()
	arena := make([]byte, arenaLen)
	for i := range arena {
		arena[i] = byte(i*7 + i>>8)
	}
	m := NewStreamMap(l)

	total, sumErr := l.TotalLengthChecked()
	if err := l.Validate(); err != nil || sumErr != nil {
		if m.Err() == nil {
			t.Fatalf("invalid list %v accepted (Validate: %v, sum: %v)", l, err, sumErr)
		}
		if err != nil && m.Err().Error() != err.Error() {
			t.Fatalf("Err = %q, want Validate's %q", m.Err(), err)
		}
		if err == nil && !errors.Is(m.Err(), ioseg.ErrLengthOverflow) {
			t.Fatalf("Err = %v, want ErrLengthOverflow", m.Err())
		}
		if _, err := m.AppendOut(nil, arena, 0, 1); err == nil {
			t.Fatal("AppendOut on an invalid list succeeded")
		}
		if _, err := m.AppendPieces(nil, arena, 0, 1); err == nil {
			t.Fatal("AppendPieces on an invalid list succeeded")
		}
		if _, _, err := m.Extent(arena, 0, 1); err == nil {
			t.Fatal("Extent on an invalid list succeeded")
		}
		if err := m.CopyIn(arena, 0, []byte{1}); err == nil {
			t.Fatal("CopyIn on an invalid list succeeded")
		}
		return
	}
	if m.Err() != nil {
		t.Fatalf("valid list %v rejected: %v", l, m.Err())
	}
	if m.Total() != total {
		t.Fatalf("Total = %d, want %d", m.Total(), total)
	}
	if span, _ := l.Span(); m.End() != span.End() {
		t.Fatalf("End = %d, want %d", m.End(), span.End())
	}

	// Stream ranges outside the stream are errors, whatever the list.
	for _, r := range [][2]int64{{-1, 1}, {0, -1}, {0, total + 1}, {total, 1}, {total + 1, 0},
		{1, math.MaxInt64}, {math.MaxInt64, math.MaxInt64}} {
		if _, err := m.AppendOut(nil, arena, r[0], r[1]); err == nil {
			t.Fatalf("AppendOut accepted stream range [%d,+%d) of %d", r[0], r[1], total)
		}
		if got, err := m.AppendPieces(nil, arena, r[0], r[1]); err == nil || len(got) != 0 {
			t.Fatalf("AppendPieces accepted stream range [%d,+%d) of %d", r[0], r[1], total)
		}
		if _, ok, err := m.Extent(arena, r[0], r[1]); err == nil || ok {
			t.Fatalf("Extent accepted stream range [%d,+%d) of %d", r[0], r[1], total)
		}
	}
	if err := m.CopyIn(arena, total, []byte{1}); err == nil {
		t.Fatal("CopyIn past the stream succeeded")
	}
	if err := m.CopyIn(arena, -1, nil); err == nil {
		t.Fatal("CopyIn at a negative position succeeded")
	}

	// The reference also rejects an empty region outside the arena,
	// which moves nothing; the map reports it through End alone.
	l = slices.DeleteFunc(slices.Clone(l), ioseg.Segment.Empty)
	want, err := Gather(arena, l)
	if err != nil {
		// Some region lies outside the arena: moving the whole stream
		// must fail, and no window may panic.
		if _, err := m.AppendOut(nil, arena, 0, total); err == nil {
			t.Fatalf("AppendOut past the arena succeeded (list %v, arena %d)", l, arenaLen)
		}
		held := [][]byte{{1}}
		if got, err := m.AppendPieces(held, arena, 0, total); err == nil || len(got) != 1 {
			t.Fatalf("AppendPieces past the arena: %d pieces, %v (list %v, arena %d)", len(got), err, l, arenaLen)
		}
		if err := m.CopyIn(arena, 0, make([]byte, total)); err == nil {
			t.Fatalf("CopyIn past the arena succeeded (list %v, arena %d)", l, arenaLen)
		}
		for _, c := range cuts {
			if c >= 0 && c <= total {
				m.AppendOut(nil, arena, c, min(total-c, 16))
				m.AppendPieces(nil, arena, c, min(total-c, 16))
				m.Extent(arena, c, min(total-c, 16))
				m.CopyIn(arena, c, make([]byte, min(total-c, 16)))
			}
		}
		return
	}

	// Window boundaries: 0, total and every usable cut, ascending.
	bounds := []int64{0, total}
	for _, c := range cuts {
		if c > 0 && c < total {
			bounds = append(bounds, c)
		}
	}
	slices.Sort(bounds)

	stream := make([]byte, total)
	for i := range stream {
		stream[i] = byte(i*13 + 5)
	}
	wantImage := bytes.Clone(arena)
	if err := Scatter(wantImage, l, stream); err != nil {
		t.Fatal(err)
	}
	image := bytes.Clone(arena)
	prefix := []byte("hdr") // AppendOut must append, not overwrite
	for i := 0; i+1 < len(bounds); i++ {
		pos, n := bounds[i], bounds[i+1]-bounds[i]
		got, err := m.AppendOut(prefix[:3:3], arena, pos, n)
		if err != nil {
			t.Fatalf("AppendOut [%d,+%d): %v (list %v)", pos, n, err, l)
		}
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want[pos:pos+n]) {
			t.Fatalf("AppendOut [%d,+%d) = %v, want %v (list %v)", pos, n, got[3:], want[pos:pos+n], l)
		}
		held := [][]byte{prefix}
		pieces, err := m.AppendPieces(held[:1:1], arena, pos, n)
		if err != nil {
			t.Fatalf("AppendPieces [%d,+%d): %v (list %v)", pos, n, err, l)
		}
		if joined, ok := joinPieces(pieces, held); !ok || !bytes.Equal(joined, want[pos:pos+n]) {
			t.Fatalf("AppendPieces [%d,+%d) = %v, want %v (list %v)", pos, n, pieces, want[pos:pos+n], l)
		}
		// Extent finds one extent exactly where AppendPieces made one piece
		// (or none, for an empty range), and it starts where that piece does.
		off, one, err := m.Extent(arena, pos, n)
		if err != nil || one != (len(pieces) <= 2) || n > 0 && one && &arena[off] != &pieces[1][0] {
			t.Fatalf("Extent [%d,+%d) = %d, %v, %v; AppendPieces made %d pieces (list %v)", pos, n, off, one, err, len(pieces)-1, l)
		}
		if err := m.CopyIn(image, pos, stream[pos:pos+n]); err != nil {
			t.Fatalf("CopyIn [%d,+%d): %v (list %v)", pos, n, err, l)
		}
	}
	if !bytes.Equal(image, wantImage) {
		t.Fatalf("CopyIn image differs from Scatter (list %v, cuts %v)", l, bounds)
	}
}

// block appends rows×count regions of n bytes: elements stride apart,
// rows rowStride apart.
func block(l ioseg.List, off, n, count, stride, rows, rowStride int64) ioseg.List {
	for j := int64(0); j < rows; j++ {
		for i := int64(0); i < count; i++ {
			l = append(l, seg(off+j*rowStride+i*stride, n))
		}
	}
	return l
}

// shapeless returns n regions no two neighbours of which share a
// length, at growing gaps, offsets descending now and then.
func shapeless(n int) ioseg.List {
	var l ioseg.List
	for i := int64(0); i < int64(n); i++ {
		off := 40 * i
		if i%7 == 3 {
			off -= 75
		}
		l = append(l, seg(off, 1+(i*5)%11+i%2))
	}
	return l
}

func TestStreamMapEquivalence(t *testing.T) {
	flash := func(elems, guard, vars int) ioseg.List {
		return patterns.MemList(&patterns.Flash{NumRanks: 1, Blocks: 2, Elems: elems, Guard: guard, Vars: vars}, 0)
	}
	almost := block(nil, 0, 8, 4, 24, 3, 200)   // three equal rows…
	almost = block(almost, 600, 8, 3, 24, 1, 0) // …a short one…
	almost = block(almost, 800, 8, 4, 24, 2, 200)
	almost = block(almost, 1250, 8, 4, 24, 1, 0) // …one off the row stride…
	almost = block(almost, 1500, 8, 4, 32, 1, 0) // …and one with another element stride
	cases := []struct {
		name string
		l    ioseg.List
	}{
		{"empty", nil},
		{"only empty regions", ioseg.List{seg(3, 0), seg(900, 0)}},
		{"single region", ioseg.List{seg(100, 333)}},
		{"dense neighbours", block(nil, 64, 8, 40, 8, 1, 0)},
		{"mixed lengths", ioseg.List{seg(10, 5), seg(0, 3), seg(40, 1), seg(20, 7), seg(50, 7), seg(60, 7), seg(100, 2)}},
		{"empty regions between elements", ioseg.List{seg(0, 8), seg(5, 0), seg(16, 8), seg(32, 8), seg(0, 0), seg(48, 8)}},
		{"descending offsets", block(nil, 900, 8, 20, -40, 1, 0)},
		{"descending rows", block(nil, 1800, 4, 5, 12, 6, -100)},
		{"zero stride", block(nil, 128, 8, 6, 0, 1, 0)},
		{"zero row stride", block(nil, 128, 8, 3, 16, 4, 0)},
		{"elem 4", block(nil, 4, 4, 7, 12, 5, 120)},
		{"elem 8", block(nil, 8, 8, 7, 24, 5, 240)},
		{"elem 16", block(nil, 16, 16, 7, 48, 5, 400)},
		{"elem 7", block(nil, 1, 7, 7, 11, 5, 100)},
		{"elem 1", block(nil, 0, 1, 30, 3, 3, 100)},
		{"rows that almost repeat", almost},
		{"lone region before a block", block(ioseg.List{seg(0, 8)}, 40, 8, 8, 24, 4, 300)},
		{"no common shape", shapeless(3*maxListed + 5)},
		{"listed between strided", append(block(shapeless(maxListed+3), 9000, 8, 6, 24, 2, 200), shapeless(7)...)},
		{"equal lengths an empty region apart", ioseg.List{seg(0, 5), seg(9, 0), seg(20, 5), seg(0, 0), seg(40, 5), seg(60, 5), seg(2, 0), seg(80, 5)}},
		{"pairs and triples in step", append(block(block(nil, 0, 6, 2, 10, 1, 0), 40, 3, 3, 5, 1, 0), seg(70, 6), seg(90, 6))},
		{"flash 8/1/24", flash(8, 1, 24)},
		{"flash 3/1/5", flash(3, 1, 5)},
		{"flash 5/2/7", flash(5, 2, 7)},
		{"flash 1/0/1", flash(1, 0, 1)},
	}
	rng := rand.New(rand.NewSource(17))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			span, _ := c.l.Span()
			end, total := span.End(), c.l.TotalLength()
			// Every element boundary region, then random cuts: most land
			// mid-element.
			checkEquivalence(t, int(end), c.l, nil)
			for round := 0; round < 20; round++ {
				cuts := make([]int64, 1+rng.Intn(12))
				for i := range cuts {
					cuts[i] = rng.Int63n(total + 1)
				}
				checkEquivalence(t, int(end)+rng.Intn(3), c.l, cuts)
			}
			// An arena one byte short of the highest region must fail.
			if end > 0 {
				checkEquivalence(t, int(end)-1, c.l, []int64{total / 2})
			}
		})
	}
}

// Compression is what makes the map cheap; pin the shapes the client
// relies on.
func TestStreamMapRuns(t *testing.T) {
	pat := &patterns.Flash{NumRanks: 2, Blocks: 3, Elems: 8, Guard: 1, Vars: 24}
	mem := patterns.MemList(pat, 1)
	if got, want := len(NewStreamMap(mem).runs), pat.Vars*pat.Blocks*pat.Elems; got != want {
		t.Fatalf("FLASH list of %d regions built %d runs, want %d (one per variable, block and plane)", len(mem), got, want)
	}
	if m := NewStreamMap(ioseg.List{seg(0, 1<<20)}); len(m.runs) != 1 {
		t.Fatalf("one region built %d runs", len(m.runs))
	}
	if m := NewStreamMap(block(nil, 0, 4096, 1024, 8192, 1, 0)); len(m.runs) != 1 || len(m.lits) != 0 {
		t.Fatalf("constant-stride list built %d runs, %d listed regions", len(m.runs), len(m.lits))
	}
	// Regions with no common shape are listed, maxListed to a run; a
	// chance pair of equal lengths does not earn a strided run, four
	// regions in step do.
	irregular := ioseg.List{seg(0, 1), seg(10, 2), seg(30, 3), seg(70, 3), seg(150, 5)}
	if m := NewStreamMap(irregular); len(m.runs) != 1 || !slices.Equal(m.lits, irregular) {
		t.Fatalf("irregular list built %d runs listing %v", len(m.runs), m.lits)
	}
	var long ioseg.List
	for i := int64(0); i < 3*maxListed+1; i++ {
		long = append(long, seg(i*i, 1+i%5))
	}
	if m := NewStreamMap(long); len(m.runs) != 4 || !slices.Equal(m.lits, long) {
		t.Fatalf("%d shapeless regions built %d runs listing %d", len(long), len(m.runs), len(m.lits))
	}
	mixed := block(ioseg.List{seg(0, 3)}, 8, 8, minStrided, 16, 1, 0)
	mixed = append(mixed, seg(100, 5), seg(110, 5), seg(130, 5))
	if m := NewStreamMap(mixed); len(m.runs) != 3 || len(m.lits) != 4 {
		t.Fatalf("lone region, strided row, three in step: %d runs, %d listed regions", len(m.runs), len(m.lits))
	}
	var sink *StreamMap
	if n := testing.AllocsPerRun(100, func() { sink = NewStreamMap(nil) }); n != 0 {
		t.Fatalf("the empty map costs %v allocations", n)
	}
	if sink.Total() != 0 || sink.Err() != nil {
		t.Fatalf("empty map: total %d, err %v", sink.Total(), sink.Err())
	}
	if got, err := sink.AppendOut(nil, nil, 0, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty window of the empty map: %v, %v", got, err)
	}
	if got, err := sink.AppendPieces(nil, nil, 0, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty window of the empty map, as pieces: %v, %v", got, err)
	}
}

// Only the bytes a window moves are held to the arena's bounds, as with
// the flat list: an element the window cuts may run past a short arena.
func TestStreamMapBoundsTouchedBytes(t *testing.T) {
	for name, l := range map[string]ioseg.List{
		"listed":           {seg(0, 8), seg(16, 8)},
		"strided":          block(nil, 0, 8, 4, 16, 1, 0),
		"strided rows":     block(nil, 0, 8, 2, 16, 3, 40),
		"descending":       block(nil, 48, 8, 4, -16, 1, 0),
		"overlapping elem": block(nil, 0, 8, 5, 2, 1, 0),
	} {
		m := NewStreamMap(l)
		if m.Err() != nil {
			t.Fatal(name, m.Err())
		}
		full := make([]byte, m.End())
		want, err := Gather(full, l)
		if err != nil {
			t.Fatal(name, err)
		}
		// For every window, the smallest arena the reference needs is the
		// smallest the map needs.
		for pos := int64(0); pos < m.Total(); pos++ {
			for n := int64(1); pos+n <= m.Total(); n++ {
				var need int64
				for i, p := int64(0), int64(0); i < int64(len(l)); p, i = p+l[i].Length, i+1 {
					lo, hi := max(pos, p), min(pos+n, p+l[i].Length)
					if lo < hi {
						need = max(need, l[i].Offset+hi-p)
					}
				}
				got, err := m.AppendOut(nil, full[:need], pos, n)
				if err != nil || !bytes.Equal(got, want[pos:pos+n]) {
					t.Fatalf("%s: window [%d,+%d) in an arena of %d: %v, %v", name, pos, n, need, got, err)
				}
				if err := m.CopyIn(full[:need], pos, got); err != nil {
					t.Fatalf("%s: CopyIn [%d,+%d) in an arena of %d: %v", name, pos, n, need, err)
				}
				pieces, err := m.AppendPieces(nil, full[:need], pos, n)
				if joined, ok := joinPieces(pieces, nil); err != nil || !ok || !bytes.Equal(joined, want[pos:pos+n]) {
					t.Fatalf("%s: pieces of [%d,+%d) in an arena of %d: %v, %v", name, pos, n, need, pieces, err)
				}
				if _, err := m.AppendPieces(nil, full[:need-1], pos, n); err == nil {
					t.Fatalf("%s: pieces of [%d,+%d) in an arena of %d succeeded", name, pos, n, need-1)
				}
				if _, err := m.AppendOut(nil, full[:need-1], pos, n); err == nil {
					t.Fatalf("%s: window [%d,+%d) in an arena of %d succeeded", name, pos, n, need-1)
				}
				if err := m.CopyIn(full[:need-1], pos, got); err == nil {
					t.Fatalf("%s: CopyIn [%d,+%d) in an arena of %d succeeded", name, pos, n, need-1)
				}
			}
		}
	}
}

// AppendPieces aliases the arena, copies nothing, and its piece count
// is what tells a writer whether a vector pays: one piece wherever the
// range is one arena extent, one per element where the memory is
// strided.
func TestStreamMapPieces(t *testing.T) {
	arena := make([]byte, 1<<16)
	for i := range arena {
		arena[i] = byte(i * 11)
	}
	for _, c := range []struct {
		name   string
		l      ioseg.List
		pos, n int64
		want   []ioseg.Segment // arena extents, in order
	}{
		{"inside one region", ioseg.List{seg(100, 4096)}, 10, 1000, []ioseg.Segment{seg(110, 1000)}},
		{"regions one to one with the ranges asked for", ioseg.List{seg(0, 512), seg(8192, 512), seg(4096, 512)}, 512, 512,
			[]ioseg.Segment{seg(8192, 512)}},
		{"abutting listed regions join", ioseg.List{seg(0, 100), seg(100, 50), seg(400, 7)}, 20, 137,
			[]ioseg.Segment{seg(20, 130), seg(400, 7)}},
		{"a dense row, cut mid-element at both ends", block(nil, 64, 8, 16, 8, 1, 0), 3, 100, []ioseg.Segment{seg(67, 100)}},
		{"abutting dense rows join", block(nil, 0, 8, 4, 8, 4, 32), 8, 100, []ioseg.Segment{seg(8, 100)}},
		{"gapped dense rows", block(nil, 0, 8, 4, 8, 3, 64), 16, 64,
			[]ioseg.Segment{seg(16, 16), seg(64, 32), seg(128, 16)}},
		{"8-byte elements shatter", block(nil, 0, 8, 6, 24, 1, 0), 4, 24,
			[]ioseg.Segment{seg(4, 4), seg(24, 8), seg(48, 8), seg(72, 4)}},
		{"descending elements never join", block(nil, 64, 8, 4, -8, 1, 0), 0, 32,
			[]ioseg.Segment{seg(64, 8), seg(56, 8), seg(48, 8), seg(40, 8)}},
		{"into the next run", append(block(nil, 0, 16, 4, 32, 1, 0), seg(1000, 5), seg(2000, 9)), 56, 20,
			[]ioseg.Segment{seg(104, 8), seg(1000, 5), seg(2000, 7)}},
	} {
		m := NewStreamMap(c.l)
		held := make([][]byte, 1, 8)
		got, err := m.AppendPieces(held, arena, c.pos, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = got[1:]
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d pieces, want %d", c.name, len(got), len(c.want))
		}
		for i, w := range c.want {
			if int64(len(got[i])) != w.Length || &got[i][0] != &arena[w.Offset] {
				t.Errorf("%s: piece %d is %d bytes and does not alias arena[%d:+%d]", c.name, i, len(got[i]), w.Offset, w.Length)
			}
		}
	}
}

// Builds share pooled scratch; concurrent ones must not see each
// other's runs, and a map must not alias scratch a later build reuses.
func TestStreamMapConcurrentBuilds(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := block(shapeless(70+g), 4000, 8, 5+int64(g), 24, 3, 400)
			span, _ := l.Span()
			arena := make([]byte, span.End())
			for i := range arena {
				arena[i] = byte(i * (g + 3))
			}
			want, err := Gather(arena, l)
			if err != nil {
				t.Error(err)
				return
			}
			var maps []*StreamMap
			for i := 0; i < 50; i++ {
				maps = append(maps, NewStreamMap(l))
			}
			for _, m := range maps {
				if got, err := m.AppendOut(nil, arena, 0, m.Total()); err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: map built beside others gathers wrongly (%v)", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Invalid lists are reported with the reference check's text, region
// index included; lengths that only overflow in sum are caught too.
func TestStreamMapInvalidLists(t *testing.T) {
	const huge = math.MaxInt64/2 + 1
	for _, l := range []ioseg.List{
		{seg(0, 8), seg(-8, 8)},
		{seg(0, 8), seg(8, 8), seg(16, -1)},
		{seg(0, 8), seg(math.MaxInt64, 8)},
		{seg(0, 8), seg(8, 8), seg(math.MinInt64, 8)},
		{seg(0, huge), seg(0, huge)},                                         // sums to 2^63: wraps negative
		{seg(0, huge), seg(0, huge), seg(0, huge), seg(0, huge), seg(0, 16)}, // wraps to 16
		{seg(0, 1<<62), seg(1<<62, 1<<62), seg(math.MinInt64, 1<<62)},        // the third offset continues the stride
	} {
		checkEquivalence(t, 64, l, nil)
	}
}

// fuzzInput reads a fuzzer's bytes in order, zero once they run out.
type fuzzInput []byte

func (in *fuzzInput) next() int64 {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int64(b)
}

// list decodes up to five blocks of strided regions, for an arena of
// arenaLen bytes: some outside it, some invalid, some with their
// regularity spoiled.
func (in *fuzzInput) list(arenaLen int64) ioseg.List {
	lengths := []int64{0, 1, 3, 4, 7, 8, 16, 17, 64, -1}
	var l ioseg.List
	for blocks := in.next() % 6; blocks > 0; blocks-- {
		off := in.next()<<8 | in.next() // up to 64 KiB: often outside the arena
		if off > 60000 {
			off -= 65536 // sometimes negative
		}
		n := lengths[in.next()%int64(len(lengths))]
		count, stride := in.next()%10, int64(int8(in.next()))
		shape, rowStride := in.next(), int64(int8(in.next()))*8
		first := len(l)
		l = block(l, off%(arenaLen+64), n, count, stride, 1+shape%4, rowStride)
		if shape >= 128 { // spoil the block's regularity
			for k := first; k < len(l); k++ {
				l[k].Length += int64(k % 3)
			}
		}
	}
	return l
}

// FuzzStreamMap decodes the input into blocks of strided regions (some
// outside the arena, some invalid) followed by stream cuts, and holds
// the map to the reference.
func FuzzStreamMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 10, 8, 8, 24, 4, 100, 0, 77, 3})                                                      // an 8×4 block of 8-byte elements
	f.Add([]byte{2, 0, 200, 4, 5, 250, 1, 0, 0, 0, 7, 3, 3, 0, 1})                                           // descending 4-byte elements, then 7-byte ones
	f.Add([]byte{1, 3, 0, 16, 6, 0, 3, 0, 9, 200})                                                           // zero strides
	f.Add([]byte{1, 255, 255, 8, 2, 8, 1, 0})                                                                // past the arena
	f.Add([]byte{3, 0, 0, 4, 9, 30, 131, 33, 4, 0, 4, 9, 30, 131, 33, 7, 0, 6, 9, 20, 131, 30, 0, 99, 5, 5}) // 108 regions no run folds
	f.Fuzz(func(t *testing.T, data []byte) {
		const arenaLen = 2048
		in := fuzzInput(data)
		l := in.list(arenaLen)
		cuts := make([]int64, 0, len(in))
		for len(in) > 0 {
			cuts = append(cuts, in.next()<<4|in.next()&15)
		}
		checkEquivalence(t, arenaLen, l, cuts)
	})
}

// checkPieceEquivalence holds GatherPieces and ScatterPieces of pieces
// over l to the per-piece loop they replace: AppendOut and CopyIn, one
// piece at a time, in order, each range checked first. Gathered bytes
// and errors must be the loop's. So must every arena byte one piece
// byte maps to; a byte several map to may hold any of their values,
// since the order pieces move in is the map's.
func checkPieceEquivalence(t *testing.T, arenaLen int, l ioseg.List, pieces []Piece) {
	t.Helper()
	arena := make([]byte, arenaLen)
	for i := range arena {
		arena[i] = byte(i*7 + i>>8)
	}
	m := NewStreamMap(l)

	// The per-piece loop, for both directions; it stops at the first
	// error, and bodies hold only the pieces before it.
	var want []byte
	var wantErr error
	for _, p := range pieces {
		if want, wantErr = m.AppendOut(want, arena, p.Pos, p.Len); wantErr != nil {
			break
		}
	}
	prefix := []byte("hdr")
	got, err := m.GatherPieces(prefix[:3:3], arena, pieces)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() || !bytes.Equal(got, prefix) {
			t.Fatalf("GatherPieces = %d bytes, %v; the loop fails with %v (pieces %v, list %v)", len(got), err, wantErr, pieces, l)
		}
	} else if err != nil || !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
		t.Fatalf("GatherPieces = %v, %v; want %v (pieces %v, list %v)", got, err, want, pieces, l)
	}

	var n int64
	for _, p := range pieces {
		n += max(p.Len, 0)
	}
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i*13 + 5)
	}
	wantImage := bytes.Clone(arena)
	wantErr = nil
	var rpos int64
	for _, p := range pieces {
		if wantErr = m.checkRange(p.Pos, p.Len); wantErr != nil {
			break
		}
		if wantErr = m.CopyIn(wantImage, p.Pos, body[rpos:rpos+p.Len]); wantErr != nil {
			break
		}
		rpos += p.Len
	}
	image := bytes.Clone(arena)
	err = m.ScatterPieces(image, body, pieces)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("ScatterPieces = %v; the loop fails with %v (pieces %v, list %v)", err, wantErr, pieces, l)
		}
		return
	}
	if err != nil {
		t.Fatalf("ScatterPieces: %v (pieces %v, list %v)", err, pieces, l)
	}
	// Which body bytes each arena byte is written from.
	at := make([]int64, 0, m.Total()) // arena offset of each stream byte
	for _, s := range l {
		for i := int64(0); i < s.Length; i++ {
			at = append(at, s.Offset+i)
		}
	}
	from := make(map[int64][]byte)
	rpos = 0
	for _, p := range pieces {
		for i := int64(0); i < p.Len; i++ {
			a := at[p.Pos+i]
			from[a] = append(from[a], body[rpos+i])
		}
		rpos += p.Len
	}
	for a := range image {
		switch vals := from[int64(a)]; {
		case len(vals) == 0 && image[a] != arena[a]:
			t.Fatalf("ScatterPieces wrote arena byte %d, which no piece maps to (pieces %v, list %v)", a, pieces, l)
		case len(vals) == 1 && image[a] != wantImage[a]:
			t.Fatalf("ScatterPieces left arena byte %d = %d, the loop %d (pieces %v, list %v)", a, image[a], wantImage[a], pieces, l)
		case len(vals) > 1 && bytes.IndexByte(vals, image[a]) < 0:
			t.Fatalf("ScatterPieces left arena byte %d = %d, none of the pieces' %v (pieces %v, list %v)", a, image[a], vals, pieces, l)
		}
	}
}

// The pieces calls move what the per-piece loop moves, over bodies whose
// pieces exceed blockBytes so that every piece is resumed: cursors stop
// inside elements, rows, runs and listed regions and start again there.
func TestStreamMapPiecesEquivalence(t *testing.T) {
	flash := patterns.MemList(&patterns.Flash{NumRanks: 1, Blocks: 2, Elems: 8, Guard: 1, Vars: 24}, 0)
	lists := []struct {
		name string
		l    ioseg.List
	}{
		{"flash", flash},
		{"elem 8 descending", block(nil, 40000, 8, 100, -16, 8, -1700)},
		{"elem 8 zero stride", block(nil, 64, 8, 400, 0, 4, 24)},
		{"elem 8 sub-element stride", block(nil, 0, 8, 300, 3, 6, 1000)},
		{"elem 4", block(nil, 0, 4, 500, 12, 3, 6000)},
		{"elem 16", block(nil, 0, 16, 200, 40, 3, 8000)},
		{"elem 12", block(nil, 0, 12, 300, 20, 3, 6000)},
		{"dense rows", block(nil, 0, 8, 200, 8, 4, 2000)},
		{"listed", shapeless(2000)},
		{"listed between strided", append(block(shapeless(300), 20000, 8, 60, 24, 4, 1500), shapeless(200)...)},
	}
	for _, c := range lists {
		t.Run(c.name, func(t *testing.T) {
			span, _ := c.l.Span()
			total := c.l.TotalLength()
			q := total / 24
			// A datatype window: every q-byte variable's share, in order.
			var window []Piece
			for v := int64(0); v < 24; v++ {
				window = append(window, Piece{v*q + q/4, q / 2})
			}
			reversed := slices.Clone(window)
			slices.Reverse(reversed)
			rng := rand.New(rand.NewSource(total))
			shuffled := slices.Clone(window)
			rng.Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })
			var mixed []Piece // unequal lengths, empty pieces, cuts inside elements
			for pos := int64(0); pos < total; {
				n := min(rng.Int63n(3*blockBytes), total-pos)
				if rng.Intn(5) == 0 {
					n = 0
				}
				mixed = append(mixed, Piece{pos + 1, max(0, min(n, total-pos-1))})
				pos += n + 3
			}
			many := make([]Piece, 0, 3*maxCursors) // more pieces than cursors
			for i := int64(0); i < 3*maxCursors; i++ {
				many = append(many, Piece{(i * 997) % (total - 40), 37})
			}
			var ends []Piece // a first slice that ends where a run does
			for _, r := range NewStreamMap(c.l).runs {
				if r.pos >= blockBytes && len(ends) < 2*maxCursors {
					ends = append(ends, Piece{r.pos - blockBytes, blockBytes + 1})
				}
			}
			for _, pieces := range [][]Piece{
				nil, {{0, total}}, window, reversed, shuffled, mixed, many, ends,
				{{q, 2 * q}, {q + 5, q}}, // overlapping in the stream
				{{total, 0}, {0, 0}},
			} {
				checkPieceEquivalence(t, int(span.End()), c.l, pieces)
			}
			// Out of range: past the stream, negative, or in an arena too
			// short for a later piece.
			checkPieceEquivalence(t, int(span.End()), c.l, append(slices.Clone(window), Piece{total - 1, 2}))
			checkPieceEquivalence(t, int(span.End()), c.l, append(slices.Clone(window[:3]), Piece{-1, 1}, Piece{0, -1}))
			checkPieceEquivalence(t, int(span.End())/2, c.l, window)
			checkPieceEquivalence(t, int(span.End())/2, c.l, reversed)
		})
	}
}

// The error is the one the per-piece loop meets first, though the
// pieces move in another order: here the first piece leaves the arena
// only in its second slice, while later ones leave it, or the stream, at
// once.
func TestStreamMapPiecesFirstError(t *testing.T) {
	l := ioseg.List{seg(0, 8*blockBytes)}
	long := Piece{0, 3 * blockBytes}
	for _, pieces := range [][]Piece{
		{long, {6 * blockBytes, 8}},
		{long, {8 * blockBytes, 1}},
		{long, {0, -1}},
		{{blockBytes, 8}, {6 * blockBytes, 8}, {5 * blockBytes, 8}},
	} {
		checkPieceEquivalence(t, 5*blockBytes/2, l, pieces)
	}
}

// ScatterPieces takes a body of exactly the pieces' bytes.
func TestStreamMapPiecesBody(t *testing.T) {
	m := NewStreamMap(block(nil, 0, 8, 16, 24, 1, 0))
	arena := make([]byte, 400)
	pieces := []Piece{{0, 40}, {64, 50}}
	for _, n := range []int{0, 89, 91} {
		if err := m.ScatterPieces(arena, make([]byte, n), pieces); err == nil {
			t.Errorf("a body of %d bytes for 90 bytes of pieces was accepted", n)
		}
	}
	if err := m.ScatterPieces(arena, make([]byte, 90), pieces); err != nil {
		t.Fatal(err)
	}
	if err := m.ScatterPieces(arena, nil, nil); err != nil {
		t.Fatal(err)
	}
	var sink []byte
	if n := testing.AllocsPerRun(100, func() {
		sink, _ = m.GatherPieces(sink[:0], arena, pieces)
		m.CopyIn(arena, 8, sink[:50])
	}); n != 0 {
		t.Fatalf("gathering into a body with room, and a CopyIn, cost %v allocations", n)
	}
}

// FuzzStreamMapPieces decodes blocks of regions as FuzzStreamMap does,
// in a larger arena, then pieces: most inside the stream, in any order
// and of any length up to twice blockBytes, some outside it.
func FuzzStreamMapPieces(f *testing.F) {
	f.Add([]byte{1, 0, 10, 8, 8, 24, 4, 100, 0, 0, 3, 1, 0, 1, 1, 0, 7, 0, 200, 2, 2, 0, 2})
	f.Add([]byte{2, 0, 200, 4, 9, 250, 3, 0, 40, 0, 7, 9, 3, 3, 8, 1, 0, 2, 9, 4, 0, 0, 255, 255, 8})
	f.Add([]byte{1, 3, 0, 16, 6, 0, 3, 0, 9, 200, 0, 0, 0, 4, 1, 0, 0, 0})
	f.Add([]byte{1, 255, 255, 8, 9, 8, 3, 0, 5, 5, 5, 5, 8})
	f.Add([]byte{3, 0, 0, 4, 9, 30, 131, 33, 4, 0, 4, 9, 30, 131, 33, 7, 0, 6, 9, 20, 131, 30, 0, 99, 5, 5, 1, 3, 200, 9, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const arenaLen = 16 << 10
		in := fuzzInput(data)
		l := in.list(arenaLen)
		total, _ := l.TotalLengthChecked()
		var pieces []Piece
		for len(in) > 0 && len(pieces) < 2*maxCursors {
			pos, n := in.next()<<8|in.next(), in.next()<<4|in.next()&15
			switch how := in.next(); {
			case how%8 != 0 && total > 0 && l.Validate() == nil:
				pos %= total + 1
				n %= min(total-pos, 2*blockBytes) + 1
			case how%16 == 8:
				pos, n = -pos, -n
			}
			pieces = append(pieces, Piece{pos, n})
		}
		checkPieceEquivalence(t, arenaLen, l, pieces)
	})
}
