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
		next := func() int64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int64(b)
		}
		lengths := []int64{0, 1, 3, 4, 7, 8, 16, 17, 64, -1}
		var l ioseg.List
		for blocks := next() % 6; blocks > 0; blocks-- {
			off := next()<<8 | next() // up to 64 KiB: often outside the arena
			if off > 60000 {
				off -= 65536 // sometimes negative
			}
			n := lengths[next()%int64(len(lengths))]
			count, stride := next()%10, int64(int8(next()))
			shape, rowStride := next(), int64(int8(next()))*8
			first := len(l)
			l = block(l, off%(arenaLen+64), n, count, stride, 1+shape%4, rowStride)
			if shape >= 128 { // spoil the block's regularity
				for k := first; k < len(l); k++ {
					l[k].Length += int64(k % 3)
				}
			}
		}
		cuts := make([]int64, 0, len(data))
		for len(data) > 0 {
			cuts = append(cuts, next()<<4|next()&15)
		}
		checkEquivalence(t, arenaLen, l, cuts)
	})
}
