package memio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"pvfs/internal/ioseg"
)

func seg(off, n int64) ioseg.Segment { return ioseg.Segment{Offset: off, Length: n} }

func TestMatchEqualLists(t *testing.T) {
	mem := ioseg.List{seg(0, 10), seg(20, 10)}
	file := ioseg.List{seg(100, 10), seg(200, 10)}
	pairs, err := Match(mem, file)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2", len(pairs))
	}
	if pairs[0].Mem != seg(0, 10) || pairs[0].File != seg(100, 10) {
		t.Fatalf("pair 0 = %+v", pairs[0])
	}
}

func TestMatchFinerMemory(t *testing.T) {
	// The FLASH situation: 8-byte memory pieces against one 4-KiB-style
	// file region → pieces at memory granularity.
	mem := ioseg.List{seg(0, 8), seg(16, 8), seg(32, 8), seg(48, 8)}
	file := ioseg.List{seg(1000, 32)}
	pairs, err := Match(mem, file)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("pairs = %d, want 4", len(pairs))
	}
	wantFileOff := []int64{1000, 1008, 1016, 1024}
	for i, p := range pairs {
		if p.File.Offset != wantFileOff[i] || p.File.Length != 8 {
			t.Errorf("pair %d file = %v", i, p.File)
		}
		if p.Mem.Length != p.File.Length {
			t.Errorf("pair %d lengths differ", i)
		}
	}
}

func TestMatchFinerFile(t *testing.T) {
	mem := ioseg.List{seg(0, 100)}
	file := ioseg.List{seg(0, 30), seg(50, 30), seg(100, 40)}
	pairs, err := Match(mem, file)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(pairs))
	}
	if pairs[1].Mem != seg(30, 30) {
		t.Fatalf("pair 1 mem = %v", pairs[1].Mem)
	}
}

func TestMatchMisaligned(t *testing.T) {
	mem := ioseg.List{seg(0, 7), seg(10, 13)}
	file := ioseg.List{seg(0, 5), seg(8, 15)}
	pairs, err := Match(mem, file)
	if err != nil {
		t.Fatal(err)
	}
	// Cuts at stream positions 5 (file), 7 (mem), 20 (both): pieces
	// [0,5) [5,7) [7,20).
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d, want 3: %+v", len(pairs), pairs)
	}
	var total int64
	for _, p := range pairs {
		if p.Mem.Length != p.File.Length {
			t.Fatalf("pair lengths differ: %+v", p)
		}
		total += p.Mem.Length
	}
	if total != 20 {
		t.Fatalf("total = %d, want 20", total)
	}
}

func TestMatchLengthMismatch(t *testing.T) {
	_, err := Match(ioseg.List{seg(0, 5)}, ioseg.List{seg(0, 6)})
	if err == nil {
		t.Fatal("mismatched totals accepted")
	}
}

func TestMatchEmptyRegions(t *testing.T) {
	mem := ioseg.List{seg(0, 0), seg(0, 10), seg(99, 0)}
	file := ioseg.List{seg(5, 10)}
	pairs, err := Match(mem, file)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].Mem != seg(0, 10) {
		t.Fatalf("pairs = %+v", pairs)
	}
}

// randomMatchedLists builds two random lists covering the same total.
func randomMatchedLists(r *rand.Rand) (mem, file ioseg.List) {
	total := int64(1 + r.Intn(2000))
	cut := func() ioseg.List {
		var l ioseg.List
		var pos, left int64 = 0, total
		for left > 0 {
			n := int64(1 + r.Intn(int(left)))
			l = append(l, seg(pos, n))
			pos += n + int64(r.Intn(20)) // random gaps
			left -= n
		}
		return l
	}
	return cut(), cut()
}

func TestGatherScatterRoundTrip(t *testing.T) {
	arena := make([]byte, 256)
	for i := range arena {
		arena[i] = byte(i)
	}
	mem := ioseg.List{seg(10, 5), seg(100, 20), seg(200, 3)}
	stream, err := Gather(arena, mem)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(stream)) != mem.TotalLength() {
		t.Fatalf("stream len = %d", len(stream))
	}
	if stream[0] != 10 || stream[5] != 100 {
		t.Fatalf("gather order wrong: % x", stream[:8])
	}
	dst := make([]byte, 256)
	if err := Scatter(dst, mem, stream); err != nil {
		t.Fatal(err)
	}
	for _, s := range mem {
		if !bytes.Equal(dst[s.Offset:s.End()], arena[s.Offset:s.End()]) {
			t.Fatalf("scatter mismatch in %v", s)
		}
	}
}

func TestGatherOutOfArena(t *testing.T) {
	if _, err := Gather(make([]byte, 10), ioseg.List{seg(5, 10)}); err == nil {
		t.Fatal("out-of-arena gather accepted")
	}
}

func TestScatterLengthCheck(t *testing.T) {
	err := Scatter(make([]byte, 10), ioseg.List{seg(0, 4)}, []byte{1, 2, 3})
	if err == nil {
		t.Fatal("short stream accepted")
	}
}

// Property: Gather then Scatter into a fresh arena reproduces exactly
// the listed regions and touches nothing else.
func TestGatherScatterProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		arena := make([]byte, 4096)
		r.Read(arena)
		var mem ioseg.List
		pos := int64(0)
		for pos < 4000 && len(mem) < 40 {
			n := int64(1 + r.Intn(50))
			if pos+n > 4096 {
				break
			}
			mem = append(mem, seg(pos, n))
			pos += n + int64(r.Intn(30))
		}
		stream, err := Gather(arena, mem)
		if err != nil {
			return false
		}
		dst := make([]byte, 4096)
		if err := Scatter(dst, mem, stream); err != nil {
			return false
		}
		for _, s := range mem {
			if !bytes.Equal(dst[s.Offset:s.End()], arena[s.Offset:s.End()]) {
				return false
			}
		}
		// Bytes outside regions must stay zero.
		covered := make([]bool, 4096)
		for _, s := range mem {
			for i := s.Offset; i < s.End(); i++ {
				covered[i] = true
			}
		}
		for i, b := range dst {
			if !covered[i] && b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Match pieces tile both lists exactly in stream order.
func TestMatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mem, file := randomMatchedLists(r)
		pairs, err := Match(mem, file)
		if err != nil {
			return false
		}
		var rebuiltMem, rebuiltFile ioseg.List
		for _, p := range pairs {
			if p.Mem.Length != p.File.Length || p.Mem.Length <= 0 {
				return false
			}
			rebuiltMem = append(rebuiltMem, p.Mem)
			rebuiltFile = append(rebuiltFile, p.File)
		}
		return rebuiltMem.Normalize().Equal(mem.Normalize()) &&
			rebuiltFile.Normalize().Equal(file.Normalize())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatchFlashLike(b *testing.B) {
	// 983,040-piece FLASH-style match: 8-byte memory against 4-KiB file
	// regions (scaled down 16x to keep the benchmark brisk).
	var mem, file ioseg.List
	const pieces = 61440
	for i := int64(0); i < pieces; i++ {
		mem = append(mem, seg(i*24, 8))
	}
	for i := int64(0); i < pieces/512; i++ {
		file = append(file, seg(i*8192, 4096))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Match(mem, file); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGather(b *testing.B) {
	arena := make([]byte, 1<<20)
	var mem ioseg.List
	for i := int64(0); i < 1024; i++ {
		mem = append(mem, seg(i*1024, 512))
	}
	b.SetBytes(mem.TotalLength())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Gather(arena, mem); err != nil {
			b.Fatal(err)
		}
	}
}

// --- StreamMap ---

// TestStreamMapMatchesScatter checks CopyIn against the reference
// Scatter implementation: scattering a stream in arbitrary chunks
// through a StreamMap must produce the same arena image.
func TestStreamMapMatchesScatter(t *testing.T) {
	mem := ioseg.List{seg(10, 5), seg(0, 3), seg(40, 1), seg(20, 7)}
	stream := make([]byte, mem.TotalLength())
	for i := range stream {
		stream[i] = byte(i + 1)
	}
	want := make([]byte, 64)
	if err := Scatter(want, mem, stream); err != nil {
		t.Fatal(err)
	}

	m := NewStreamMap(mem)
	if m.Total() != mem.TotalLength() {
		t.Fatalf("Total = %d, want %d", m.Total(), mem.TotalLength())
	}
	for _, chunk := range []int{1, 2, 5, 16} {
		got := make([]byte, 64)
		for pos := 0; pos < len(stream); pos += chunk {
			end := pos + chunk
			if end > len(stream) {
				end = len(stream)
			}
			if err := m.CopyIn(got, int64(pos), stream[pos:end]); err != nil {
				t.Fatalf("chunk %d at %d: %v", chunk, pos, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: CopyIn image differs from Scatter", chunk)
		}
	}
}

// TestStreamMapMatchesGather checks AppendOut against Gather: gathering
// the stream in arbitrary chunks must reproduce Gather's output.
func TestStreamMapMatchesGather(t *testing.T) {
	arena := make([]byte, 64)
	for i := range arena {
		arena[i] = byte(i * 7)
	}
	mem := ioseg.List{seg(32, 9), seg(1, 2), seg(50, 14)}
	want, err := Gather(arena, mem)
	if err != nil {
		t.Fatal(err)
	}
	m := NewStreamMap(mem)
	for _, chunk := range []int64{1, 3, 8, 25} {
		var got []byte
		for pos := int64(0); pos < m.Total(); pos += chunk {
			n := chunk
			if pos+n > m.Total() {
				n = m.Total() - pos
			}
			got, err = m.AppendOut(got, arena, pos, n)
			if err != nil {
				t.Fatalf("chunk %d at %d: %v", chunk, pos, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: AppendOut stream differs from Gather", chunk)
		}
	}
}

// TestStreamMapBounds rejects out-of-range stream and arena accesses.
func TestStreamMapBounds(t *testing.T) {
	mem := ioseg.List{seg(0, 4), seg(100, 4)}
	m := NewStreamMap(mem)
	arena := make([]byte, 8) // too small for the second region
	if err := m.CopyIn(arena, 6, []byte{1, 2}); err == nil {
		t.Fatal("CopyIn past the arena succeeded")
	}
	if err := m.CopyIn(arena, -1, []byte{1}); err == nil {
		t.Fatal("negative stream position accepted")
	}
	if err := m.CopyIn(arena, 7, []byte{1, 2}); err == nil {
		t.Fatal("stream overrun accepted")
	}
	if _, err := m.AppendOut(nil, arena, 5, 4); err == nil {
		t.Fatal("AppendOut past the arena succeeded")
	}
	if _, err := m.AppendOut(nil, arena, 0, 9); err == nil {
		t.Fatal("AppendOut stream overrun accepted")
	}
	// In-range operations on the small arena's region still work.
	if err := m.CopyIn(arena, 0, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendOut(nil, arena, 0, 4); err != nil {
		t.Fatal(err)
	}
}

// TestStreamMapEmptyRegions tolerates empty segments in the list.
func TestStreamMapEmptyRegions(t *testing.T) {
	mem := ioseg.List{seg(0, 2), seg(5, 0), seg(8, 2)}
	m := NewStreamMap(mem)
	arena := make([]byte, 16)
	if err := m.CopyIn(arena, 0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if arena[0] != 1 || arena[1] != 2 || arena[8] != 3 || arena[9] != 4 {
		t.Fatalf("arena = %v", arena[:10])
	}
	got, err := m.AppendOut(nil, arena, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{2, 3}) {
		t.Fatalf("AppendOut = %v", got)
	}
}
