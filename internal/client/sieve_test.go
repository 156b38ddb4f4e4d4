package client_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pvfs/internal/client"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
)

func seg(off, n int64) ioseg.Segment { return ioseg.Segment{Offset: off, Length: n} }

func TestSieveWindowsSingleWindow(t *testing.T) {
	file := ioseg.List{seg(100, 10), seg(200, 10), seg(300, 10)}
	w := client.SieveWindows(file, 1<<20)
	if len(w) != 1 || w[0] != seg(100, 210) {
		t.Fatalf("windows = %v", w)
	}
}

func TestSieveWindowsSplitsAtBuffer(t *testing.T) {
	file := ioseg.List{seg(0, 50), seg(60, 50)}
	w := client.SieveWindows(file, 64)
	// First window covers [0, 64) (cuts the second region), second
	// covers the remainder [64, 110).
	if len(w) != 2 {
		t.Fatalf("windows = %v", w)
	}
	if w[0] != seg(0, 64) || w[1] != seg(64, 46) {
		t.Fatalf("windows = %v", w)
	}
}

func TestSieveWindowsSkipEmptyRuns(t *testing.T) {
	// Two distant clusters: no window may cover the dead middle.
	file := ioseg.List{seg(0, 10), seg(5, 10), seg(1<<30, 10)}
	w := client.SieveWindows(file, 1024)
	if len(w) != 2 {
		t.Fatalf("windows = %v", w)
	}
	if w[0] != seg(0, 15) {
		t.Fatalf("first window = %v", w[0])
	}
	if w[1] != seg(1<<30, 10) {
		t.Fatalf("second window = %v", w[1])
	}
}

func TestSieveWindowsEmpty(t *testing.T) {
	if w := client.SieveWindows(nil, 1024); len(w) != 0 {
		t.Fatalf("windows of nothing = %v", w)
	}
}

// Property: windows are sorted, non-overlapping, each at most bufSize,
// and every region byte is covered by exactly one window.
func TestSieveWindowsProperty(t *testing.T) {
	f := func(seed int64, bufRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		buf := int64(bufRaw%2000) + 16
		var file ioseg.List
		pos := int64(r.Intn(100))
		for i := 0; i < 30; i++ {
			n := int64(1 + r.Intn(300))
			file = append(file, seg(pos, n))
			pos += n + int64(r.Intn(3000))
		}
		windows := client.SieveWindows(file, buf)
		var prevEnd int64 = -1
		var covered int64
		for _, w := range windows {
			if w.Length <= 0 || w.Length > buf {
				return false
			}
			if w.Offset < prevEnd {
				return false
			}
			prevEnd = w.End()
			covered += file.Clip(w).TotalLength()
		}
		return covered == file.TotalLength()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sieveWant is what one sieving transfer costs: its data movement and
// its requests in all, on the sieve path and on the list path.
type sieveWant struct {
	st                client.SieveStats
	reqs, sieve, list int64
}

// runSieve pre-fills a fresh file with random bytes, runs req over it
// and checks its cost and the bytes it moved: a read returns the file's
// region bytes in stream order, a write changes nothing outside its
// regions.
func runSieve(t *testing.T, fs *client.FS, name string, req client.Request, want sieveWant) {
	t.Helper()
	f, err := fs.Create(name, striping.Config{PCount: 4, StripeSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	span, _ := req.File.Span()
	image := make([]byte, span.End()+512)
	rand.New(rand.NewSource(1)).Read(image)
	if _, err := f.WriteAt(image, 0); err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(2)).Read(req.Arena)
	mem := req.Mem
	if mem == nil {
		mem = ioseg.List{{Offset: 0, Length: req.File.TotalLength()}}
	}
	stream := func() []byte { // the arena's transfer bytes in stream order
		var out []byte
		for _, m := range mem {
			out = append(out, req.Arena[m.Offset:m.End()]...)
		}
		return out
	}
	written, s := append([]byte(nil), image...), stream()
	for _, r := range req.File {
		copy(written[r.Offset:r.End()], s[:r.Length])
		s = s[r.Length:]
	}

	before := fs.Counters().Snapshot()
	res, err := f.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	d := fs.Counters().Snapshot().Sub(before)
	if got := (sieveWant{res.Sieve, d.Requests, d.Sieve.Requests, d.List.Requests}); got != want {
		t.Errorf("cost %+v, want %+v", got, want)
	}

	if req.Write {
		got := make([]byte, len(image))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, written) {
			t.Fatal("the file is not its old contents with the regions written over them")
		}
		return
	}
	got := stream()
	for _, r := range req.File {
		if !bytes.Equal(got[:r.Length], image[r.Offset:r.End()]) {
			t.Fatalf("region %v read back wrong bytes", r)
		}
		got = got[r.Length:]
	}
}

// Sieve and hybrid over the cyclic, random and FLASH layouts, both
// directions: data movement and request counts are pinned to what the
// two methods cost when each had its own datapath.
func TestSieveAndHybridCost(t *testing.T) {
	_, fs := startCluster(t, 4)
	cyc, err := patterns.NewCyclic1D(3, 40, 3*40*384) // 384 B blocks, 768 B gaps
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := patterns.NewRandom(3, 77, patterns.RandomOptions{
		RegionsPerRank: 100, MinSize: 1, MaxSize: 900, MaxGap: 700,
	})
	if err != nil {
		t.Fatal(err)
	}
	flash := &patterns.Flash{NumRanks: 2, Blocks: 2, Elems: 4, Guard: 1, Vars: 24}
	layouts := []struct {
		name string
		pat  patterns.Pattern
	}{{"cyclic", cyc}, {"random", rnd}, {"flash", flash}}
	methods := []struct {
		name string
		req  client.Request
	}{
		{"sieve", client.Request{Method: client.AccessSieve, Sieve: client.SieveOptions{BufferSize: 8 << 10}}},
		{"hybrid", client.Request{Method: client.AccessHybrid, CoalesceGap: 1024}},
	}
	// Recorded when sieve and hybrid had a datapath each.
	want := map[string]sieveWant{
		"cyclic/sieve/write=false":  {client.SieveStats{Windows: 6, BytesAccessed: 44544, BytesUseful: 15360}, 24, 24, 0},
		"cyclic/sieve/write=true":   {client.SieveStats{Windows: 6, BytesAccessed: 89088, BytesUseful: 15360}, 48, 48, 0},
		"cyclic/hybrid/write=false": {client.SieveStats{Windows: 1, BytesAccessed: 45312, BytesUseful: 15360}, 4, 0, 4},
		"cyclic/hybrid/write=true":  {client.SieveStats{Windows: 1, BytesAccessed: 90624, BytesUseful: 15360}, 8, 0, 8},
		"random/sieve/write=false":  {client.SieveStats{Windows: 24, BytesAccessed: 159434, BytesUseful: 41433}, 96, 96, 0},
		"random/sieve/write=true":   {client.SieveStats{Windows: 24, BytesAccessed: 318868, BytesUseful: 41433}, 192, 192, 0},
		"random/hybrid/write=false": {client.SieveStats{Windows: 53, BytesAccessed: 61879, BytesUseful: 41433}, 4, 0, 4},
		"random/hybrid/write=true":  {client.SieveStats{Windows: 53, BytesAccessed: 123758, BytesUseful: 41433}, 8, 0, 8},
		"flash/sieve/write=false":   {client.SieveStats{Windows: 6, BytesAccessed: 46080, BytesUseful: 24576}, 24, 24, 0},
		"flash/sieve/write=true":    {client.SieveStats{Windows: 6, BytesAccessed: 92160, BytesUseful: 24576}, 48, 48, 0},
		"flash/hybrid/write=false":  {client.SieveStats{Windows: 1, BytesAccessed: 48640, BytesUseful: 24576}, 4, 0, 4},
		"flash/hybrid/write=true":   {client.SieveStats{Windows: 1, BytesAccessed: 97280, BytesUseful: 24576}, 8, 0, 8},
	}
	for _, l := range layouts {
		for _, m := range methods {
			for _, write := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/write=%v", l.name, m.name, write)
				t.Run(name, func(t *testing.T) {
					req := m.req
					req.Write = write
					req.Arena = make([]byte, patterns.ArenaSize(l.pat, 1))
					req.Mem, req.File = patterns.MemList(l.pat, 1), patterns.FileList(l.pat, 1)
					runSieve(t, fs, strings.ReplaceAll(name, "/", "-"), req, want[name])
				})
			}
		}
	}
}

// A sieve write reads back only the windows its regions leave holes in:
// the first window here is two abutting regions, the second has a gap.
func TestSieveWriteSkipsCoveredWindow(t *testing.T) {
	_, fs := startCluster(t, 4)
	file := ioseg.List{{Offset: 0, Length: 150}, {Offset: 150, Length: 50}, {Offset: 300, Length: 20}, {Offset: 400, Length: 20}}
	req := client.Request{
		Write: true, Arena: make([]byte, file.TotalLength()), File: file,
		Method: client.AccessSieve, Sieve: client.SieveOptions{BufferSize: 200},
	}
	// Windows [0,200) and [300,420): the first is written only.
	runSieve(t, fs, "covered", req, sieveWant{
		st:   client.SieveStats{Windows: 2, BytesAccessed: 200 + 2*120, BytesUseful: 240},
		reqs: 3, sieve: 3,
	})
}
