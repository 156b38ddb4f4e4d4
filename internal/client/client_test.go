package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// startCluster brings up an in-process deployment and a connected FS.
func startCluster(t *testing.T, numIOD int) (*cluster.Cluster, *client.FS) {
	t.Helper()
	c, err := cluster.Start(cluster.Options{NumIOD: numIOD})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return c, fs
}

// run is f.Run under a background context, for callers that need only
// the error.
func run(f *client.File, req client.Request) error {
	_, err := f.Run(context.Background(), req)
	return err
}

func TestCreateOpenRemove(t *testing.T) {
	_, fs := startCluster(t, 4)
	f, err := fs.Create("a.dat", striping.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Striping().PCount != 4 || f.Striping().StripeSize != striping.DefaultStripeSize {
		t.Fatalf("striping defaults: %+v", f.Striping())
	}
	if _, err := fs.Create("a.dat", striping.Config{}); err == nil {
		t.Fatal("duplicate create accepted")
	}
	g, err := fs.Open("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	if g.Handle() != f.Handle() {
		t.Fatalf("handles differ: %d %d", g.Handle(), f.Handle())
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a.dat" {
		t.Fatalf("List = %v", names)
	}
	if err := fs.Remove("a.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("a.dat"); err == nil {
		t.Fatal("open after remove succeeded")
	}
}

func TestContigWriteReadAcrossStripes(t *testing.T) {
	_, fs := startCluster(t, 4)
	f, err := fs.Create("stripes.dat", striping.Config{PCount: 4, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Data spanning several stripe cycles with an unaligned offset.
	data := make([]byte, 128*4*3+77)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := f.WriteAt(data, 33); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 33); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back differs")
	}
	// Hole before offset 33 reads as zeros.
	head := make([]byte, 33)
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, make([]byte, 33)) {
		t.Fatal("hole not zero")
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(33 + len(data)); size != want {
		t.Fatalf("Size = %d, want %d", size, want)
	}
}

func TestSizePropagatesToManagerOnClose(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("sz.dat", striping.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 1000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh open sees the manager-recorded logical size.
	g, err := fs.Open("sz.dat")
	if err != nil {
		t.Fatal(err)
	}
	size, err := g.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 1005 {
		t.Fatalf("size = %d, want 1005", size)
	}
}

func TestTruncate(t *testing.T) {
	_, fs := startCluster(t, 3)
	f, err := fs.Create("t.dat", striping.Config{PCount: 3, StripeSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(550); err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 550 {
		t.Fatalf("size after truncate = %d, want 550", size)
	}
	// Bytes past the cut read as zeros; bytes before survive.
	got := make([]byte, 1000)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:550], data[:550]) {
		t.Fatal("data before truncation damaged")
	}
	if !bytes.Equal(got[550:], make([]byte, 450)) {
		t.Fatal("data after truncation not zeroed")
	}
}

// refFile is an in-memory reference the noncontiguous methods are
// checked against.
type refFile struct{ data []byte }

func (r *refFile) writeList(arena []byte, mem, file ioseg.List) {
	var stream []byte
	for _, s := range mem {
		stream = append(stream, arena[s.Offset:s.End()]...)
	}
	var pos int64
	for _, s := range file {
		if need := s.End(); need > int64(len(r.data)) {
			nd := make([]byte, need)
			copy(nd, r.data)
			r.data = nd
		}
		copy(r.data[s.Offset:s.End()], stream[pos:pos+s.Length])
		pos += s.Length
	}
}

func (r *refFile) readList(arena []byte, mem, file ioseg.List) {
	var stream []byte
	for _, s := range file {
		chunk := make([]byte, s.Length)
		if s.Offset < int64(len(r.data)) {
			copy(chunk, r.data[s.Offset:])
		}
		stream = append(stream, chunk...)
	}
	var pos int64
	for _, s := range mem {
		copy(arena[s.Offset:s.End()], stream[pos:pos+s.Length])
		pos += s.Length
	}
}

// randomRegions builds a random non-overlapping file list and a
// matching memory list over an arena of the given size.
func randomRegions(r *rand.Rand, arenaSize int) (mem, file ioseg.List) {
	var filePos, memPos int64
	for memPos < int64(arenaSize)-200 && len(file) < 30 {
		n := int64(1 + r.Intn(150))
		if memPos+n > int64(arenaSize) {
			break
		}
		file = append(file, ioseg.Segment{Offset: filePos, Length: n})
		mem = append(mem, ioseg.Segment{Offset: memPos, Length: n})
		filePos += n + int64(r.Intn(500))
		memPos += n + int64(r.Intn(20))
	}
	return mem, file
}

func TestNoncontiguousMethodsAgainstReference(t *testing.T) {
	methods := []client.AccessMethod{client.AccessMultiple, client.AccessSieve, client.AccessList}
	granularities := []client.Granularity{client.GranularityFileRegions, client.GranularityIntersect}
	_, fs := startCluster(t, 4)
	r := rand.New(rand.NewSource(99))

	for _, m := range methods {
		for _, g := range granularities {
			if m != client.AccessList && g != client.GranularityFileRegions {
				continue // granularity only affects list I/O
			}
			name := fmt.Sprintf("%v-%v", m, g)
			t.Run(name, func(t *testing.T) {
				f, err := fs.Create("nc-"+name, striping.Config{PCount: 4, StripeSize: 64})
				if err != nil {
					t.Fatal(err)
				}
				ref := &refFile{}
				req := client.Request{
					Method: m,
					List:   client.ListOptions{Granularity: g},
					Sieve:  client.SieveOptions{BufferSize: 256}, // tiny buffer: many windows
				}
				for round := 0; round < 5; round++ {
					arena := make([]byte, 4096)
					r.Read(arena)
					mem, file := randomRegions(r, len(arena))
					req.Write, req.Arena, req.Mem, req.File = true, arena, mem, file
					if err := run(f, req); err != nil {
						t.Fatalf("write round %d: %v", round, err)
					}
					ref.writeList(arena, mem, file)

					// Read back with the same method and independently
					// with plain contiguous reads.
					got := make([]byte, len(arena))
					want := make([]byte, len(arena))
					req.Write, req.Arena = false, got
					if err := run(f, req); err != nil {
						t.Fatalf("read round %d: %v", round, err)
					}
					ref.readList(want, mem, file)
					if !bytes.Equal(got, want) {
						t.Fatalf("round %d: %v read disagrees with reference", round, m)
					}
				}
				// Full-file check against the reference image.
				size, err := f.Size()
				if err != nil {
					t.Fatal(err)
				}
				if size != int64(len(ref.data)) {
					t.Fatalf("size = %d, ref = %d", size, len(ref.data))
				}
				whole := make([]byte, size)
				if _, err := f.ReadAt(whole, 0); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(whole, ref.data) {
					t.Fatalf("file image diverges from reference")
				}
			})
		}
	}
}

func TestMethodsProduceIdenticalFiles(t *testing.T) {
	// Every method writing the same pattern must produce byte-identical
	// files — the cross-method equivalence invariant.
	_, fs := startCluster(t, 4)
	r := rand.New(rand.NewSource(5))
	arena := make([]byte, 8192)
	r.Read(arena)
	mem, file := randomRegions(r, len(arena))

	images := map[string][]byte{}
	for _, m := range []client.AccessMethod{client.AccessMultiple, client.AccessSieve, client.AccessList} {
		f, err := fs.Create("eq-"+m.String(), striping.Config{PCount: 4, StripeSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		if err := run(f, client.Request{
			Write: true, Arena: arena, Mem: mem, File: file, Method: m,
			Sieve: client.SieveOptions{BufferSize: 512},
		}); err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, size)
		if _, err := f.ReadAt(img, 0); err != nil {
			t.Fatal(err)
		}
		images[m.String()] = img
	}
	if !bytes.Equal(images["multiple"], images["list"]) {
		t.Fatal("multiple and list images differ")
	}
	if !bytes.Equal(images["multiple"], images["datasieve"]) {
		t.Fatal("multiple and datasieve images differ")
	}
}

func TestListRequestBatching(t *testing.T) {
	// 130 single-server regions must produce ceil(130/64) = 3 list
	// requests — the trailing-data limit arithmetic from §3.3.
	c, fs := startCluster(t, 1)
	f, err := fs.Create("batch.dat", striping.Config{PCount: 1, StripeSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var mem, file ioseg.List
	arena := make([]byte, 130)
	for i := int64(0); i < 130; i++ {
		mem = append(mem, ioseg.Segment{Offset: i, Length: 1})
		file = append(file, ioseg.Segment{Offset: i * 10, Length: 1})
	}
	before := fs.Counters().Snapshot()
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	after := fs.Counters().Snapshot()
	if got := after.List.Requests - before.List.Requests; got != 3 {
		t.Fatalf("list requests = %d, want 3", got)
	}
	stats := c.TotalStats()
	if stats.ListRequests != 3 || stats.Regions != 130 {
		t.Fatalf("server stats = %+v", stats)
	}
}

func TestListGranularityChangesRequestCount(t *testing.T) {
	// 256 8-byte memory pieces against 4 512-byte file regions:
	// file granularity → 4 entries → 1 request;
	// intersect granularity → 256 entries → 4 requests.
	_, fs := startCluster(t, 1)
	f, err := fs.Create("gran.dat", striping.Config{PCount: 1, StripeSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]byte, 256*16)
	var mem, file ioseg.List
	for i := int64(0); i < 256; i++ {
		mem = append(mem, ioseg.Segment{Offset: i * 16, Length: 8})
	}
	for i := int64(0); i < 4; i++ {
		file = append(file, ioseg.Segment{Offset: i * 4096, Length: 512})
	}

	before := fs.Counters().Snapshot()
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList, List: client.ListOptions{Granularity: client.GranularityFileRegions}}); err != nil {
		t.Fatal(err)
	}
	mid := fs.Counters().Snapshot()
	if got := mid.List.Requests - before.List.Requests; got != 1 {
		t.Fatalf("file-granularity requests = %d, want 1", got)
	}
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList, List: client.ListOptions{Granularity: client.GranularityIntersect}}); err != nil {
		t.Fatal(err)
	}
	after := fs.Counters().Snapshot()
	if got := after.List.Requests - mid.List.Requests; got != 4 {
		t.Fatalf("intersect-granularity requests = %d, want 4", got)
	}
}

func TestStridedMatchesList(t *testing.T) {
	_, fs := startCluster(t, 4)
	f, err := fs.Create("strided.dat", striping.Config{PCount: 4, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const (
		start    = 40
		stride   = 100
		blockLen = 24
		count    = 50
	)
	arena := make([]byte, blockLen*count)
	rand.New(rand.NewSource(3)).Read(arena)
	mem := ioseg.List{{Offset: 0, Length: int64(len(arena))}}
	vec := datatype.Vector(count, blockLen, stride, datatype.Bytes(1))

	before := fs.Counters().Snapshot()
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, Type: vec, Base: start}); err != nil {
		t.Fatal(err)
	}
	after := fs.Counters().Snapshot()
	// One descriptor request per touched server, not per region.
	if got := after.Requests - before.Requests; got > 4 {
		t.Fatalf("strided write used %d requests, want <= 4", got)
	}

	// Read back via list I/O and compare.
	var file ioseg.List
	for i := int64(0); i < count; i++ {
		file = append(file, ioseg.Segment{Offset: start + i*stride, Length: blockLen})
	}
	got := make([]byte, len(arena))
	if err := run(f, client.Request{Arena: got, Mem: mem, File: file, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, arena) {
		t.Fatal("strided write / list read mismatch")
	}

	// And read back through the vector type.
	got2 := make([]byte, len(arena))
	if err := run(f, client.Request{Arena: got2, Mem: mem, Type: vec, Base: start}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, arena) {
		t.Fatal("strided read mismatch")
	}
}

func TestSieveStatsAccounting(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("sievestats.dat", striping.Config{PCount: 2, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Regions of 10 bytes every 100: sieve fetches the whole span.
	var mem, file ioseg.List
	for i := int64(0); i < 10; i++ {
		mem = append(mem, ioseg.Segment{Offset: i * 10, Length: 10})
		file = append(file, ioseg.Segment{Offset: i * 100, Length: 10})
	}
	arena := make([]byte, 100)
	res, err := f.Run(context.Background(), client.Request{
		Arena: arena, Mem: mem, File: file,
		Method: client.AccessSieve, Sieve: client.SieveOptions{BufferSize: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sieve
	if st.Windows != 1 {
		t.Fatalf("windows = %d, want 1", st.Windows)
	}
	if st.BytesUseful != 100 {
		t.Fatalf("useful = %d, want 100", st.BytesUseful)
	}
	if st.BytesAccessed != 910 { // span [0, 910)
		t.Fatalf("accessed = %d, want 910", st.BytesAccessed)
	}
	if uf := st.UselessFraction(); uf < 0.88 || uf > 0.90 {
		t.Fatalf("useless fraction = %f", uf)
	}
}

func TestSieveWriteReadModifyWrite(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("rmw.dat", striping.Config{PCount: 2, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-fill the file, then sieve-write sparse regions: untouched
	// bytes must survive the read-modify-write.
	base := bytes.Repeat([]byte{0x11}, 1000)
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	var mem, file ioseg.List
	for i := int64(0); i < 5; i++ {
		mem = append(mem, ioseg.Segment{Offset: i * 10, Length: 10})
		file = append(file, ioseg.Segment{Offset: 100 + i*150, Length: 10})
	}
	arena := bytes.Repeat([]byte{0xEE}, 50)
	if err := run(f, client.Request{
		Write: true, Arena: arena, Mem: mem, File: file,
		Method: client.AccessSieve, Sieve: client.SieveOptions{BufferSize: 300},
	}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1000)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		want := byte(0x11)
		for j := int64(0); j < 5; j++ {
			if int64(i) >= 100+j*150 && int64(i) < 110+j*150 {
				want = 0xEE
			}
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestParallelClientsDisjointWrites(t *testing.T) {
	// N rank goroutines write a 1-D cyclic pattern concurrently; the
	// interleaved file must contain each rank's bytes.
	c, _ := startCluster(t, 4)
	const (
		ranks     = 4
		blockSize = 64
		blocks    = 16
	)
	fs0, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs0.Close()
	if _, err := fs0.Create("cyclic.dat", striping.Config{PCount: 4, StripeSize: 128}); err != nil {
		t.Fatal(err)
	}

	err = cluster.RunRanks(ranks, func(rank int) error {
		fs, err := c.Connect()
		if err != nil {
			return err
		}
		defer fs.Close()
		f, err := fs.Open("cyclic.dat")
		if err != nil {
			return err
		}
		arena := bytes.Repeat([]byte{byte('A' + rank)}, blockSize*blocks)
		var mem, file ioseg.List
		for b := int64(0); b < blocks; b++ {
			mem = append(mem, ioseg.Segment{Offset: b * blockSize, Length: blockSize})
			file = append(file, ioseg.Segment{Offset: (b*ranks + int64(rank)) * blockSize, Length: blockSize})
		}
		return run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList})
	})
	if err != nil {
		t.Fatal(err)
	}

	fsv, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fsv.Close()
	f, err := fsv.Open("cyclic.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ranks*blocks*blockSize)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte('A' + (i/blockSize)%ranks)
		if b != want {
			t.Fatalf("byte %d = %c, want %c", i, b, want)
		}
	}
}

func TestServerStatsEndpoint(t *testing.T) {
	_, fs := startCluster(t, 3)
	f, err := fs.Create("st.dat", striping.Config{PCount: 3, StripeSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 500), 0); err != nil {
		t.Fatal(err)
	}
	total, per, err := fs.ServerStats(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 3 {
		t.Fatalf("per-server stats = %d entries", len(per))
	}
	if total.BytesWritten != 500 {
		t.Fatalf("total bytes written = %d, want 500", total.BytesWritten)
	}
}

func TestListRejectsMismatchedLists(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("bad.dat", striping.Config{})
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]byte, 100)
	mem := ioseg.List{{Offset: 0, Length: 10}}
	file := ioseg.List{{Offset: 0, Length: 20}}
	if err := run(f, client.Request{Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err == nil {
		t.Fatal("mismatched lists accepted")
	}
	// Memory region outside the arena.
	mem2 := ioseg.List{{Offset: 90, Length: 20}}
	file2 := ioseg.List{{Offset: 0, Length: 20}}
	if err := run(f, client.Request{Arena: arena, Mem: mem2, File: file2, Method: client.AccessList}); err == nil {
		t.Fatal("out-of-arena memory accepted")
	}
}

// TestMemoryListValidation pins what the single pass over the memory
// list reports, on every path that takes one: the texts (offending
// region index included) predate the stream map, and lengths that only
// overflow in sum — each region valid, the wrapped total equal to the
// file side's — must fail as a memory-list error instead of reaching
// the planner.
func TestMemoryListValidation(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("memlist.dat", striping.Config{PCount: 2, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]byte, 100)
	file := ioseg.List{{Offset: 0, Length: 32}}
	typ := datatype.Vector(4, 8, 16, datatype.Bytes(1)) // 32 bytes too
	const quarter = 1 << 62
	cases := []struct {
		name string
		mem  ioseg.List
		want string
		is   error
	}{
		{"sum wraps to the file total",
			ioseg.List{{Length: quarter}, {Length: quarter}, {Length: quarter}, {Length: quarter}, {Length: 32}},
			"pvfs: memory list: ioseg: total length overflows int64", ioseg.ErrLengthOverflow},
		{"pair wraps negative",
			ioseg.List{{Length: math.MaxInt64}, {Length: math.MaxInt64}},
			"pvfs: memory list: ioseg: total length overflows int64", ioseg.ErrLengthOverflow},
		{"negative offset",
			ioseg.List{{Offset: 0, Length: 16}, {Offset: -8, Length: 16}},
			"pvfs: memory list: segment 1: ioseg: negative offset -8", nil},
		{"second region outside the arena",
			ioseg.List{{Offset: 0, Length: 16}, {Offset: 90, Length: 16}, {Offset: 200, Length: 0}},
			"pvfs: memory region 1 ([90,+16)) outside buffer of 100 bytes", nil},
		{"totals differ",
			ioseg.List{{Offset: 0, Length: 16}},
			"pvfs: memory list covers 16 bytes, ", nil},
	}
	methods := []client.AccessMethod{client.AccessMultiple, client.AccessSieve, client.AccessList, client.AccessHybrid, client.AccessDatatype}
	for _, c := range cases {
		for _, method := range methods {
			for _, write := range []bool{false, true} {
				req := client.Request{Write: write, Arena: arena, Mem: c.mem, File: file, Method: method}
				if method == client.AccessDatatype {
					req.File, req.Type = nil, typ
				}
				_, err := f.Run(context.Background(), req)
				if err == nil || !strings.HasPrefix(err.Error(), c.want) {
					t.Errorf("%s, %v write=%v: error %v, want %q", c.name, method, write, err, c.want)
				}
				if c.is != nil && !errors.Is(err, c.is) {
					t.Errorf("%s, %v write=%v: error %v does not wrap %v", c.name, method, write, err, c.is)
				}
			}
		}
	}
	if reqs := fs.Counters().Snapshot().Requests; reqs != 0 {
		t.Fatalf("rejected requests sent %d wire requests", reqs)
	}
}

func TestBarrier(t *testing.T) {
	b := cluster.NewBarrier(8)
	counter := make(chan int, 64)
	err := cluster.RunRanks(8, func(rank int) error {
		for round := 0; round < 4; round++ {
			counter <- round
			b.Wait()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(counter)
	// All rank entries for round k must appear before any for k+1 —
	// guaranteed by the barrier; verify counts per round.
	counts := map[int]int{}
	for v := range counter {
		counts[v]++
	}
	for round := 0; round < 4; round++ {
		if counts[round] != 8 {
			t.Fatalf("round %d count = %d", round, counts[round])
		}
	}
}

func TestWireLimitEnforcedByServer(t *testing.T) {
	// A hand-built list request with >64 regions must be rejected by
	// the I/O daemon with StatusTooManyRegions. (The client library
	// cannot produce one; we speak wire protocol directly.)
	c, _ := startCluster(t, 1)
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("limit.dat", striping.Config{PCount: 1, StripeSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	// EncodeRegions enforces the limit client-side, so craft the body
	// manually: count=65 then 65 descriptors.
	body := make([]byte, 4+65*16)
	body[3] = 65
	conn, err := pvfsnet.Dial(c.IODAddrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := conn.Call(wire.Message{
		Header: wire.Header{Type: wire.TReadList, Handle: f.Handle()},
		Body:   body,
	})
	if err == nil {
		t.Fatal("oversized trailing data accepted")
	}
	if resp.Status != wire.StatusTooManyRegions {
		t.Fatalf("status = %v, want StatusTooManyRegions", resp.Status)
	}
}
