package client

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// The mover leaves a request's payload in the arena — a wire.Vec, a
// write's BodyStream or a read's Dest — exactly when every stream piece
// of it is one arena extent, and gathers it into the pooled body or
// scatters the response out of one otherwise. The wire bytes are the
// same either way: the request's fixed fields, then its pieces' stream
// bytes. One table covers every planner, read and write.
func TestListWriteRequestArms(t *testing.T) {
	cyclic, err := patterns.NewCyclic1D(2, 256, 2*256*4096)
	if err != nil {
		t.Fatal(err)
	}
	flash := &patterns.Flash{NumRanks: 2, Blocks: 4, Elems: 8, Guard: 1, Vars: 6}
	tiled := &patterns.Tiled{TilesX: 3, TilesY: 2, W: 256, H: 96, Bpp: 3, OverlapX: 32, OverlapY: 8}

	// Block-block into a padded local array: memory rows one to one with
	// the file rows, 20 KiB each, so every row also crosses a stripe unit.
	var paddedMem, paddedFile ioseg.List
	for i := int64(0); i < 100; i++ {
		paddedMem = append(paddedMem, ioseg.Segment{Offset: 64 + i*(24<<10), Length: 20 << 10})
		paddedFile = append(paddedFile, ioseg.Segment{Offset: 1000 + i*(80<<10), Length: 20 << 10})
	}
	// The same rows with one of them split in memory: only the requests
	// carrying that row gather.
	splitMem := append(ioseg.List{}, paddedMem[:70]...)
	splitMem = append(splitMem,
		ioseg.Segment{Offset: paddedMem[70].Offset, Length: 100},
		ioseg.Segment{Offset: paddedMem[70].Offset + 200, Length: 20<<10 - 100})
	splitMem = append(splitMem, paddedMem[71:]...)

	f := &File{fs: &FS{}, info: wire.FileInfo{Handle: 7, Striping: striping.Config{PCount: 4, StripeSize: 16 << 10}}}
	type planner func(write bool, arena []byte, smap *memio.StreamMap) (*transfer, error)
	list := func(mem, file ioseg.List) planner {
		return func(write bool, arena []byte, smap *memio.StreamMap) (*transfer, error) {
			return f.planList(write, arena, smap, mem, file, ListOptions{}, DefaultWindow)
		}
	}
	// FLASH's variables as one datatype: each variable's blocks of one
	// rank are one file run, the ranks' runs interleaved.
	flashRun := flash.TotalBytes(0) / int64(flash.Vars)
	flashType := datatype.Vector(int64(flash.Vars), flashRun, int64(flash.NumRanks)*flashRun, datatype.Bytes(1))
	dtype := func(mem ioseg.List) planner {
		return func(write bool, arena []byte, smap *memio.StreamMap) (*transfer, error) {
			return f.planDatatype(write, arena, smap, mem, flashType, flashRun, 1, DatatypeOptions{WindowBytes: 20 << 10}, DefaultWindow)
		}
	}
	const contigBytes = 3<<20 + 1000
	dense := func(n int64) ioseg.List { return ioseg.List{{Offset: 0, Length: n}} }

	for _, c := range []struct {
		name       string
		mem        ioseg.List
		arenaBytes int64
		plan       planner
		vec, copy  bool // arms some request must take
	}{
		{"contig, across stripes and windows", dense(contigBytes), contigBytes,
			func(write bool, arena []byte, _ *memio.StreamMap) (*transfer, error) {
				return f.planContig(write, arena, 5000, nil), nil
			}, true, false},
		{"cyclic, contiguous memory", patterns.MemList(cyclic, 0), cyclic.TotalBytes(0), list(patterns.MemList(cyclic, 0), patterns.FileList(cyclic, 0)), true, false},
		{"tiled, contiguous memory", patterns.MemList(tiled, 4), tiled.TotalBytes(4), list(patterns.MemList(tiled, 4), patterns.FileList(tiled, 4)), true, false},
		{"memory one to one with file, rows crossing stripes", paddedMem, 100 * (24 << 10), list(paddedMem, paddedFile), true, false},
		{"one row split in memory", splitMem, 100 * (24 << 10), list(splitMem, paddedFile), true, true},
		{"FLASH: 8-byte memory pieces", patterns.MemList(flash, 1), flash.ArenaBytes(1), list(patterns.MemList(flash, 1), patterns.FileList(flash, 1)), false, true},
		{"datatype, contiguous memory", dense(flash.TotalBytes(0)), flash.TotalBytes(0), dtype(dense(flash.TotalBytes(0))), true, false},
		{"datatype, FLASH memory", patterns.MemList(flash, 1), flash.ArenaBytes(1), dtype(patterns.MemList(flash, 1)), false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			arena := make([]byte, c.arenaBytes)
			for i := range arena {
				arena[i] = byte(i*7 + i>>9)
			}
			stream, err := memio.Gather(arena, c.mem)
			if err != nil {
				t.Fatal(err)
			}
			smap := memio.NewStreamMap(c.mem)
			for _, write := range []bool{false, true} {
				x, err := c.plan(write, arena, smap)
				if err != nil {
					t.Fatal(err)
				}
				var vecs, copies int
				for _, s := range x.scheds {
					for i := range s.requests() {
						var sent sentReq
						msg, err := f.request(x, s, i, &sent)
						if err != nil {
							t.Fatal(err)
						}
						fixed, err := s.appendFixed(i, nil)
						if err != nil {
							t.Fatal(err)
						}
						payload := []byte{}
						onePiece := true // every piece one arena extent?
						for _, p := range sent.pieces {
							payload = append(payload, stream[p.Pos:p.Pos+p.Len]...)
							pieces, err := smap.AppendPieces(nil, arena, p.Pos, p.Len)
							if err != nil {
								t.Fatal(err)
							}
							onePiece = onePiece && len(pieces) <= 1
						}
						if int64(len(payload)) != sent.bytes {
							t.Fatalf("request of %d bytes holds pieces of %d", sent.bytes, len(payload))
						}
						vec := msg.Dest
						if write {
							vec, _ = msg.BodyStream.(*wire.Vec)
							if msg.Dest != nil {
								t.Fatal("a write names a Dest")
							}
						} else if msg.BodyStream != nil {
							t.Fatal("a read carries a payload")
						}
						got := bytes.Clone(msg.Body)
						if vec != nil {
							vecs++
							if !onePiece {
								t.Fatal("a request with a shattered piece rides a Vec")
							}
							if vec.N != int(sent.bytes) || len(vec.Pieces) > len(sent.pieces) {
								t.Fatalf("Vec of %d bytes in %d pieces for %d bytes in %d pieces", vec.N, len(vec.Pieces), sent.bytes, len(sent.pieces))
							}
							// A Vec's pieces are the arena extents of the
							// request's stream bytes, in order.
							for _, piece := range vec.Pieces {
								got = append(got, piece...)
							}
						} else {
							copies++
							if onePiece {
								t.Fatal("a request of whole arena extents was copied")
							}
							if !write {
								got = append(got, payload...) // the response the body scatters
							}
						}
						if want := append(fixed, payload...); !bytes.Equal(got, want) {
							t.Fatalf("write %v, server %d request %d: fixed fields and payload differ from the plan's", write, s.server(), i)
						}
						wire.PutBuf(msg.Body)
					}
				}
				if (vecs > 0) != c.vec || (copies > 0) != c.copy {
					t.Fatalf("write %v: %d requests on the Vec arm and %d copied; want Vec %v, copied %v", write, vecs, copies, c.vec, c.copy)
				}
			}
		})
	}
}

// A cyclic-shaped 4 MiB list write (bench/workloads.go cyclic_list: 1024
// regions of 4 KiB from one contiguous buffer) allocates bookkeeping
// only: the plan, one piece list and descriptor body per request, and
// iovecs. Gathered, it took a 64 KiB+ body from the pool per request and
// copied every byte into it.
func TestCyclicListWriteAllocationBound(t *testing.T) {
	f := sinkFile(t)
	const regions, region = 1024, 4 << 10
	pat, err := patterns.NewCyclic1D(2, regions, 2*regions*region)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Write: true, Arena: make([]byte, pat.TotalBytes(0)),
		File: patterns.FileList(pat, 0), Method: AccessList,
	}
	write := func() {
		if _, err := f.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	gets0, _ := wire.BufStats()
	const runs = 16
	perOp, allocs := allocPerOp(runs, write)
	gets1, _ := wire.BufStats()
	t.Logf("%d B and %d allocations per 4 MiB cyclic list write", perOp, allocs)
	if perOp > 256<<10 {
		t.Fatalf("a 4 MiB cyclic list write allocated %d B, want < 256 KiB", perOp)
	}
	if reqs := f.fs.stats.List.Requests.Load(); reqs != (1+runs)*64 {
		t.Fatalf("%d list requests for %d writes, want 64 each", reqs, 1+runs)
	}
	// Per request the client takes a descriptor body from the pool and
	// nothing payload-sized; the sink's acks ride pooled bodies too.
	if perReq := float64(gets1-gets0) / float64((1+runs)*64); perReq > 3 {
		t.Fatalf("%.1f pooled buffers per request", perReq)
	}
}

// TestResolveChecksPatternArithmetic: a Type layout whose data length
// or span overflows int64 is refused by resolve under every method,
// before a region is enumerated, while a type too large for the wire
// codec still flattens for the methods that do not encode it.
func TestResolveChecksPatternArithmetic(t *testing.T) {
	methods := []AccessMethod{AccessAuto, AccessContig, AccessMultiple, AccessSieve, AccessList, AccessDatatype, AccessHybrid}
	for _, tc := range []struct {
		name        string
		typ         datatype.Type
		base, count int64
	}{
		// 2^64 data bytes: the unchecked product wraps to 0.
		{"data length", datatype.Bytes(1 << 30), 0, 1 << 34},
		// 2^31 data bytes in 2^31 regions over a 2^70-byte span.
		{"span", datatype.HVector(2, 1, 1<<40, datatype.Bytes(1)), 0, 1 << 30},
		{"end", datatype.Vector(2, 1, 2, datatype.Double()), math.MaxInt64 - 16, 1},
		{"negative count", datatype.Bytes(8), 0, -1},
		{"negative base", datatype.Bytes(8), -8, 1},
	} {
		for _, m := range methods {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Request{Type: tc.typ, Base: tc.base, Count: tc.count, Method: m}.resolve()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s under %v: accepted", tc.name, m)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
				t.Errorf("%s under %v: %d bytes allocated before the refusal", tc.name, m, n)
			}
		}
	}

	// 40 nested constructors exceed the codec's depth limit: auto and
	// the flattened methods still take the type; AccessDatatype refuses.
	// The arena holds the 16 bytes, which resolve checks before a
	// flattened method walks the type.
	deep := datatype.Bytes(8)
	for range 40 {
		deep = datatype.Contiguous(1, deep)
	}
	for _, m := range methods {
		rv, err := Request{Type: deep, Base: 16, Count: 2, Method: m, Arena: make([]byte, 16)}.resolve()
		if m == AccessDatatype {
			if err == nil {
				t.Error("AccessDatatype accepted an unencodable type")
			}
			continue
		}
		if err != nil {
			t.Errorf("%v refused an unencodable type: %v", m, err)
			continue
		}
		if want := (ioseg.List{{Offset: 16, Length: 16}}); !rv.file.Equal(want) || rv.total != 16 {
			t.Errorf("%v: file %v total %d, want %v total 16", m, rv.file, rv.total, want)
		}
	}
}
