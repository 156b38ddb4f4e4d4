package client

import (
	"bytes"
	"context"
	"testing"

	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// A list-write request leaves its payload in the arena (a wire.Vec)
// exactly when every region of it is one arena extent, gathers it into
// the body otherwise, and puts the same bytes on the wire either way:
// the region descriptors, then each region's stream bytes.
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

	for _, c := range []struct {
		name        string
		mem, file   ioseg.List
		arenaBytes  int64
		vec, gather bool // arms some request must take
	}{
		{"cyclic, contiguous memory", patterns.MemList(cyclic, 0), patterns.FileList(cyclic, 0), cyclic.TotalBytes(0), true, false},
		{"tiled, contiguous memory", patterns.MemList(tiled, 4), patterns.FileList(tiled, 4), tiled.TotalBytes(4), true, false},
		{"memory one to one with file, rows crossing stripes", paddedMem, paddedFile, 100 * (24 << 10), true, false},
		{"one row split in memory", splitMem, paddedFile, 100 * (24 << 10), true, true},
		{"FLASH: 8-byte memory pieces", patterns.MemList(flash, 1), patterns.FileList(flash, 1), flash.ArenaBytes(1), false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := &File{fs: &FS{}, info: wire.FileInfo{Handle: 7, Striping: striping.Config{PCount: 4, StripeSize: 16 << 10}}}
			arena := make([]byte, c.arenaBytes)
			for i := range arena {
				arena[i] = byte(i*7 + i>>9)
			}
			stream, err := memio.Gather(arena, c.mem)
			if err != nil {
				t.Fatal(err)
			}
			smap := memio.NewStreamMap(c.mem)
			if err := checkMapped(arena, smap, c.mem, c.file); err != nil {
				t.Fatal(err)
			}
			var vecs, gathers int
			for _, p := range f.planList(c.file, wire.MaxRegionsPerRequest) {
				for i := range p.reqs {
					r := &p.reqs[i]
					msg, err := f.listWriteRequest(p, r, smap, arena)
					if err != nil {
						t.Fatal(err)
					}
					want, err := wire.AppendRegions(nil, p.phys[r.lo:r.hi])
					if err != nil {
						t.Fatal(err)
					}
					onePiece := true // every region one arena extent?
					for _, s := range p.stream[r.lo:r.hi] {
						want = append(want, stream[s.Pos:s.Pos+s.Len]...)
						pieces, err := smap.AppendPieces(nil, arena, s.Pos, s.Len)
						if err != nil {
							t.Fatal(err)
						}
						onePiece = onePiece && len(pieces) <= 1
					}
					got := bytes.Clone(msg.Body)
					if v, ok := msg.BodyStream.(*wire.Vec); ok {
						vecs++
						if !onePiece {
							t.Fatal("a request with a shattered region rides a Vec")
						}
						if v.N != int(r.bytes) || len(v.Pieces) > r.hi-r.lo {
							t.Fatalf("Vec of %d bytes in %d pieces for %d bytes in %d regions", v.N, len(v.Pieces), r.bytes, r.hi-r.lo)
						}
						for _, piece := range v.Pieces {
							got = append(got, piece...)
						}
					} else {
						gathers++
						if onePiece {
							t.Fatal("a request of whole arena extents was gathered")
						}
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("server %d request %d: wire bytes differ from descriptors + stream bytes", p.rel, i)
					}
					wire.PutBuf(msg.Body)
				}
			}
			if (vecs > 0) != c.vec || (gathers > 0) != c.gather {
				t.Fatalf("%d vectored and %d gathered requests; want vectored %v, gathered %v", vecs, gathers, c.vec, c.gather)
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
