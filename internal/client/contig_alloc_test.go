package client

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// startSinkIOD is a daemon that acknowledges every request and discards
// its body without materializing it, so that what the process allocates
// during a write is the client's doing. It answers a TRead, a
// TReadDatatype or a TReadList with as many bytes as asked for, written
// from one shared buffer, and draws nothing from the wire buffer pool
// for a response larger than a page.
func startSinkIOD(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				ack := (&wire.WrittenResp{}).Marshal()
				zeros := make([]byte, DefaultWindowBytes)
				var hdr [wire.HeaderSize]byte
				// Bodies are discarded through the connection's own scratch:
				// io.Discard's ReadFrom draws on a sync.Pool, which under
				// the race detector drops a quarter of what is put back and
				// would bill this process 8 KiB for it each time.
				scratch := make([]byte, 32<<10)
				discard := struct{ io.Writer }{io.Discard}
				for {
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					typ := wire.MsgType(binary.BigEndian.Uint16(hdr[6:]))
					bodyLen := binary.BigEndian.Uint32(hdr[20:])
					tag := binary.BigEndian.Uint32(hdr[24:])
					resp := wire.Message{Header: wire.Header{Type: typ.Response(), Tag: tag}, Body: ack}
					if typ == wire.TRead {
						var req [wire.ReadReqSize]byte
						if bodyLen != wire.ReadReqSize {
							return
						}
						if _, err := io.ReadFull(c, req[:]); err != nil {
							return
						}
						n := binary.BigEndian.Uint64(req[8:])
						if n > uint64(len(zeros)) {
							return
						}
						resp.Body = nil
						resp.BodyStream = &wire.Vec{N: int(n), Pieces: [][]byte{zeros[:n]}}
					} else if typ == wire.TReadDatatype {
						var req wire.ReadDatatypeReq
						if bodyLen > uint32(len(scratch)) {
							return
						}
						if _, err := io.ReadFull(c, scratch[:bodyLen]); err != nil {
							return
						}
						if req.Unmarshal(scratch[:bodyLen]) != nil || req.Want > int64(len(zeros)) {
							return
						}
						resp.Body = nil
						resp.BodyStream = &wire.Vec{N: int(req.Want), Pieces: [][]byte{zeros[:req.Want]}}
					} else if typ == wire.TReadList {
						if bodyLen > uint32(len(scratch)) {
							return
						}
						if _, err := io.ReadFull(c, scratch[:bodyLen]); err != nil {
							return
						}
						regions, _, err := wire.DecodeRegions(scratch[:bodyLen])
						if err != nil {
							return
						}
						want := int(regions.TotalLength())
						v := &wire.Vec{N: want}
						for ; want > 0; want -= min(want, len(zeros)) {
							v.Pieces = append(v.Pieces, zeros[:min(want, len(zeros))])
						}
						resp.Body, resp.BodyStream = nil, v
					} else if n, err := io.CopyBuffer(discard, io.LimitReader(c, int64(bodyLen)), scratch); err != nil || n != int64(bodyLen) {
						return
					}
					if err := wire.WriteMessage(c, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// sinkFile is a file striped 16 KiB-wise over four sink daemons.
func sinkFile(t *testing.T) *File {
	t.Helper()
	const pcount = 4
	addrs := make([]string, pcount)
	for i := range addrs {
		addrs[i] = startSinkIOD(t)
	}
	f := &File{
		fs: &FS{pool: pvfsnet.NewPool()},
		info: wire.FileInfo{
			Handle:   7,
			IODAddrs: addrs,
			Striping: striping.Config{PCount: pcount, StripeSize: 16 << 10},
		},
	}
	t.Cleanup(func() { f.fs.pool.Close() })
	return f
}

// allocPerOp runs op once unmeasured (dial, fill the buffer pools) and
// then runs times, and returns the bytes and objects the median run
// allocated: the steady state, which a stray miss in the wire pool or a
// cold scratch pool (under the race detector sync.Pool drops a quarter
// of what is put back) must not read as.
func allocPerOp(runs int, op func()) (bytes, objects uint64) {
	op()
	perBytes, perObjects := make([]uint64, runs), make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range perBytes {
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		perBytes[i], perObjects[i] = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	}
	slices.Sort(perBytes)
	slices.Sort(perObjects)
	return perBytes[runs/2], perObjects[runs/2]
}

// A 16 MiB contiguous write allocates bookkeeping only: piece lists,
// request descriptors and iovecs. Before the vectored path it staged and
// marshalled every byte (≈ 2 × 16 MiB per call).
func TestContigWriteAllocationBound(t *testing.T) {
	f := sinkFile(t)
	data := make([]byte, 16<<20)
	write := func() {
		if err := f.contig(context.Background(), true, data, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 8
	perOp, allocs := allocPerOp(runs, write)
	t.Logf("%d B and %d allocations per 16 MiB write", perOp, allocs)
	if perOp > 1_000_000 {
		t.Fatalf("a 16 MiB contiguous write allocated %d B, want <= 1 MB", perOp)
	}
	if reqs := f.fs.stats.Requests.Load(); reqs != (1+runs)*32 {
		t.Fatalf("%d requests for %d writes, want 32 each", reqs, 1+runs)
	}
}

// A 16 MiB contiguous read allocates bookkeeping only: piece lists,
// request descriptors, destinations and iovecs. Before the windowed
// read it took each daemon's 4 MiB share in one pooled body — zeroed
// whenever the pool missed — and copied it into the arena.
func TestContigReadAllocationBound(t *testing.T) {
	f := sinkFile(t)
	data := make([]byte, 16<<20)
	read := func() {
		if err := f.contig(context.Background(), false, data, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 8
	perOp, allocs := allocPerOp(runs, read)
	t.Logf("%d B and %d allocations per 16 MiB read", perOp, allocs)
	if perOp > 1_000_000 {
		t.Fatalf("a 16 MiB contiguous read allocated %d B, want <= 1 MB", perOp)
	}
	if reqs := f.fs.stats.Requests.Load(); reqs != (1+runs)*32 {
		t.Fatalf("%d requests for %d reads, want 32 each", reqs, 1+runs)
	}
}

// The daemon receives one chunk — a window of payload behind WriteReq's
// fixed fields — into the window's own pool class, a page of headroom
// and no more (wire's TestBodyLandsInPayloadClass pins the class rule).
func TestContigChunkReceiveClass(t *testing.T) {
	b := wire.GetBuf(DefaultWindowBytes + wire.WriteReqFixedSize)
	defer wire.PutBuf(b)
	if cap(b) > DefaultWindowBytes+4<<10 {
		t.Fatalf("chunk body comes from the %d-byte class, want the window's own", cap(b))
	}
}

// A FLASH-shaped datatype write (bench/workloads.go flashShape: 196 608
// eight-byte memory pieces, 1.5 MiB of payload) allocates the stream
// map's 3 072 strided runs plus bookkeeping. When the map was a prefix
// sum it allocated an int64 per piece, 1.6 MB per op.
func TestFlashDatatypeWriteAllocationBound(t *testing.T) {
	f := sinkFile(t)
	pat := &patterns.Flash{NumRanks: 2, Blocks: 16, Elems: 8, Guard: 1, Vars: 24}
	const run = 16 * 4096 // one rank's blocks of one variable
	req := Request{
		Write: true, Arena: make([]byte, pat.ArenaBytes(0)), Mem: patterns.MemList(pat, 0),
		Type:   datatype.Vector(int64(pat.Vars), run, int64(pat.NumRanks)*run, datatype.Bytes(1)),
		Method: AccessDatatype,
	}
	write := func() {
		res, err := f.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bytes != pat.TotalBytes(0) {
			t.Fatalf("wrote %d bytes, want %d", res.Bytes, pat.TotalBytes(0))
		}
	}
	perOp, allocs := allocPerOp(32, write)
	t.Logf("%d B and %d allocations per FLASH write of %d pieces", perOp, allocs, len(req.Mem))
	if perOp > 256<<10 {
		t.Fatalf("a FLASH datatype write allocated %d B, want <= 256 KiB", perOp)
	}
}

// A datatype read whose memory is one region takes the copy-free arm:
// each response lands in the arena, so the client draws no pooled body
// for it — one pooled buffer fewer per request than the same read into
// FLASH memory, whose responses are scattered out of pooled bodies.
func TestDatatypeReadLandsInArena(t *testing.T) {
	f := sinkFile(t)
	pat := &patterns.Flash{NumRanks: 2, Blocks: 16, Elems: 8, Guard: 1, Vars: 24}
	const run = 16 * 4096 // one rank's blocks of one variable
	typ := datatype.Vector(int64(pat.Vars), run, int64(pat.NumRanks)*run, datatype.Bytes(1))
	// perReq returns the pooled buffers one read draws per request.
	perReq := func(req Request) float64 {
		t.Helper()
		req.Type, req.Method = typ, AccessDatatype
		if _, err := f.Run(context.Background(), req); err != nil { // dial, fill the pools
			t.Fatal(err)
		}
		reqs0, gets0 := f.fs.stats.Requests.Load(), bufGets()
		if _, err := f.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		return float64(bufGets()-gets0) / float64(f.fs.stats.Requests.Load()-reqs0)
	}
	dense := perReq(Request{Arena: make([]byte, pat.TotalBytes(0))})
	shattered := perReq(Request{Arena: make([]byte, pat.ArenaBytes(0)), Mem: patterns.MemList(pat, 0)})
	t.Logf("pooled buffers per request: %.2f into one region, %.2f into FLASH memory", dense, shattered)
	if dense != shattered-1 {
		t.Fatalf("a read into one region draws %.2f pooled buffers per request, FLASH memory %.2f: want exactly one fewer", dense, shattered)
	}
}

func bufGets() int64 {
	gets, _ := wire.BufStats()
	return gets
}

// The methods that work from the flat lists (contig, multiple) build
// no stream map, so checking a long memory list costs them no
// allocation.
func TestCheckListsDoesNotAllocate(t *testing.T) {
	var mem ioseg.List
	var off int64
	for i := int64(0); i < 10_000; i++ {
		mem = append(mem, ioseg.Segment{Offset: off, Length: 1 + i%13})
		off += 20 + i%7
	}
	arena, file := make([]byte, off), ioseg.List{{Offset: 64, Length: mem.TotalLength()}}
	if n := testing.AllocsPerRun(10, func() {
		if err := checkLists(arena, mem, file); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("checkLists allocated %v times", n)
	}
}

// sieveLayout is a 16 MiB transfer of 4 KiB file regions every 8 KiB
// into one arena region.
func sieveLayout() ([]byte, ioseg.List) {
	const region, stride, total = 4 << 10, 8 << 10, 16 << 20
	file := make(ioseg.List, total/region)
	for i := range file {
		file[i] = ioseg.Segment{Offset: int64(i) * stride, Length: region}
	}
	return make([]byte, total), file
}

// Sieving copies each region straight between the window buffer and the
// arena, so a sieve through a 1 MiB buffer allocates that buffer and
// bookkeeping. When it staged the transfer in a packed stream it
// allocated 17 MiB a read or write.
func TestSieveAllocationBound(t *testing.T) {
	f := sinkFile(t)
	arena, file := sieveLayout()
	for _, write := range []bool{false, true} {
		req := Request{Write: write, Arena: arena, File: file, Method: AccessSieve, Sieve: SieveOptions{BufferSize: 1 << 20}}
		perOp, allocs := allocPerOp(4, func() {
			if _, err := f.Run(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("write=%v: %d B and %d allocations per 16 MiB sieve", write, perOp, allocs)
		if perOp >= 4<<20 {
			t.Fatalf("write=%v: a 16 MiB sieve allocated %d B, want < 4 MiB", write, perOp)
		}
	}
}

// A hybrid transfer allocates the buffer of its coalesced extents and
// bookkeeping: nothing the size of the transfer on top. When it staged
// the transfer in a packed stream it allocated 48 MiB a read and 56 MiB
// a write.
func TestHybridAllocationBound(t *testing.T) {
	f := sinkFile(t)
	arena, file := sieveLayout()
	span := file.Normalize().Coalesce(4 << 10).TotalLength()
	for _, write := range []bool{false, true} {
		req := Request{Write: write, Arena: arena, File: file, Method: AccessHybrid, CoalesceGap: 4 << 10}
		perOp, allocs := allocPerOp(4, func() {
			if _, err := f.Run(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("write=%v: %d B and %d allocations per 16 MiB hybrid over a %d B span", write, perOp, allocs, span)
		if perOp >= uint64(span)+8<<20 {
			t.Fatalf("write=%v: a 16 MiB hybrid allocated %d B, want < span %d + 8 MiB", write, perOp, span)
		}
	}
}

// TestFlattenedTypeHeldToArenaBeforeWalk resolves a Type layout of 2^20
// repetitions, about 2^20 regions once walked, under AccessList against
// a 1-byte arena. The memory side is refused before the type is walked,
// so the refusal allocates nothing like the region list.
func TestFlattenedTypeHeldToArenaBeforeWalk(t *testing.T) {
	req := Request{Type: datatype.Vector(2, 1, 2, datatype.Bytes(1)), Count: 1 << 20, Method: AccessList, Arena: make([]byte, 1)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := req.resolve()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasSuffix(err.Error(), "outside buffer of 1 bytes") {
		t.Fatalf("resolve: %v, want the memory side refused for the arena", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing the request allocated %d bytes, want under 1 MB", got)
	}
}
