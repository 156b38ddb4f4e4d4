package client

import (
	"context"
	"fmt"
	"sort"

	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// Granularity selects how list I/O entries are built from the memory
// and file region lists (DESIGN.md §3).
type Granularity int

const (
	// GranularityFileRegions builds one entry per contiguous file
	// region, the minimal entry count (§4.3.1's "list I/O can reduce
	// the amount of I/O requests to 30 per processor").
	GranularityFileRegions Granularity = iota
	// GranularityIntersect builds one entry per (memory ∩ file) piece,
	// the max-fragmentation behaviour consistent with the paper's
	// measured FLASH results (983,040 entries per processor).
	GranularityIntersect
)

func (g Granularity) String() string {
	switch g {
	case GranularityFileRegions:
		return "file-regions"
	case GranularityIntersect:
		return "intersect"
	default:
		return fmt.Sprintf("granularity(%d)", int(g))
	}
}

// ListOptions tunes list I/O.
type ListOptions struct {
	// Granularity of entry construction; default GranularityFileRegions.
	Granularity Granularity
	// MaxRegions per request; 0 selects wire.MaxRegionsPerRequest (64).
	// Values above the wire limit are rejected by the protocol layer.
	MaxRegions int
}

func (o ListOptions) maxRegions() int {
	if o.MaxRegions <= 0 {
		return wire.MaxRegionsPerRequest
	}
	return o.MaxRegions
}

// checkLists validates a mem/file pair for the methods that work from
// the flat lists (multiple, sieving, hybrid). They build no stream map,
// so the memory list is checked where it lies, without allocating.
func checkLists(arena []byte, mem, file ioseg.List) error {
	if err := mem.Validate(); err != nil {
		return fmt.Errorf("pvfs: memory list: %w", err)
	}
	total, err := mem.TotalLengthChecked()
	if err != nil {
		return fmt.Errorf("pvfs: memory list: %w", err)
	}
	if err := checkFileList(total, file); err != nil {
		return err
	}
	return checkArena(arena, mem)
}

// checkMapped validates a mem/file pair given smap, the stream map of
// mem. Everything it needs of the memory list — per-region validity, an
// overflow-checked total and the highest region end — comes from the
// single pass that built smap, so the list is walked once per operation
// however many checks there are. Cross-segment overlap is not checked
// (it would cost a sort of the 983k-entry FLASH lists per call): as
// with MPI receive buffers, memory regions that overlap one another
// make read results undefined — responses scatter into the arena
// concurrently, from one goroutine per server.
func checkMapped(arena []byte, smap *memio.StreamMap, mem, file ioseg.List) error {
	if err := smap.Err(); err != nil {
		return fmt.Errorf("pvfs: memory list: %w", err)
	}
	if err := checkFileList(smap.Total(), file); err != nil {
		return err
	}
	return checkMappedArena(arena, smap, mem)
}

// checkMappedArena reports a memory region that ends past the arena.
// One compare against the map's highest region end decides; the list is
// walked only to name the first offender in the error.
func checkMappedArena(arena []byte, smap *memio.StreamMap, mem ioseg.List) error {
	if smap.End() <= int64(len(arena)) {
		return nil
	}
	return checkArena(arena, mem)
}

// checkFileList validates the file list against the memory list's byte
// total.
func checkFileList(memTotal int64, file ioseg.List) error {
	if err := file.Validate(); err != nil {
		return fmt.Errorf("pvfs: file list: %w", err)
	}
	if memTotal != file.TotalLength() {
		return fmt.Errorf("pvfs: memory list covers %d bytes, file list %d", memTotal, file.TotalLength())
	}
	return nil
}

// checkArena reports the first memory region that ends past the arena.
func checkArena(arena []byte, mem ioseg.List) error {
	for i, s := range mem {
		if s.End() > int64(len(arena)) {
			return fmt.Errorf("pvfs: memory region %d (%v) outside buffer of %d bytes", i, s, len(arena))
		}
	}
	return nil
}

// listEntries builds the file-space entry list in stream order for the
// chosen granularity.
func listEntries(mem, file ioseg.List, g Granularity) (ioseg.List, error) {
	if g == GranularityFileRegions {
		return file, nil
	}
	pairs, err := memio.Match(mem, file)
	if err != nil {
		return nil, err
	}
	entries := make(ioseg.List, len(pairs))
	for i, p := range pairs {
		entries[i] = p.File
	}
	return entries, nil
}

// --- multiple I/O (§3.1) ---

// readMultiple is the multiple-I/O datapath (see AccessMultiple).
func (f *File) readMultiple(ctx context.Context, arena []byte, mem, file ioseg.List) error {
	if err := checkLists(arena, mem, file); err != nil {
		return err
	}
	pairs, err := memio.Match(mem, file)
	if err != nil {
		return err
	}
	for _, pr := range pairs {
		if err := f.readContig(ctx, arena[pr.Mem.Offset:pr.Mem.End()], pr.File.Offset, &f.fs.stats.Multiple); err != nil {
			return err
		}
	}
	return nil
}

func (f *File) writeMultiple(ctx context.Context, arena []byte, mem, file ioseg.List) error {
	if err := checkLists(arena, mem, file); err != nil {
		return err
	}
	pairs, err := memio.Match(mem, file)
	if err != nil {
		return err
	}
	for _, pr := range pairs {
		if err := f.writeContig(ctx, arena[pr.Mem.Offset:pr.Mem.End()], pr.File.Offset, &f.fs.stats.Multiple); err != nil {
			return err
		}
	}
	return nil
}

// --- list I/O (§3.3) ---

// subReq is one wire-level list request: the index range [lo, hi) into
// its planServer's piece arrays (at most MaxRegionsPerRequest regions).
type subReq struct {
	lo, hi int
	bytes  int64
}

// planServer is the ordered request schedule for one I/O server: the
// server's physical regions in logical order, the stream range of each
// (its bytes' place in a request body), and the request boundaries.
// Pieces accumulate into two flat arrays rather than per-request
// slices, so planning allocates O(log n) times per server instead of
// O(requests).
type planServer struct {
	rel    int
	phys   ioseg.List
	stream []memio.Piece
	reqs   []subReq

	openLo    int   // first piece of the not-yet-cut request
	openBytes int64 // payload bytes accumulated since the last cut
}

// cut closes the open request, if it holds any pieces.
func (ps *planServer) cut() {
	if len(ps.phys) > ps.openLo {
		ps.reqs = append(ps.reqs, subReq{lo: ps.openLo, hi: len(ps.phys), bytes: ps.openBytes})
		ps.openLo = len(ps.phys)
		ps.openBytes = 0
	}
}

// planList turns the logical entry list into per-server request
// schedules. Request formation is exactly the paper's arithmetic — the
// entry list is cut into batches of at most maxRegions entries (§3.3),
// each batch splits across servers by striping, and a server's share of
// one batch is sub-batched defensively at the wire limit — so request
// counts are identical to the serialized implementation; only the issue
// discipline (pipelined vs barriered) differs.
func (f *File) planList(entries ioseg.List, maxRegions int) []*planServer {
	cfg := f.info.Striping
	byRel := make(map[int]*planServer)
	var plans []*planServer
	var stream int64
	batchLeft := maxRegions
	for _, s := range entries {
		if batchLeft == 0 { // batch boundary: no request spans it
			for _, ps := range plans {
				ps.cut()
			}
			batchLeft = maxRegions
		}
		batchLeft--
		entry := s
		cfg.SplitFunc(entry, func(p striping.Piece) {
			ps := byRel[p.Server]
			if ps == nil {
				ps = &planServer{rel: p.Server}
				byRel[p.Server] = ps
				plans = append(plans, ps)
			}
			if len(ps.phys)-ps.openLo == wire.MaxRegionsPerRequest {
				ps.cut()
			}
			ps.phys = append(ps.phys, p.Phys)
			ps.stream = append(ps.stream, memio.Piece{Pos: stream + (p.Logical.Offset - entry.Offset), Len: p.Phys.Length})
			ps.openBytes += p.Phys.Length
		})
		stream += s.Length
	}
	for _, ps := range plans {
		ps.cut()
	}
	sort.Slice(plans, func(i, k int) bool { return plans[i].rel < plans[k].rel })
	return plans
}

// readList is the list-I/O read datapath; smap is the stream map of
// mem. As in the paper (§3.3), a logical request describing more than
// 64 file regions is broken into several list requests of at most 64
// entries and each list request fans out to the I/O servers holding
// its pieces in parallel. Unlike the paper's client, successive
// requests to one server are pipelined, window of them at a time, and
// each response lands in the caller's buffer — read from the socket
// straight into the arena where each of its file regions is one extent
// of it, scattered from the pooled response body by stream-position
// arithmetic otherwise; no staging copy of the full transfer is built.
func (f *File) readList(ctx context.Context, arena []byte, smap *memio.StreamMap, mem, file ioseg.List, opts ListOptions, window int) error {
	if err := checkMapped(arena, smap, mem, file); err != nil {
		return err
	}
	entries, err := listEntries(mem, file, opts.Granularity)
	if err != nil {
		return err
	}
	plans := f.planList(entries, opts.maxRegions())
	return parallel(plans, func(p *planServer) error {
		addr := f.info.IODAddrs[p.rel]
		return f.fs.pipelineCalls(ctx, addr, len(p.reqs), window,
			func(i int) (wire.Message, error) {
				r := &p.reqs[i]
				pieces, err := p.arenaPieces(r, smap, arena)
				if err != nil {
					return wire.Message{}, err
				}
				regions := p.phys[r.lo:r.hi]
				body, err := wire.AppendRegions(wire.GetBuf(wire.TrailingDataSize(len(regions)))[:0], regions)
				if err != nil {
					wire.PutBuf(body)
					return wire.Message{}, err
				}
				f.fs.stats.Requests.Add(1)
				f.fs.stats.List.Requests.Add(1)
				msg := wire.Message{
					Header: wire.Header{Type: wire.TReadList, Handle: f.info.Handle},
					Body:   body,
				}
				if pieces != nil {
					msg.Dest = &wire.Vec{N: int(r.bytes), Pieces: pieces}
				}
				return msg, nil
			},
			func(i int, resp wire.Message) error {
				defer resp.Release()
				r := &p.reqs[i]
				if int64(resp.BodyLen) != r.bytes {
					return fmt.Errorf("pvfs: list read returned %d bytes, want %d", resp.BodyLen, r.bytes)
				}
				f.fs.stats.BytesIn.Add(r.bytes)
				f.fs.stats.List.Bytes.Add(r.bytes)
				if resp.Body == nil {
					return nil // the body landed in the arena: the request's Dest
				}
				return smap.ScatterPieces(arena, resp.Body, p.stream[r.lo:r.hi])
			})
	})
}

// writeList is the list-I/O write datapath, with the same global
// 64-entry batching and per-server pipelining as readList; smap is the
// stream map of mem. A request's payload goes to the socket from the
// caller's buffer where each of its file regions is one extent of it,
// and is gathered into the pooled request body otherwise (see
// listWriteRequest); no staging copy of the transfer is built either
// way.
func (f *File) writeList(ctx context.Context, arena []byte, smap *memio.StreamMap, mem, file ioseg.List, opts ListOptions, window int) error {
	if err := checkMapped(arena, smap, mem, file); err != nil {
		return err
	}
	entries, err := listEntries(mem, file, opts.Granularity)
	if err != nil {
		return err
	}
	plans := f.planList(entries, opts.maxRegions())
	err = parallel(plans, func(p *planServer) error {
		addr := f.info.IODAddrs[p.rel]
		return f.fs.pipelineCalls(ctx, addr, len(p.reqs), window,
			func(i int) (wire.Message, error) {
				return f.listWriteRequest(p, &p.reqs[i], smap, arena)
			},
			func(i int, resp wire.Message) error {
				resp.Release()
				return nil
			})
	})
	if err != nil {
		return err
	}
	if span, ok := file.Span(); ok {
		f.noteWritten(span.End())
	}
	return nil
}

// arenaPieces returns the arena extents request r's bytes live in,
// one per region, when every region of the request is one extent of the
// arena — nil or contiguous Mem, or Mem one to one with File: the Vec
// arm of list I/O, whose payload (write) or response body (read) moves
// between the socket and the arena with no copy. It returns nil at the
// first region that maps to more pieces than that (FLASH-shaped
// memory), whose bytes take the gather or scatter copy instead: the
// arm is chosen per request, and the wire bytes are the same either way.
func (p *planServer) arenaPieces(r *subReq, smap *memio.StreamMap, arena []byte) ([][]byte, error) {
	pieces := make([][]byte, 0, r.hi-r.lo)
	for k, s := range p.stream[r.lo:r.hi] {
		var err error
		pieces, err = smap.AppendPieces(pieces, arena, s.Pos, s.Len)
		if err != nil {
			return nil, err
		}
		if len(pieces) > k+1 {
			return nil, nil
		}
	}
	return pieces, nil
}

// listWriteRequest builds request r of server plan p: the region
// descriptors, then the regions' bytes in order. On the Vec arm
// (arenaPieces) the bytes stay in the arena and the payload is a
// wire.Vec over them (one writev on a TCP connection, a coalesced copy
// on a wrapped one, replayable verbatim on retry); otherwise the
// payload is gathered into the pooled body.
func (f *File) listWriteRequest(p *planServer, r *subReq, smap *memio.StreamMap, arena []byte) (wire.Message, error) {
	regions := p.phys[r.lo:r.hi]
	pieces, err := p.arenaPieces(r, smap, arena)
	if err != nil {
		return wire.Message{}, err
	}
	vec := pieces != nil
	size := wire.TrailingDataSize(len(regions))
	if !vec {
		size += int(r.bytes)
	}
	body, err := wire.AppendRegions(wire.GetBuf(size)[:0], regions)
	if err != nil {
		wire.PutBuf(body)
		return wire.Message{}, err
	}
	msg := wire.Message{Header: wire.Header{Type: wire.TWriteList, Handle: f.info.Handle}}
	if vec {
		msg.BodyStream = &wire.Vec{N: int(r.bytes), Pieces: pieces}
	} else if body, err = smap.GatherPieces(body, arena, p.stream[r.lo:r.hi]); err != nil {
		wire.PutBuf(body)
		return wire.Message{}, err
	}
	msg.Body = body
	f.fs.stats.Requests.Add(1)
	f.fs.stats.List.Requests.Add(1)
	f.fs.stats.List.Bytes.Add(r.bytes)
	f.fs.stats.BytesOut.Add(r.bytes)
	return msg, nil
}
