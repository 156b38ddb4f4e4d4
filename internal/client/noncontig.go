package client

import (
	"context"
	"fmt"

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
// the flat lists (contig, multiple). They build no stream map, so the
// memory list is checked where it lies, without allocating.
func checkLists(arena []byte, mem, file ioseg.List) error {
	total, err := checkMem(arena, mem)
	if err != nil {
		return err
	}
	return checkFileList(total, file)
}

// checkMem validates a memory list where it lies, without allocating,
// holds it to the arena and returns its overflow-checked byte total.
func checkMem(arena []byte, mem ioseg.List) (int64, error) {
	if err := mem.Validate(); err != nil {
		return 0, fmt.Errorf("pvfs: memory list: %w", err)
	}
	total, err := mem.TotalLengthChecked()
	if err != nil {
		return 0, fmt.Errorf("pvfs: memory list: %w", err)
	}
	return total, checkArena(arena, mem)
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

// multiple is the multiple-I/O datapath (see AccessMultiple): one
// contiguous transfer per piece that is contiguous in both memory and
// file.
func (f *File) multiple(ctx context.Context, write bool, arena []byte, mem, file ioseg.List) error {
	if err := checkLists(arena, mem, file); err != nil {
		return err
	}
	pairs, err := memio.Match(mem, file)
	if err != nil {
		return err
	}
	for _, pr := range pairs {
		if err := f.contig(ctx, write, arena[pr.Mem.Offset:pr.Mem.End()], pr.File.Offset, &f.fs.stats.Multiple); err != nil {
			return err
		}
	}
	return nil
}

// --- list I/O (§3.3) ---

// planList plans list I/O of the file regions from the arena regions
// mem; smap is the stream map of mem. Request formation is exactly the
// paper's arithmetic — the entry list is cut into batches of at most
// MaxRegions entries (§3.3), each batch splits across servers by
// striping, and a server's share of one batch is sub-batched
// defensively at the wire limit — so request counts are identical to
// the serialized implementation; only the issue discipline (pipelined,
// window requests in flight per server, vs barriered) differs.
func (f *File) planList(write bool, arena []byte, smap *memio.StreamMap, mem, file ioseg.List, opts ListOptions, window int) (*transfer, error) {
	if err := checkMapped(arena, smap, mem, file); err != nil {
		return nil, err
	}
	entries, err := listEntries(mem, file, opts.Granularity)
	if err != nil {
		return nil, err
	}
	x := &transfer{write: write, arena: arena, smap: smap, window: window, path: &f.fs.stats.List}
	typ := wire.TReadList
	if write {
		typ = wire.TWriteList
		if span, ok := file.Span(); ok {
			x.end = span.End()
		}
	}
	cfg := f.info.Striping
	plans := newPlanServers(cfg, typ)
	var stream int64
	maxRegions := opts.maxRegions()
	batchLeft := maxRegions
	for _, s := range entries {
		if batchLeft == 0 { // batch boundary: no request spans it
			plans.cutAll()
			batchLeft = maxRegions
		}
		batchLeft--
		entry := s
		cfg.SplitFunc(entry, func(p striping.Piece) {
			ps := plans.get(p.Server)
			if len(ps.phys)-ps.openLo == wire.MaxRegionsPerRequest {
				ps.cut()
			}
			ps.add(p.Phys, stream+(p.Logical.Offset-entry.Offset))
		})
		stream += s.Length
	}
	x.scheds = plans.schedules()
	return x, nil
}
