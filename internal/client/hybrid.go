package client

import (
	"context"

	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
)

// The hybrid list+sieve method of the paper's conclusion (§5): "if two
// noncontiguous regions are close to each other, a data sieving
// operation may take place for just those particular regions". Nearby
// file regions are coalesced (gap bytes travel as extra payload) and
// the coalesced extents are fetched with list I/O.

// readHybrid is the hybrid read datapath (see AccessHybrid).
func (f *File) readHybrid(ctx context.Context, arena []byte, mem, file ioseg.List, gap int64, opts ListOptions, window int) (SieveStats, error) {
	var st SieveStats
	if err := checkLists(arena, mem, file); err != nil {
		return st, err
	}
	coalesced := file.Normalize().Coalesce(gap)
	tmp := make([]byte, coalesced.TotalLength())
	if err := f.moveExtents(ctx, false, tmp, coalesced, opts, window); err != nil {
		return st, err
	}
	// Extract the requested regions from each coalesced extent into
	// the stream, then scatter to memory.
	stream := make([]byte, file.TotalLength())
	var base int64
	for _, e := range coalesced {
		useful, err := memio.ExtractWindow(stream, file, tmp[base:base+e.Length], e)
		if err != nil {
			return st, err
		}
		st.Windows++
		st.BytesAccessed += e.Length
		st.BytesUseful += useful
		base += e.Length
	}
	if err := memio.Scatter(arena, mem, stream); err != nil {
		return st, err
	}
	return st, nil
}

// writeHybrid writes through coalesced extents: each extent is read
// (list I/O), updated in memory, and written back (list I/O) —
// read-modify-write at extent rather than buffer granularity.
func (f *File) writeHybrid(ctx context.Context, arena []byte, mem, file ioseg.List, gap int64, opts ListOptions, window int) (SieveStats, error) {
	var st SieveStats
	if err := checkLists(arena, mem, file); err != nil {
		return st, err
	}
	stream, err := memio.Gather(arena, mem)
	if err != nil {
		return st, err
	}
	coalesced := file.Normalize().Coalesce(gap)
	tmp := make([]byte, coalesced.TotalLength())

	// Read-modify-write is only needed where coalescing swallowed
	// gaps; with gap==0 the coalesced extents are exactly covered.
	rmw := coalesced.TotalLength() != file.TotalLength()
	if rmw {
		if err := f.moveExtents(ctx, false, tmp, coalesced, opts, window); err != nil {
			return st, err
		}
		st.BytesAccessed += coalesced.TotalLength()
	}
	var base int64
	for _, e := range coalesced {
		useful, err := memio.InjectWindow(tmp[base:base+e.Length], stream, file, e)
		if err != nil {
			return st, err
		}
		st.Windows++
		st.BytesUseful += useful
		base += e.Length
	}
	if err := f.moveExtents(ctx, true, tmp, coalesced, opts, window); err != nil {
		return st, err
	}
	st.BytesAccessed += coalesced.TotalLength()
	return st, nil
}

// moveExtents moves the coalesced extents, back to back in tmp, with
// list I/O.
func (f *File) moveExtents(ctx context.Context, write bool, tmp []byte, extents ioseg.List, opts ListOptions, window int) error {
	mem := ioseg.List{{Offset: 0, Length: int64(len(tmp))}}
	x, err := f.planList(write, tmp, memio.NewStreamMap(mem), mem, extents, opts, window)
	if err != nil {
		return err
	}
	return f.move(ctx, x)
}
