package client

import (
	"context"

	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
)

// The hybrid list+sieve method of the paper's conclusion (§5): "if two
// noncontiguous regions are close to each other, a data sieving
// operation may take place for just those particular regions". Nearby
// file regions are coalesced (gap bytes travel as extra payload) and
// the coalesced extents are fetched with list I/O.

// ReadHybrid reads the noncontiguous pattern by coalescing file
// regions whose gaps are at most gap bytes and issuing list I/O on the
// coalesced extents, sieving the wanted bytes out client-side. It is a
// synchronous wrapper over Start.
func (f *File) ReadHybrid(arena []byte, mem, file ioseg.List, gap int64, opts ListOptions) (SieveStats, error) {
	res, err := f.Run(context.Background(), Request{
		Arena: arena, Mem: mem, File: file,
		Method: AccessHybrid, CoalesceGap: gap, List: opts,
	})
	return res.Sieve, err
}

// WriteHybrid writes the pattern through coalesced extents: each
// extent is read (list I/O), updated in memory, and written back (list
// I/O) — read-modify-write at extent rather than buffer granularity.
// Like data sieving writes, concurrent writers to overlapping extents
// must be serialized by the caller (PVFS has no locks, §4.2.1); gap=0
// coalesces only adjacent regions and performs no read-modify-write.
func (f *File) WriteHybrid(arena []byte, mem, file ioseg.List, gap int64, opts ListOptions) (SieveStats, error) {
	res, err := f.Run(context.Background(), Request{
		Write: true, Arena: arena, Mem: mem, File: file,
		Method: AccessHybrid, CoalesceGap: gap, List: opts,
	})
	return res.Sieve, err
}

// readHybrid is the hybrid datapath shared by Start and the legacy
// wrappers.
func (f *File) readHybrid(ctx context.Context, arena []byte, mem, file ioseg.List, gap int64, opts ListOptions) (SieveStats, error) {
	var st SieveStats
	if err := checkLists(arena, mem, file); err != nil {
		return st, err
	}
	coalesced := file.Normalize().Coalesce(gap)
	tmp := make([]byte, coalesced.TotalLength())
	tmpMem := ioseg.List{{Offset: 0, Length: coalesced.TotalLength()}}
	if err := f.readList(ctx, tmp, memio.NewStreamMap(tmpMem), tmpMem, coalesced, opts); err != nil {
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

func (f *File) writeHybrid(ctx context.Context, arena []byte, mem, file ioseg.List, gap int64, opts ListOptions) (SieveStats, error) {
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
	tmpMem := ioseg.List{{Offset: 0, Length: coalesced.TotalLength()}}
	tmpMap := memio.NewStreamMap(tmpMem)

	// Read-modify-write is only needed where coalescing swallowed
	// gaps; with gap==0 the coalesced extents are exactly covered.
	rmw := coalesced.TotalLength() != file.TotalLength()
	if rmw {
		if err := f.readList(ctx, tmp, tmpMap, tmpMem, coalesced, opts); err != nil {
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
	if err := f.writeList(ctx, tmp, tmpMap, tmpMem, coalesced, opts); err != nil {
		return st, err
	}
	st.BytesAccessed += coalesced.TotalLength()
	return st, nil
}

// ReadType reads the file regions described by an MPI-style datatype
// at a base offset into a contiguous buffer — the descriptive request
// language of §5. It is a wrapper over Start with a datatype-layout
// Request left on auto method selection: types the wire codec can
// carry ship un-flattened down the datatype path (DESIGN.md §6);
// anything past the codec's limits flattens to list I/O.
func (f *File) ReadType(arena []byte, t datatype.Type, base int64, opts ListOptions) error {
	_, err := f.Run(context.Background(), Request{
		Arena: arena, Type: t, Base: base, Count: 1,
		List: opts, Datatype: DatatypeOptions{Window: opts.Window},
	})
	return err
}

// WriteType writes a contiguous buffer into the file regions described
// by a datatype at a base offset (see ReadType for routing).
func (f *File) WriteType(arena []byte, t datatype.Type, base int64, opts ListOptions) error {
	_, err := f.Run(context.Background(), Request{
		Write: true, Arena: arena, Type: t, Base: base, Count: 1,
		List: opts, Datatype: DatatypeOptions{Window: opts.Window},
	})
	return err
}
