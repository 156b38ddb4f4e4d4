package client

import (
	"context"
	"sort"

	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
)

// DefaultSieveBuffer is the data sieving buffer size used throughout
// the paper's experiments (32 MB, §3.2).
const DefaultSieveBuffer = 32 << 20

// SieveOptions tunes data sieving I/O.
type SieveOptions struct {
	// BufferSize of the client-side sieve buffer; 0 selects the
	// paper's 32 MB default.
	BufferSize int64
}

func (o SieveOptions) bufferSize() int64 {
	if o.BufferSize <= 0 {
		return DefaultSieveBuffer
	}
	return o.BufferSize
}

// SieveStats reports the data movement of a sieving operation — in
// particular the impertinent ("useless") bytes transferred, the cost
// the paper attributes to sieving on sparse patterns (§3.4).
type SieveStats struct {
	Windows       int   // contiguous buffer operations performed
	BytesAccessed int64 // bytes moved over the network (per direction)
	BytesUseful   int64 // bytes belonging to requested regions
}

// UselessFraction is the share of accessed bytes that were not wanted.
func (s SieveStats) UselessFraction() float64 {
	if s.BytesAccessed == 0 {
		return 0
	}
	return 1 - float64(s.BytesUseful)/float64(s.BytesAccessed)
}

// SieveWindows plans the contiguous windows covering the (normalized)
// file regions: each window starts at the next needed byte and spans
// at most bufSize bytes, as ROMIO's data sieving does. Windows never
// overlap, jointly cover every region byte, and skip runs of the file
// that contain no wanted data.
func SieveWindows(file ioseg.List, bufSize int64) []ioseg.Segment {
	sorted := file.Normalize()
	var windows []ioseg.Segment
	i := 0
	var pos int64
	if len(sorted) > 0 {
		pos = sorted[0].Offset
	}
	for i < len(sorted) {
		// Advance past regions fully covered by earlier windows.
		for i < len(sorted) && sorted[i].End() <= pos {
			i++
		}
		if i == len(sorted) {
			break
		}
		ws := sorted[i].Offset
		if pos > ws {
			ws = pos
		}
		wend := ws + bufSize
		// The window ends at the last needed byte before wend.
		we := ws
		for j := i; j < len(sorted) && sorted[j].Offset < wend; j++ {
			e := sorted[j].End()
			if e > wend {
				e = wend
			}
			if e > we {
				we = e
			}
			if sorted[j].End() > wend {
				break
			}
		}
		windows = append(windows, ioseg.Segment{Offset: ws, Length: we - ws})
		pos = we
	}
	return windows
}

// sieve runs an AccessSieve or AccessHybrid request; both are data
// sieving. Hybrid is the list+sieve method of the paper's conclusion
// (§5): "if two noncontiguous regions are close to each other, a data
// sieving operation may take place for just those particular regions".
// Its one chunk is the file regions coalesced across gaps of at most
// CoalesceGap bytes, moved by list I/O. The layout is validated through
// the stream map, as list and datatype I/O validate theirs.
func (f *File) sieve(ctx context.Context, req Request, rv resolved) (SieveStats, error) {
	smap := memio.NewStreamMap(rv.mem)
	if err := checkMapped(req.Arena, smap, rv.mem, rv.file); err != nil {
		return SieveStats{}, err
	}
	norm := rv.file.Normalize()
	if rv.method == AccessSieve {
		// Each buffer fill is one window, one contiguous transfer.
		windows := SieveWindows(norm, req.Sieve.bufferSize())
		chunks := make([]ioseg.List, len(windows))
		for i := range windows {
			chunks[i] = windows[i : i+1]
		}
		return sieveChunks(ctx, req.Write, req.Arena, smap, rv.file, norm, chunks,
			func(ctx context.Context, write bool, buf []byte, chunk ioseg.List) error {
				return f.contig(ctx, write, buf, chunk[0].Offset, &f.fs.stats.Sieve)
			})
	}
	extents := norm.Coalesce(req.CoalesceGap)
	return sieveChunks(ctx, req.Write, req.Arena, smap, rv.file, norm, []ioseg.List{extents},
		func(ctx context.Context, write bool, buf []byte, chunk ioseg.List) error {
			mem := ioseg.List{{Offset: 0, Length: int64(len(buf))}}
			x, err := f.planList(write, buf, memio.NewStreamMap(mem), mem, chunk, req.List, rv.window)
			if err != nil {
				return err
			}
			return f.move(ctx, x)
		})
}

// sieveChunks is the data sieving driver. Each chunk's windows are
// sorted, disjoint file extents that fill one buffer back to back, and
// move moves a chunk between the buffer and the file. A read fetches
// the chunk and copies each region's bytes inside it straight into the
// arena; a write copies them out of the arena into the buffer and
// writes the chunk back, reading it first unless norm, the normalized
// regions, covers every byte of it. Nothing the size of the transfer is
// staged. On error the stats hold the chunks completed.
func sieveChunks(ctx context.Context, write bool, arena []byte, smap *memio.StreamMap, file, norm ioseg.List, chunks []ioseg.List,
	move func(ctx context.Context, write bool, buf []byte, chunk ioseg.List) error) (SieveStats, error) {
	var st SieveStats
	var buf []byte
	for _, chunk := range chunks {
		n := chunk.TotalLength()
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		var accessed int64
		if !write || !covers(norm, chunk) {
			if err := move(ctx, false, buf, chunk); err != nil {
				return st, err
			}
			accessed += n
		}
		useful, err := copyChunk(write, arena, smap, file, buf, chunk)
		if err != nil {
			return st, err
		}
		if write {
			if err := move(ctx, true, buf, chunk); err != nil {
				return st, err
			}
			accessed += n
		}
		st.Windows += len(chunk)
		st.BytesAccessed += accessed
		st.BytesUseful += useful
	}
	return st, nil
}

// covers reports whether the normalized regions norm cover every byte
// of the windows in chunk. Normalizing merged abutting regions, so a
// window is covered only when one region contains it.
func covers(norm, chunk ioseg.List) bool {
	for _, w := range chunk {
		i := sort.Search(len(norm), func(i int) bool { return norm[i].End() > w.Offset })
		if i == len(norm) || norm[i].Offset > w.Offset || norm[i].End() < w.End() {
			return false
		}
	}
	return true
}

// copyChunk copies each file region's bytes inside chunk between buf,
// which holds chunk's windows back to back, and the arena extents the
// region's stream positions map to: into the arena for a read, out of
// it for a write. It returns the bytes copied.
func copyChunk(write bool, arena []byte, smap *memio.StreamMap, file ioseg.List, buf []byte, chunk ioseg.List) (int64, error) {
	base := make([]int64, len(chunk)) // buf offset of each window
	for i := 1; i < len(chunk); i++ {
		base[i] = base[i-1] + chunk[i-1].Length
	}
	var copied, pos int64
	for _, s := range file {
		i := sort.Search(len(chunk), func(i int) bool { return chunk[i].End() > s.Offset })
		for ; i < len(chunk); i++ {
			c, ok := s.Intersect(chunk[i])
			if !ok {
				break // the windows are sorted: no later one meets s
			}
			b := base[i] + c.Offset - chunk[i].Offset
			piece := []memio.Piece{{Pos: pos + c.Offset - s.Offset, Len: c.Length}}
			var err error
			if write {
				// Gathering onto the empty slice at b fills buf in place.
				_, err = smap.GatherPieces(buf[b:b:b+c.Length], arena, piece)
			} else {
				err = smap.ScatterPieces(arena, buf[b:b+c.Length], piece)
			}
			if err != nil {
				return copied, err
			}
			copied += c.Length
		}
		pos += s.Length
	}
	return copied, nil
}
