package client

import (
	"context"

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

// readSieve is the data sieving read datapath (see AccessSieve).
func (f *File) readSieve(ctx context.Context, arena []byte, mem, file ioseg.List, opts SieveOptions) (SieveStats, error) {
	var st SieveStats
	if err := checkLists(arena, mem, file); err != nil {
		return st, err
	}
	stream := make([]byte, file.TotalLength())
	buf := make([]byte, 0)
	for _, w := range SieveWindows(file, opts.bufferSize()) {
		if int64(cap(buf)) < w.Length {
			buf = make([]byte, w.Length)
		}
		buf = buf[:w.Length]
		if err := f.contig(ctx, false, buf, w.Offset, &f.fs.stats.Sieve); err != nil {
			return st, err
		}
		useful, err := memio.ExtractWindow(stream, file, buf, w)
		if err != nil {
			return st, err
		}
		st.Windows++
		st.BytesAccessed += w.Length
		st.BytesUseful += useful
	}
	if err := memio.Scatter(arena, mem, stream); err != nil {
		return st, err
	}
	return st, nil
}

// writeSieve is the data sieving write: read-modify-write of each
// window.
func (f *File) writeSieve(ctx context.Context, arena []byte, mem, file ioseg.List, opts SieveOptions) (SieveStats, error) {
	var st SieveStats
	if err := checkLists(arena, mem, file); err != nil {
		return st, err
	}
	stream, err := memio.Gather(arena, mem)
	if err != nil {
		return st, err
	}
	buf := make([]byte, 0)
	for _, w := range SieveWindows(file, opts.bufferSize()) {
		if int64(cap(buf)) < w.Length {
			buf = make([]byte, w.Length)
		}
		buf = buf[:w.Length]
		// Read-modify-write: fetch the window, inject the regions,
		// write the whole window back.
		if err := f.contig(ctx, false, buf, w.Offset, &f.fs.stats.Sieve); err != nil {
			return st, err
		}
		useful, err := memio.InjectWindow(buf, stream, file, w)
		if err != nil {
			return st, err
		}
		if err := f.contig(ctx, true, buf, w.Offset, &f.fs.stats.Sieve); err != nil {
			return st, err
		}
		st.Windows++
		st.BytesAccessed += 2 * w.Length // read + write back
		st.BytesUseful += useful
	}
	return st, nil
}
