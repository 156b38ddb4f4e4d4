// Package mpiio provides an MPI-IO (ROMIO)-style layer over the PVFS
// client: file views described by derived datatypes, with hints
// selecting how noncontiguous accesses reach the file system.
//
// The paper positions list I/O exactly here (§1, §3): "MPI-IO allows
// users to describe noncontiguous data access patterns but is limited
// in its ability to improve application performance if support for
// noncontiguous access is not present at the file system level." This
// package is that upper layer: applications set a view (displacement,
// etype, filetype) and read/write linear buffers; the layer converts
// view accesses into one client.Request each — the view type itself
// when it can travel as a datatype, a file region list otherwise — and
// runs it with the method the hints select: the ROMIO knobs the
// paper's evaluation compares.
package mpiio

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pvfs/internal/client"
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
)

// Hints mirrors the ROMIO info keys relevant to the paper.
type Hints struct {
	// Method selects the noncontiguous strategy. The zero value,
	// client.AccessAuto, ships the view type itself to the I/O daemons
	// (DESIGN.md §6) when the access covers whole filetype tiles the
	// wire codec can carry, and uses list I/O otherwise; AccessDatatype
	// behaves the same. AccessList forces list I/O, AccessSieve data
	// sieving (romio_ds_read/write enable), AccessMultiple one request
	// per piece (both disabled), AccessHybrid the list+sieve coalescing
	// of §5.
	Method client.AccessMethod
	// SieveBufferBytes is ROMIO's ind_rd_buffer_size analog
	// (0 = the paper's 32 MB).
	SieveBufferBytes int64
	// CoalesceGapBytes is the hybrid method's coalescing gap.
	CoalesceGapBytes int64
	// DatatypeOptions tunes the datatype path when it is taken.
	DatatypeOptions client.DatatypeOptions
}

// File is an open file with an MPI-IO view.
type File struct {
	f     *client.File
	hints Hints

	disp     int64
	etype    datatype.Type
	filetype datatype.Type

	// tileData and tileExtent are the filetype's data size and extent.
	tileData   int64
	tileExtent int64

	cursor int64 // sequential position, in bytes of view data space
}

// Open wraps an already-open PVFS file with the default view
// (etype = filetype = bytes: the file is a linear byte stream).
func Open(f *client.File, hints Hints) *File {
	m := &File{f: f, hints: hints}
	// Default view: contiguous bytes.
	m.mustSetView(0, datatype.Bytes(1), datatype.Bytes(1))
	return m
}

func (m *File) mustSetView(disp int64, etype, filetype datatype.Type) {
	if err := m.SetView(disp, etype, filetype); err != nil {
		panic(err)
	}
}

// SetView installs a view: file data visible to this process starts
// at byte disp and is tiled by filetype repeated end to end; etype is
// the element unit (offsets are expressed in etypes, as in MPI).
func (m *File) SetView(disp int64, etype, filetype datatype.Type) error {
	if disp < 0 {
		return errors.New("mpiio: negative displacement")
	}
	if etype == nil || filetype == nil {
		return errors.New("mpiio: nil type")
	}
	es, fs := etype.Size(), filetype.Size()
	if es <= 0 || fs <= 0 {
		return errors.New("mpiio: zero-size type in view")
	}
	if fs%es != 0 {
		return fmt.Errorf("mpiio: filetype size %d not a multiple of etype size %d", fs, es)
	}
	m.disp = disp
	m.etype = etype
	m.filetype = filetype
	m.tileData = fs
	m.tileExtent = filetype.Extent()
	m.cursor = 0
	return nil
}

// View returns the current (disp, etype, filetype).
func (m *File) View() (int64, datatype.Type, datatype.Type) {
	return m.disp, m.etype, m.filetype
}

// regionsFor maps [dataOff, dataOff+n) bytes of view data space to
// absolute file regions in stream order: the walk of the filetype tiles
// from disp, sought to dataOff and clipped to n bytes — the regions the
// daemons evaluate for the same bytes on the datatype path.
func (m *File) regionsFor(dataOff, n int64) (ioseg.List, error) {
	if dataOff < 0 || n < 0 || n > math.MaxInt64-dataOff {
		return nil, fmt.Errorf("mpiio: view range [%d, +%d) out of range", dataOff, n)
	}
	if n == 0 {
		return nil, nil
	}
	tiles := (dataOff+n-1)/m.tileData + 1
	if _, _, err := datatype.DataLen(m.filetype, m.disp, tiles); err != nil {
		return nil, fmt.Errorf("mpiio: %w", err)
	}
	var out ioseg.List
	datatype.WalkRepeated(m.filetype, m.disp, tiles, dataOff, func(s ioseg.Segment) bool {
		s.Length = min(s.Length, n)
		n -= s.Length
		out = append(out, s)
		return n > 0
	})
	return out, nil
}

// datatypePattern reports whether the view access [dataOff,
// dataOff+n) is expressible as a wire datatype pattern: it must cover
// whole filetype tiles (the repetition unit the daemons evaluate) and
// the filetype must survive the wire codec's limits. This is the
// selection function of the datatype routing — expressible accesses
// ship the view type itself; everything else falls back to the
// flattened region-list methods.
func (m *File) datatypePattern(dataOff, n int64) (t datatype.Type, base, count int64, ok bool) {
	if n <= 0 || dataOff%m.tileData != 0 || n%m.tileData != 0 {
		return nil, 0, 0, false
	}
	if datatype.CanEncode(m.filetype) != nil {
		return nil, 0, 0, false
	}
	tile := dataOff / m.tileData
	return m.filetype, m.disp + tile*m.tileExtent, n / m.tileData, true
}

// dispatchView runs one view transfer of [dataOff, dataOff+n) bytes
// of view data space as one client.Request (see viewRequest).
func (m *File) dispatchView(buf []byte, dataOff, n int64, write bool) error {
	req, err := m.viewRequest(buf, dataOff, n, write)
	if err != nil {
		return err
	}
	_, err = m.f.Run(context.Background(), req)
	return err
}

// viewRequest translates a view access into its client.Request. Under
// the auto and datatype methods an expressible access takes the
// datatype path — the view type crosses the wire un-flattened, so
// neither the client nor the request stream ever holds the region list
// — and anything else is flattened through regionsFor and goes to list
// I/O; the other methods always take the flattened regions.
func (m *File) viewRequest(buf []byte, dataOff, n int64, write bool) (client.Request, error) {
	req := client.Request{
		Write:       write,
		Arena:       buf,
		Mem:         ioseg.List{{Offset: 0, Length: n}},
		Method:      m.hints.Method,
		Sieve:       client.SieveOptions{BufferSize: m.hints.SieveBufferBytes},
		Datatype:    m.hints.DatatypeOptions,
		CoalesceGap: m.hints.CoalesceGapBytes,
	}
	if req.Method == client.AccessAuto || req.Method == client.AccessDatatype {
		if t, base, count, ok := m.datatypePattern(dataOff, n); ok {
			req.Type, req.Base, req.Count = t, base, count
			req.Method = client.AccessDatatype
			return req, nil
		}
		req.Method = client.AccessList
	}
	file, err := m.regionsFor(dataOff, n)
	if err != nil {
		return client.Request{}, err
	}
	if file == nil {
		file = ioseg.List{} // empty transfer: a present-but-empty layout
	}
	req.File = file
	req.Mem = ioseg.List{{Offset: 0, Length: int64(len(buf))}}
	return req, nil
}

// ReadAtEtype reads len(buf) bytes at an offset given in etypes of
// view data space (MPI_File_read_at).
func (m *File) ReadAtEtype(buf []byte, etypeOff int64) error {
	if int64(len(buf))%m.etype.Size() != 0 {
		return fmt.Errorf("mpiio: buffer %d bytes is not whole etypes of %d", len(buf), m.etype.Size())
	}
	return m.dispatchView(buf, etypeOff*m.etype.Size(), int64(len(buf)), false)
}

// WriteAtEtype writes len(buf) bytes at an etype offset
// (MPI_File_write_at).
func (m *File) WriteAtEtype(buf []byte, etypeOff int64) error {
	if int64(len(buf))%m.etype.Size() != 0 {
		return fmt.Errorf("mpiio: buffer %d bytes is not whole etypes of %d", len(buf), m.etype.Size())
	}
	return m.dispatchView(buf, etypeOff*m.etype.Size(), int64(len(buf)), true)
}

// Read reads sequentially at the view cursor (MPI_File_read).
func (m *File) Read(buf []byte) error {
	if err := m.dispatchView(buf, m.cursor, int64(len(buf)), false); err != nil {
		return err
	}
	m.cursor += int64(len(buf))
	return nil
}

// Write writes sequentially at the view cursor (MPI_File_write).
func (m *File) Write(buf []byte) error {
	if err := m.dispatchView(buf, m.cursor, int64(len(buf)), true); err != nil {
		return err
	}
	m.cursor += int64(len(buf))
	return nil
}

// SeekEtype positions the cursor at an etype offset in view space.
func (m *File) SeekEtype(etypeOff int64) error {
	if etypeOff < 0 {
		return errors.New("mpiio: negative seek")
	}
	m.cursor = etypeOff * m.etype.Size()
	return nil
}

// Underlying exposes the wrapped PVFS file.
func (m *File) Underlying() *client.File { return m.f }
