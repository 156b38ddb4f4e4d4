// Zero-copy read streaming (DESIGN.md §11). A FileStream hands a
// contiguous file range straight to a socket: sendfile(2) on Linux
// moves the bytes kernel-side — file page cache to socket buffer —
// without ever visiting a user-space buffer, which is the last copy
// the vectored datapath still paid on large reads. The stream
// satisfies wire.BodyStream structurally (Len + WriteTo) so this
// package needs no wire import.
package store

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// FileStreamer is implemented by stores that can hand out a zero-copy
// reader for a contiguous file range. Only the uncached Dir implements
// it: a write-back cache must never let the socket bypass dirty
// blocks, so Cache deliberately does not forward it, and the daemon's
// type assertion naturally disables streaming on cached stores.
type FileStreamer interface {
	StreamReader(handle uint64, off, n int64) (*FileStream, error)
}

// FileStream streams n bytes of a stripe file starting at off, with
// sparse semantics: bytes past the file's current size are delivered
// as zeros, exactly like ReadAt. It implements wire.BodyStream.
type FileStream struct {
	d     *Dir
	f     *os.File
	off   int64
	n     int64 // total bytes promised (Len)
	avail int64 // bytes actually present in the file at creation
}

// StreamReader implements FileStreamer. A handle with no stripe file
// gets an fs.ErrNotExist error and is not created; the daemon then
// answers through the buffered path, which reads zeros. The returned
// stream snapshots the file's size once; a concurrent truncate
// mid-stream delivers zeros for the vanished tail (the same
// indeterminacy any concurrent read/truncate race has).
func (d *Dir) StreamReader(handle uint64, off, n int64) (*FileStream, error) {
	if n < 0 || off < 0 || off > int64(MaxFileSize)-n {
		return nil, fmt.Errorf("store: stream extent [%d,+%d) invalid", off, n)
	}
	f, err := d.file(handle, false)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	avail := st.Size() - off
	if avail < 0 {
		avail = 0
	}
	if avail > n {
		avail = n
	}
	return &FileStream{d: d, f: f, off: off, n: n, avail: avail}, nil
}

// Len implements wire.BodyStream.
func (s *FileStream) Len() int { return int(s.n) }

// streamBufPool backs the buffered fallback (and the zero tail) with
// reusable chunks so streaming never allocates per request.
var streamBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 256<<10)
		return &b
	},
}

// WriteTo implements wire.BodyStream: sendfile for the in-file bytes
// where the writer exposes a socket descriptor (stream_linux.go), a
// pooled-buffer copy loop otherwise, then a zeroed tail for the sparse
// remainder. Exactly Len bytes are delivered on success.
func (s *FileStream) WriteTo(w io.Writer) (int64, error) {
	var written int64
	if s.avail > 0 {
		n, nsys, handled, err := sendfileTo(w, s.f, s.off, s.avail)
		written += n
		if handled {
			// Kernel-side move: syscalls and bytes counted, no copy.
			s.d.countReadZC(nsys, n)
			if err != nil {
				return written, err
			}
		} else {
			n, err := s.copyTo(w, s.off+written, s.avail-written)
			written += n
			if err != nil {
				return written, err
			}
		}
		// A concurrent truncate can shrink the file mid-stream; the
		// frame already promised n bytes, so the gap rides the zero
		// tail below like any other hole.
	}
	if written < s.n {
		bp := streamBufPool.Get().(*[]byte)
		defer streamBufPool.Put(bp)
		zeros := (*bp)[:cap(*bp)]
		for i := range zeros {
			zeros[i] = 0
		}
		for written < s.n {
			chunk := s.n - written
			if chunk > int64(len(zeros)) {
				chunk = int64(len(zeros))
			}
			m, err := w.Write(zeros[:chunk])
			written += int64(m)
			if err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// copyTo is the buffered fallback: pooled-chunk pread + socket write.
// It counts copied bytes — the cost the sendfile path avoids.
func (s *FileStream) copyTo(w io.Writer, off, n int64) (int64, error) {
	bp := streamBufPool.Get().(*[]byte)
	defer streamBufPool.Put(bp)
	buf := (*bp)[:cap(*bp)]
	var written int64
	for written < n {
		chunk := n - written
		if chunk > int64(len(buf)) {
			chunk = int64(len(buf))
		}
		rn, err := s.f.ReadAt(buf[:chunk], off+written)
		s.d.countRead(1, int64(rn))
		if rn > 0 {
			wn, werr := w.Write(buf[:rn])
			written += int64(wn)
			if werr != nil {
				return written, werr
			}
		}
		if err == io.EOF {
			// Shrunk mid-stream: the caller zero-fills the rest.
			return written, nil
		}
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
