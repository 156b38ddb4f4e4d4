//go:build !(linux && (amd64 || arm64))

// Portable vectored I/O: platforms without the raw
// preadv/pwritev/readv path issue one call per buffer. The semantics —
// sparse zero-fill past EOF on positioned reads, full-span writes,
// every byte of a socket read or an error — are identical to
// sysvec_linux.go; only the syscall count differs, and the counts
// returned report it honestly.
package sysvec

import (
	"io"
	"os"
)

// Preadv fills bufs from the file span starting at off, zero-filling
// past EOF. It returns the bytes delivered (the full span on success)
// and the syscall count.
func Preadv(f *os.File, bufs [][]byte, off int64) (int, int64, error) {
	total := spanLen(bufs)
	pos := off
	var nsys int64
	eof := false
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		if eof {
			for i := range b {
				b[i] = 0
			}
			pos += int64(len(b))
			continue
		}
		nsys++
		n, err := f.ReadAt(b, pos)
		if err == io.EOF {
			for i := n; i < len(b); i++ {
				b[i] = 0
			}
			eof = true
		} else if err != nil {
			return int(pos - off), nsys, err
		}
		pos += int64(len(b))
	}
	return total, nsys, nil
}

// Pwritev gathers bufs into the file span starting at off.
func Pwritev(f *os.File, bufs [][]byte, off int64) (int, int64, error) {
	pos := off
	var nsys int64
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		nsys++
		if _, err := f.WriteAt(b, pos); err != nil {
			return int(pos - off), nsys, err
		}
		pos += int64(len(b))
	}
	return int(pos - off), nsys, nil
}

// Scatter fills caller buffers from a reader; here it keeps no state.
type Scatter struct{}

// ReadFull fills every byte of bufs from r, in order, with one
// io.ReadFull per buffer, and returns the bytes read: fewer than the
// total only with an error.
func (*Scatter) ReadFull(r io.Reader, bufs [][]byte) (int, error) {
	return readPieces(r, bufs)
}
