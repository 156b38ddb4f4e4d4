// Package sysvec is the one vectored-syscall shim of the repository:
// the positioned scatter/gather of a stripe file (Preadv, Pwritev, for
// internal/store) and the scatter of a socket's bytes into caller
// memory (Scatter.ReadFull, for internal/wire). The x/sys module is not
// a dependency, so on 64-bit Linux the raw syscalls are issued directly
// over one iovec builder (sysvec_linux.go); every other platform takes
// the per-buffer loops of sysvec_portable.go, with the same semantics
// and an honest syscall count. This is the only package that imports
// unsafe.
package sysvec

import "io"

// spanLen sums buffer lengths, the byte count of a vectored transfer.
func spanLen(bufs [][]byte) int {
	var n int
	for _, b := range bufs {
		n += len(b)
	}
	return n
}

// readPieces fills bufs in order with one io.ReadFull per buffer: the
// path of a lone buffer, of every reader that is not a TCP connection
// (fault-injecting wrappers, tests) and of every platform without
// readv. An end of stream anywhere is unexpected, since the caller
// asked for the bytes.
func readPieces(r io.Reader, bufs [][]byte) (int, error) {
	done := 0
	for _, b := range bufs {
		n, err := io.ReadFull(r, b)
		done += n
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return done, err
		}
	}
	return done, nil
}
