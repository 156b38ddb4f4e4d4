//go:build linux && (amd64 || arm64)

// Vectored I/O through raw preadv/pwritev/readv. The syscall numbers
// and struct iovec are stable parts of the 64-bit Linux ABI on amd64
// and arm64.
package sysvec

import (
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// maxIOV is the kernel's IOV_MAX: the most iovecs one
// preadv/pwritev/readv call accepts. Larger transfers go in chunks.
const maxIOV = 1024

// smallIOV is the most buffers whose iovecs Preadv and Pwritev build
// on the stack; a longer list allocates its array once per call.
const smallIOV = 8

// iovec mirrors struct iovec on linux/amd64 and linux/arm64.
type iovec struct {
	base *byte
	len  uint64
}

// buildIovecs fills iovs from bufs starting at buffer index bi with
// byte skip within that buffer, up to the iovec limit. It returns the
// populated prefix and the total bytes it describes.
func buildIovecs(iovs []iovec, bufs [][]byte, bi, skip int) ([]iovec, int64) {
	iovs = iovs[:0]
	var total int64
	for i := bi; i < len(bufs) && len(iovs) < maxIOV; i++ {
		b := bufs[i]
		if i == bi {
			b = b[skip:]
		}
		if len(b) == 0 {
			continue
		}
		iovs = append(iovs, iovec{base: &b[0], len: uint64(len(b))})
		total += int64(len(b))
	}
	return iovs, total
}

// advance moves the (buffer index, intra-buffer skip) cursor n bytes
// forward across bufs.
func advance(bufs [][]byte, bi, skip, n int) (int, int) {
	for n > 0 && bi < len(bufs) {
		rem := len(bufs[bi]) - skip
		if n < rem {
			return bi, skip + n
		}
		n -= rem
		bi, skip = bi+1, 0
	}
	return bi, skip
}

// zeroFrom zero-fills bufs from the cursor to the end (sparse reads
// past EOF).
func zeroFrom(bufs [][]byte, bi, skip int) {
	for ; bi < len(bufs); bi, skip = bi+1, 0 {
		b := bufs[bi][skip:]
		for i := range b {
			b[i] = 0
		}
	}
}

// consumeIovecs advances the iovec cursor start by n transferred bytes,
// trimming the interrupted iovec in place. It returns the new start
// index. This is what makes short-transfer continuation allocation-
// free: the already-built iovec array is reused with the base/len of
// the partial entry adjusted, instead of rebuilding the whole chain
// from the buffer list.
func consumeIovecs(iovs []iovec, start, n int) int {
	for start < len(iovs) && uint64(n) >= iovs[start].len {
		n -= int(iovs[start].len)
		start++
	}
	if n > 0 && start < len(iovs) {
		iovs[start].base = (*byte)(unsafe.Add(unsafe.Pointer(iovs[start].base), n))
		iovs[start].len -= uint64(n)
	}
	return start
}

// vectorAt issues one preadv or pwritev (by trap number) over as many
// of bufs as fit in one iovec array, at file offset off. It retries on
// EINTR and returns the byte count moved.
func vectorAt(trap uintptr, f *os.File, iovs []iovec, off int64) (int, error) {
	if len(iovs) == 0 {
		return 0, nil
	}
	for {
		// The kernel assembles the offset as pos_low | pos_high<<32
		// (pos_from_hilo); on 64-bit passing the full offset as low
		// and its high half again is the convention x/sys uses.
		n, _, errno := syscall.Syscall6(trap, f.Fd(),
			uintptr(unsafe.Pointer(&iovs[0])), uintptr(len(iovs)),
			uintptr(off), uintptr(uint64(off)>>32), 0)
		if errno == syscall.EINTR {
			continue
		}
		runtime.KeepAlive(iovs)
		if errno != 0 {
			return 0, &os.PathError{Op: "vectorio", Path: f.Name(), Err: errno}
		}
		return int(n), nil
	}
}

// Preadv scatters the file span starting at off into bufs with
// preadv, zero-filling past EOF. It returns the bytes delivered
// (always the full span on success) and the syscall count. The iovec
// array is built once per IOV_MAX chunk; short transfers continue from
// the interrupted iovec index without reallocating.
func Preadv(f *os.File, bufs [][]byte, off int64) (int, int64, error) {
	total := spanLen(bufs)
	bi, skip := 0, 0
	pos := off
	var nsys int64
	var small [smallIOV]iovec
	iovs := small[:0]
	if len(bufs) > smallIOV {
		iovs = make([]iovec, 0, min(len(bufs), maxIOV))
	}
	for bi < len(bufs) {
		var want int64
		iovs, want = buildIovecs(iovs, bufs, bi, skip)
		if want == 0 {
			break
		}
		start := 0
		for want > 0 {
			nsys++
			n, err := vectorAt(syscall.SYS_PREADV, f, iovs[start:], pos)
			if err != nil {
				return int(pos - off), nsys, err
			}
			if n == 0 {
				// EOF inside the span: the rest reads as zeros.
				zeroFrom(bufs, bi, skip)
				return total, nsys, nil
			}
			pos += int64(n)
			bi, skip = advance(bufs, bi, skip, n)
			want -= int64(n)
			if want > 0 {
				start = consumeIovecs(iovs, start, n)
			}
		}
	}
	return total, nsys, nil
}

// Pwritev gathers bufs into the file span starting at off with
// pwritev, continuing across short writes from the interrupted iovec
// index (no per-continuation allocation).
func Pwritev(f *os.File, bufs [][]byte, off int64) (int, int64, error) {
	bi, skip := 0, 0
	pos := off
	var nsys int64
	var small [smallIOV]iovec
	iovs := small[:0]
	if len(bufs) > smallIOV {
		iovs = make([]iovec, 0, min(len(bufs), maxIOV))
	}
	for bi < len(bufs) {
		var want int64
		iovs, want = buildIovecs(iovs, bufs, bi, skip)
		if want == 0 {
			break
		}
		start := 0
		for want > 0 {
			nsys++
			n, err := vectorAt(syscall.SYS_PWRITEV, f, iovs[start:], pos)
			if err != nil {
				return int(pos - off), nsys, err
			}
			if n == 0 {
				return int(pos - off), nsys, io.ErrShortWrite
			}
			pos += int64(n)
			bi, skip = advance(bufs, bi, skip, n)
			want -= int64(n)
			if want > 0 {
				start = consumeIovecs(iovs, start, n)
			}
		}
	}
	return int(pos - off), nsys, nil
}

// Scatter fills caller buffers from a reader, keeping between calls
// what readv needs: the socket's RawConn, the iovec array and the readv
// callback are made on the first multi-buffer read of a *net.TCPConn and
// reused after, so a warm call allocates nothing. A Scatter serves one
// goroutine at a time; its zero value is ready.
type Scatter struct {
	tc    *net.TCPConn
	rc    syscall.RawConn
	readv func(fd uintptr) bool // s.readvFD, bound once
	iovs  []iovec
	start int // the first iovec readv still has to fill
	n     int // readv's result
	errno syscall.Errno
}

// ReadFull fills every byte of bufs from r, in order, and returns the
// bytes read: fewer than the total only with an error. On a
// *net.TCPConn two or more buffers land by readv straight into bufs,
// IOV_MAX buffers a call, continuing short reads from the interrupted
// iovec; an empty socket parks the goroutine on the runtime poller, so
// a read deadline set on the connection wakes it with
// os.ErrDeadlineExceeded. One buffer, or any other reader, takes one
// io.ReadFull per buffer: the connection's own Read parks the same way.
func (s *Scatter) ReadFull(r io.Reader, bufs [][]byte) (int, error) {
	tc, ok := r.(*net.TCPConn)
	if !ok || len(bufs) == 1 {
		return readPieces(r, bufs)
	}
	if s.tc != tc {
		rc, err := tc.SyscallConn()
		if err != nil {
			return 0, err
		}
		s.tc, s.rc = tc, rc
		if s.readv == nil {
			s.readv = s.readvFD
		}
	}
	k := min(len(bufs), maxIOV) // the most iovecs one readv of bufs takes
	if cap(s.iovs) < k {
		s.iovs = make([]iovec, 0, k)
	}
	n, err := s.fill(bufs)
	// The iovecs point into the caller's memory, lent only for this call.
	clear(s.iovs[:k])
	return n, err
}

// fill is ReadFull's readv loop over the connection s holds.
func (s *Scatter) fill(bufs [][]byte) (int, error) {
	total := spanLen(bufs)
	done, bi, skip := 0, 0, 0
	for done < total {
		var want int64
		s.iovs, want = buildIovecs(s.iovs, bufs, bi, skip)
		s.start = 0
		for want > 0 {
			if err := s.rc.Read(s.readv); err != nil {
				return done, err
			}
			if s.errno != 0 {
				return done, os.NewSyscallError("readv", s.errno)
			}
			if s.n == 0 {
				return done, io.ErrUnexpectedEOF
			}
			done += s.n
			want -= int64(s.n)
			bi, skip = advance(bufs, bi, skip, s.n)
			if want > 0 {
				s.start = consumeIovecs(s.iovs, s.start, s.n)
			}
		}
	}
	return done, nil
}

// readvFD runs readv on the socket's descriptor for RawConn.Read;
// returning false parks the goroutine until the socket is readable
// again.
func (s *Scatter) readvFD(fd uintptr) bool {
	for {
		m, _, e := syscall.Syscall(syscall.SYS_READV, fd,
			uintptr(unsafe.Pointer(&s.iovs[s.start])), uintptr(len(s.iovs)-s.start))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		s.n, s.errno = int(m), e
		return true
	}
}
