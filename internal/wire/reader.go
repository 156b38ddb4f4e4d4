package wire

import (
	"fmt"
	"io"

	"pvfs/internal/sysvec"
)

// frameBufSize is the read-ahead of a connection's FrameReader: a
// header and a body of up to 484 bytes arrive in one read. That holds
// a lookup's request and response (a name; a FileInfo with its daemon
// addresses), a create's, and every acknowledgement.
const frameBufSize = 512

// FrameReader reads the frames of one byte stream. The goroutine that
// reads a connection owns its reader: each read takes up to
// frameBufSize bytes, so a small frame costs one read and frames that
// arrived together are parsed without another. A frame too large for
// the buffer copies only the body prefix that arrived with its header
// (at most frameBufSize-HeaderSize bytes) and reads the rest straight
// into its destination. The package-level ReadMessage, ReadHeader and
// ReadInto are the same reader with room for one header and nothing
// more, so they never read past the frame they parse.
//
// A torn frame fails with io.ErrUnexpectedEOF; io.EOF means the stream
// ended at a frame boundary.
type FrameReader struct {
	r      io.Reader
	buf    []byte // buf[lo:hi] has been read from r and not yet parsed
	lo, hi int
	rest   [][]byte       // ReadInto's scratch: the pieces the prefix left
	sc     sysvec.Scatter // ReadInto's readv state, reused call to call
}

// NewFrameReader returns a buffered reader of r's frames.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, frameBufSize)}
}

// unbuffered returns the reader behind the package-level ReadMessage
// and ReadHeader: its buffer holds one header.
func unbuffered(r io.Reader) FrameReader {
	return FrameReader{r: r, buf: make([]byte, HeaderSize)}
}

// ReadHeader reads and validates one frame header; the h.BodyLen body
// bytes that follow are the caller's to take with ReadBody, ReadInto
// or Discard.
func (f *FrameReader) ReadHeader() (Header, error) {
	if err := f.fill(HeaderSize); err != nil {
		return Header{}, err
	}
	h, err := parseHeader(f.buf[f.lo:f.hi])
	f.lo += HeaderSize
	return h, err
}

// ReadBody reads the body of the frame whose header is h into a pooled
// buffer (see ReadMessage for its ownership). A torn body hands the
// buffer back to the pool itself.
func (f *FrameReader) ReadBody(h Header) (Message, error) {
	body := GetBuf(int(h.BodyLen))
	if _, err := f.readInto([][]byte{body}); err != nil {
		PutBuf(body)
		return Message{}, fmt.Errorf("wire: reading %d-byte body: %w", h.BodyLen, err)
	}
	return Message{Header: h, Body: body}, nil
}

// ReadInto reads exactly as many body bytes as pieces hold, straight
// into them in order, and returns the count placed: short only with an
// error. A body that fits the buffer is completed there and copied
// out; a larger one takes its buffered prefix and then, on a
// *net.TCPConn, lands by readv (IOV_MAX pieces a call, short reads
// continued, an empty socket parked on the runtime poller, so a read
// deadline wakes it); any other reader gets io.ReadFull per piece.
// Nothing is written outside the pieces. Bytes read but not placed stay
// buffered, so Discard of the body's remaining length skips them.
func (f *FrameReader) ReadInto(pieces [][]byte) (int, error) {
	n, err := f.readInto(pieces)
	if err != nil {
		err = fmt.Errorf("wire: reading body into caller memory after %d bytes: %w", n, err)
	}
	return n, err
}

// Discard skips the next n bytes of the stream: the rest of a body
// nobody will read.
func (f *FrameReader) Discard(n int64) error {
	k := min(n, int64(f.hi-f.lo))
	f.lo += int(k)
	if n == k {
		return nil
	}
	_, err := io.CopyN(io.Discard, f.r, n-k)
	return midFrame(err)
}

// fill reads until at least n bytes are buffered, and as many more as
// the reads bring, moving what is buffered to the front first.
func (f *FrameReader) fill(n int) error {
	if f.hi-f.lo >= n {
		return nil
	}
	f.hi = copy(f.buf, f.buf[f.lo:f.hi])
	f.lo = 0
	k, err := io.ReadAtLeast(f.r, f.buf[f.hi:], n-f.hi)
	f.hi += k
	if err == io.EOF && f.hi > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// fits reports whether a body of n bytes is read through the buffer:
// whether the whole frame fits it.
func (f *FrameReader) fits(n int) bool { return HeaderSize+n <= len(f.buf) }

// readInto is ReadInto without the error's context.
func (f *FrameReader) readInto(pieces [][]byte) (int, error) {
	total := 0
	for _, p := range pieces {
		total += len(p)
	}
	if f.fits(total) {
		if err := f.fill(total); err != nil {
			return 0, midFrame(err)
		}
	}
	done, i, skip := 0, 0, 0
	for f.lo < f.hi && i < len(pieces) {
		k := copy(pieces[i][skip:], f.buf[f.lo:f.hi])
		f.lo += k
		done += k
		if skip += k; skip == len(pieces[i]) {
			i, skip = i+1, 0
		}
	}
	if done == total {
		return done, nil
	}
	rest := pieces[i:]
	if skip > 0 {
		f.rest = append(append(f.rest[:0], pieces[i][skip:]), pieces[i+1:]...)
		rest = f.rest
	}
	n, err := f.sc.ReadFull(f.r, rest)
	clear(f.rest) // the caller's memory is lent only for this call
	return done + n, midFrame(err)
}

// midFrame reports an end of stream inside a frame as unexpected.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadMessage reads one framed message from r without reading past it:
// ReadHeader, then ReadBody. The body buffer comes from the message
// pool: callers that fully consume it may hand it back with
// Release/PutBuf; callers that retain it (or are unsure) simply keep it
// and the GC reclaims it as usual.
func ReadMessage(r io.Reader) (Message, error) {
	f := unbuffered(r)
	h, err := f.ReadHeader()
	if err != nil {
		return Message{}, err
	}
	return f.ReadBody(h)
}

// ReadHeader reads and validates one frame header from r without
// reading past it; the h.BodyLen body bytes that follow are the
// caller's to read (ReadInto).
func ReadHeader(r io.Reader) (Header, error) {
	f := unbuffered(r)
	return f.ReadHeader()
}

// ReadInto reads exactly as many body bytes from r as pieces hold,
// straight into them (see FrameReader.ReadInto).
func ReadInto(r io.Reader, pieces [][]byte) (int, error) {
	f := FrameReader{r: r}
	return f.ReadInto(pieces)
}
