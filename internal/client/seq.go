package client

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Sequential (POSIX-style) access. PVFS lets existing binaries operate
// on PVFS files without recompiling (§2); this is the Go equivalent:
// File exposes io.Reader / io.Writer / io.Seeker over the striped
// file, so standard-library code (io.Copy, bufio, etc.) works
// unchanged.

// seqState holds the cursor for the sequential interface. Only Read,
// Write, Seek and Tell touch it, so the *At methods stay position-free.
type seqState struct {
	mu  sync.Mutex
	pos int64
}

// Read implements io.Reader at the file cursor. Reads past the
// current logical size return io.EOF.
func (f *File) Read(p []byte) (int, error) {
	s := &f.seq
	s.mu.Lock()
	defer s.mu.Unlock()
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	if s.pos >= size {
		return 0, io.EOF
	}
	n := int64(len(p))
	if s.pos+n > size {
		n = size - s.pos
	}
	if _, err := f.ReadAt(p[:n], s.pos); err != nil {
		return 0, err
	}
	s.pos += n
	var eof error
	if s.pos == size && n < int64(len(p)) {
		eof = io.EOF
	}
	return int(n), eof
}

// Write implements io.Writer at the file cursor.
func (f *File) Write(p []byte) (int, error) {
	s := &f.seq
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := f.WriteAt(p, s.pos)
	s.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	s := &f.seq
	s.mu.Lock()
	defer s.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = s.pos
	case io.SeekEnd:
		size, err := f.Size()
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, fmt.Errorf("pvfs: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, errors.New("pvfs: negative seek position")
	}
	s.pos = base + offset
	return s.pos, nil
}

// Tell returns the current cursor position.
func (f *File) Tell() int64 {
	s := &f.seq
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

// Interface checks.
var (
	_ io.Reader   = (*File)(nil)
	_ io.Writer   = (*File)(nil)
	_ io.Seeker   = (*File)(nil)
	_ io.ReaderAt = (*File)(nil)
	_ io.WriterAt = (*File)(nil)
)
