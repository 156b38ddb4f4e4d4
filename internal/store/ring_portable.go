//go:build !(linux && (amd64 || arm64))

// Ring stub for platforms without the raw io_uring path: Dir.ringGet
// always reports "no ring", so ReadBatch takes the vectored ladder
// (one readvAt per span) and behaves byte-identically.
package store

import (
	"errors"
	"os"
)

// uring is never instantiated on this platform; the type exists so
// Dir's ring field compiles everywhere.
type uring struct{}

func (r *uring) close() {}

func (r *uring) readSpans(f *os.File, spans []Span) (int, int64, error) {
	return 0, 0, errRingUnavailable
}

var errRingUnavailable = errors.New("store: io_uring unavailable on this platform")

func (d *Dir) ringGet() *uring { return nil }

// RingAvailable reports whether this process can use an io_uring:
// never, on this platform.
func RingAvailable() bool { return false }

// ringDegraded is unreachable here (no ring ever runs) but keeps the
// fallback ladder in store.go platform-independent.
func ringDegraded(err error) bool { return false }
