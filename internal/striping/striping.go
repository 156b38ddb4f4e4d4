// Package striping implements PVFS file striping arithmetic: the mapping
// between a file's logical byte space and the physical stripe files held
// by the I/O daemons.
//
// PVFS stripes each file round-robin across a user-selected set of I/O
// servers: the stripe unit (default 16 KiB in the paper's experiments)
// rotates from a base server across pcount servers. Each server stores
// its stripe units densely in a local stripe file, so logical offset L
// maps to server s and a physical offset P inside that server's file.
package striping

import (
	"fmt"

	"pvfs/internal/ioseg"
)

// DefaultStripeSize is the PVFS default stripe unit used throughout the
// paper's experiments (16,384 bytes).
const DefaultStripeSize = 16384

// Config describes how one file is striped. It mirrors the PVFS file
// metadata: the index of the first server, the number of servers used,
// and the stripe unit size.
type Config struct {
	Base       int   // index of the first I/O server for stripe 0
	PCount     int   // number of I/O servers the file is striped across
	StripeSize int64 // bytes per stripe unit
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.PCount <= 0:
		return fmt.Errorf("striping: pcount %d must be positive", c.PCount)
	case c.StripeSize <= 0:
		return fmt.Errorf("striping: stripe size %d must be positive", c.StripeSize)
	case c.Base < 0:
		return fmt.Errorf("striping: base %d must be non-negative", c.Base)
	}
	return nil
}

// ServerFor returns the index (0..PCount-1, relative to Base rotation)
// of the server holding the stripe unit containing logical offset off.
// The absolute server is (Base + ServerFor(off)) mod cluster size; this
// package works in relative indices and leaves Base application to the
// caller.
func (c Config) ServerFor(off int64) int {
	return int((off / c.StripeSize) % int64(c.PCount))
}

// PhysicalOffset maps a logical file offset to the offset inside the
// holding server's local stripe file. Each server stores its stripe
// units back to back, so physical offset = (full cycles below off) *
// stripe + remainder within the unit.
func (c Config) PhysicalOffset(off int64) int64 {
	cycle := c.StripeSize * int64(c.PCount)
	return (off/cycle)*c.StripeSize + off%c.StripeSize
}

// LogicalOffset is the inverse of PhysicalOffset for a given relative
// server index: it maps a physical offset in server rel's stripe file
// back to the logical file offset.
func (c Config) LogicalOffset(rel int, phys int64) int64 {
	cycle := c.StripeSize * int64(c.PCount)
	return (phys/c.StripeSize)*cycle + int64(rel)*c.StripeSize + phys%c.StripeSize
}

// Piece is a contiguous run of bytes that lives entirely on one server:
// the unit of work a single I/O daemon performs for one logical segment.
type Piece struct {
	Server  int           // relative server index
	Phys    ioseg.Segment // extent in the server's local stripe file
	Logical ioseg.Segment // extent in the file's logical byte space
}

// Split decomposes one logical segment into per-server pieces in
// ascending logical order. A segment smaller than the stripe unit maps
// to a single piece; larger segments alternate servers every stripe
// boundary, exactly as the PVFS client library scatters a contiguous
// request.
func (c Config) Split(s ioseg.Segment) []Piece {
	if s.Empty() {
		return nil
	}
	est := int(s.Length/c.StripeSize) + 2
	out := make([]Piece, 0, est)
	c.SplitFunc(s, func(p Piece) { out = append(out, p) })
	return out
}

// SplitFunc is Split without the slice: it invokes fn for each piece in
// ascending logical order. The I/O hot path uses it to stream pieces
// into preallocated per-server schedules without allocating a []Piece
// per logical segment.
func (c Config) SplitFunc(s ioseg.Segment, fn func(Piece)) {
	off := s.Offset
	remain := s.Length
	for remain > 0 {
		inUnit := c.StripeSize - off%c.StripeSize
		n := inUnit
		if remain < n {
			n = remain
		}
		fn(Piece{
			Server:  c.ServerFor(off),
			Phys:    ioseg.Segment{Offset: c.PhysicalOffset(off), Length: n},
			Logical: ioseg.Segment{Offset: off, Length: n},
		})
		off += n
		remain -= n
	}
}

// ClipServer invokes fn for each piece of s that lives on relative
// server rel, in ascending logical order, stopping early when fn
// returns false; it reports whether the walk ran to completion. Unlike
// SplitFunc it visits only rel's stripe units, so the cost is
// proportional to the pieces on rel rather than to every piece of s —
// the shape an I/O daemon needs to intersect a logical access pattern
// with its own stripe (DESIGN.md §6) without paying for the other
// servers' shares.
func (c Config) ClipServer(s ioseg.Segment, rel int, fn func(Piece) bool) bool {
	if s.Empty() {
		return true
	}
	cycle := c.StripeSize * int64(c.PCount)
	relStart := int64(rel) * c.StripeSize
	// First cycle whose rel-unit could intersect s. unitLo cannot
	// overflow here: when k > 0 it is at most s.Offset by construction.
	k := int64(0)
	if s.Offset > relStart {
		k = (s.Offset - relStart) / cycle
	}
	for unitLo := k*cycle + relStart; unitLo < s.End(); {
		lo, hi := unitLo, unitLo+c.StripeSize
		if hi < unitLo { // unit straddles the top of int64 offset space
			hi = s.End()
		}
		if s.Offset > lo {
			lo = s.Offset
		}
		if e := s.End(); e < hi {
			hi = e
		}
		if lo < hi {
			if !fn(Piece{
				Server:  rel,
				Phys:    ioseg.Segment{Offset: c.PhysicalOffset(lo), Length: hi - lo},
				Logical: ioseg.Segment{Offset: lo, Length: hi - lo},
			}) {
				return false
			}
		}
		next := unitLo + cycle
		if next < unitLo { // offset space exhausted: no further units
			return true
		}
		unitLo = next
	}
	return true
}

// PhysPrefix returns how many physical bytes of the logical prefix
// [0, size) land on relative server rel: the stripe file size server
// rel holds once the prefix is fully written.
func (c Config) PhysPrefix(rel int, size int64) int64 {
	if size <= 0 {
		return 0
	}
	cycle := c.StripeSize * int64(c.PCount)
	full := size / cycle
	rem := size % cycle
	phys := full * c.StripeSize
	relStart := int64(rel) * c.StripeSize
	switch {
	case rem >= relStart+c.StripeSize:
		phys += c.StripeSize
	case rem > relStart:
		phys += rem - relStart
	}
	return phys
}

// PhysRange returns how many physical bytes of logical window
// [start, end) land on relative server rel.
func (c Config) PhysRange(rel int, start, end int64) int64 {
	return c.PhysPrefix(rel, end) - c.PhysPrefix(rel, start)
}

// FileSizeFromStripes computes the logical file size implied by the
// per-server physical stripe file sizes (index = relative server).
// PVFS derives file size this way: the logical end is the maximum
// logical offset mapped by any server's last physical byte.
func (c Config) FileSizeFromStripes(physSizes []int64) int64 {
	var size int64
	for rel, ps := range physSizes {
		if ps == 0 {
			continue
		}
		end := c.LogicalOffset(rel, ps-1) + 1
		if end > size {
			size = end
		}
	}
	return size
}
