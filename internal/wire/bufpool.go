package wire

import (
	"sync"
	"sync/atomic"
)

// Message body buffer pooling. The I/O hot path reads and writes one
// framed message per request; without pooling every message allocates
// its body (and the write path a header+body frame), so steady-state
// list I/O churns the garbage collector in proportion to throughput.
//
// Buffers are kept in size classes, each a stack of fixed depth under a
// mutex. A stack hands back the buffer filed last: a daemon's read loop
// gives its request body back before it reads the next frame, so it
// gets the same buffer again, still in cache, where a queue such as a
// buffered channel would hand it the oldest and coldest. Unlike
// sync.Pool, which boxes the slice header on every Put, a stack never
// allocates on Get/Put; its depth is a hard bound on the memory a class
// parks; and it needs no GC integration. Misses simply allocate and
// surplus Puts are dropped, so the pool is always safe to bypass.
//
// A data-path class is a power of two plus headroom, because that is
// where bodies fall: every data-path body is a power-of-two payload
// behind a little framing (a list request's 64 KiB and 16 B per region, a contiguous
// chunk's or a datatype window's 512 KiB and its fixed fields or
// encoded type). Cut at the bare power of two, each of them would land
// one class above its payload: twice the memory, half of it zeroed on
// every miss, and, across a taper boundary, a quarter of the parked
// buffers.
//
// Ownership contract: PutBuf may only be called by code that owns the
// buffer outright — nothing else may retain a reference. Dropping a
// pooled buffer without PutBuf is always safe (the GC reclaims it).

const (
	minBufShift = 9  // 512 B: below this, pooling costs more than it saves
	maxBufShift = 26 // 64 MiB == MaxBodyLen

	// Classes from headroomShift (64 KiB) up hold headroom bytes beyond
	// their power of two: a page, several times the framing of any
	// data-path body. The classes below, where metadata messages live,
	// are bare powers of two: a page would multiply the smallest ones.
	headroomShift = 16
	headroom      = 4 << 10
)

// classCap returns the capacity of a class's buffers.
func classCap(shift int) int {
	if shift < headroomShift {
		return 1 << shift
	}
	return 1<<shift + headroom
}

// bufClass is one size class's free list: a stack whose capacity, set
// once, is the class's depth.
type bufClass struct {
	mu   sync.Mutex
	free [][]byte
}

// bufClasses holds one free list per size class. Free-list depths taper
// off so large classes cannot park unbounded memory: ≤64 KiB classes
// keep up to 64 buffers, ≤1 MiB up to 16, above that 4.
var bufClasses [maxBufShift + 1]bufClass

func init() {
	for shift := minBufShift; shift <= maxBufShift; shift++ {
		n := 64
		switch {
		case shift > 20: // > 1 MiB
			n = 4
		case shift > 16: // > 64 KiB
			n = 16
		}
		bufClasses[shift].free = make([][]byte, 0, n)
	}
}

// shiftFor returns the smallest class whose buffers hold n bytes.
func shiftFor(n int) int {
	shift := minBufShift
	for classCap(shift) < n {
		shift++
	}
	return shift
}

// bufGets and bufPuts count pool traffic: buffers handed out by GetBuf
// and buffers returned through PutBuf (whether or not they were parked
// in a class). Tests use the deltas to prove ownership discipline —
// e.g. that an abandoned call's response body still reaches PutBuf.
var bufGets, bufPuts atomic.Int64

// BufStats reports cumulative GetBuf/PutBuf call counts.
func BufStats() (gets, puts int64) {
	return bufGets.Load(), bufPuts.Load()
}

// GetBuf returns a buffer of length n, reusing a pooled buffer when one
// is available. n == 0 returns nil.
func GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	bufGets.Add(1)
	if n > 1<<maxBufShift {
		return make([]byte, n)
	}
	shift := shiftFor(n)
	class := &bufClasses[shift]
	class.mu.Lock()
	if top := len(class.free) - 1; top >= 0 {
		b := class.free[top]
		class.free[top] = nil // the stack must not keep a buffer it lent out
		class.free = class.free[:top]
		class.mu.Unlock()
		return b[:n]
	}
	class.mu.Unlock()
	return make([]byte, n, classCap(shift))
}

// PutBuf returns a buffer to the pool. The caller must own b outright;
// no other reference to its backing array may remain live. Buffers too
// small to pool and surplus buffers in a full class are dropped.
func PutBuf(b []byte) {
	c := cap(b)
	if c == 0 {
		return
	}
	bufPuts.Add(1)
	if c < classCap(minBufShift) {
		return
	}
	// File the buffer under the largest class it can fully serve, so a
	// foreign buffer with an off-class capacity is still reusable.
	shift := minBufShift
	for shift < maxBufShift && classCap(shift+1) <= c {
		shift++
	}
	class := &bufClasses[shift]
	class.mu.Lock()
	if len(class.free) < cap(class.free) {
		class.free = append(class.free, b[:c])
	}
	class.mu.Unlock()
}

// Release returns the message body to the buffer pool and clears it.
// Callers use it on the hot path once they have fully consumed a
// message; see the PutBuf ownership contract.
func (m *Message) Release() {
	PutBuf(m.Body)
	m.Body = nil
}
