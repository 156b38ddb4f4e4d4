package wire

import "testing"

// drainClass empties a class's free list so a test sees only the
// buffers it parks itself.
func drainClass(shift int) {
	c := &bufClasses[shift]
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.free)
	c.free = c.free[:0]
}

// parked returns how many buffers a class holds, and how many it may.
func parked(shift int) (n, depth int) {
	c := &bufClasses[shift]
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.free), cap(c.free)
}

// A class hands back the buffer filed last: the one still warm in the
// cache of the core that just used it, not the oldest.
func TestPoolHandsOutNewestBuffer(t *testing.T) {
	const n = 64 << 10
	drainClass(shiftFor(n))
	first, second := GetBuf(n), GetBuf(n)
	PutBuf(first)
	PutBuf(second)
	if b := GetBuf(n); &b[0] != &second[0] {
		t.Fatal("GetBuf returned an older buffer than the one filed last")
	}
	if b := GetBuf(n); &b[0] != &first[0] {
		t.Fatal("GetBuf did not return the first buffer after the second")
	}
}

// A data-path body — a power-of-two payload behind its framing — is
// served by its payload's class: at most headroom of capacity beyond
// the payload, from a free list at least as deep as the one the bare
// power-of-two cut gave it (one class up, and for list bodies across
// the 64 → 16 taper).
func TestBodyLandsInPayloadClass(t *testing.T) {
	const (
		listPayload = 64 << 10 // MaxRegionsPerRequest × 4 KiB cut 4 ways, and the bench's 16 × 4 KiB
		window      = ChunkBytes
	)
	for _, c := range []struct {
		name    string
		payload int
		framing int
		parked  int
	}{
		{"16-region list write", listPayload, TrailingDataSize(16), 64},
		{"64-region list write", listPayload, TrailingDataSize(64), 64},
		{"one contiguous window plus fixed fields", window, WriteReqFixedSize, 16},
		{"a daemon's whole 4 MiB share plus fixed fields", 4 << 20, WriteReqFixedSize, 4},
		{"a bare 64 KiB", 64 << 10, 0, 64},
		{"a bare 512 KiB window", window, 0, 16},
		{"a bare 512 B", 512, 0, 64},
	} {
		body := c.payload + c.framing
		shift := shiftFor(body)
		if 1<<shift != c.payload {
			t.Errorf("%s: class 1<<%d, want the payload's own (%d)", c.name, shift, c.payload)
		}
		if _, got := parked(shift); got != c.parked {
			t.Errorf("%s: class parks %d, want %d", c.name, got, c.parked)
		}
		// The class a cut at the bare power of two put this body in.
		old := minBufShift
		for 1<<old < body {
			old++
		}
		_, depth := parked(shift)
		if _, had := parked(old); depth < had {
			t.Errorf("%s: class parks %d, fewer than the %d it had", c.name, depth, had)
		}
		drainClass(shift)
		b := GetBuf(body)
		if len(b) != body || cap(b)-c.payload > headroom || cap(b) != classCap(shift) {
			t.Errorf("%s: GetBuf len %d cap %d, want len %d and at most %d beyond the payload", c.name, len(b), cap(b), body, headroom)
		}
		PutBuf(b)
		if again := GetBuf(body); &again[0] != &b[0] {
			t.Errorf("%s: a returned body was not reused", c.name)
		}
	}
}

// Headroom starts at 64 KiB: the classes below, which metadata
// messages live in, are the bare powers of two they always were.
func TestSmallClassesUnchanged(t *testing.T) {
	for shift := minBufShift; shift <= maxBufShift; shift++ {
		want := 1 << shift
		if shift >= headroomShift {
			want += headroom
		}
		if classCap(shift) != want {
			t.Errorf("class %d holds %d bytes, want %d", shift, classCap(shift), want)
		}
	}
	if b := GetBuf(600); cap(b) != 1024 {
		t.Errorf("a 600-byte body comes from a %d-byte buffer, want 1024", cap(b))
	}
}

// A buffer the pool did not allocate — a plain power-of-two capacity,
// which from 64 KiB up is smaller than the class of its size — is
// filed under the largest class it fully serves and handed out again.
func TestForeignBufferReused(t *testing.T) {
	for _, c := range []int{1 << 10, 128 << 10, 1 << 20} {
		foreign := make([]byte, c)
		want := shiftFor(c+1) - 1 // classCap(want) ≤ c < classCap(want+1)
		drainClass(want)
		PutBuf(foreign)
		if got, _ := parked(want); got != 1 {
			t.Fatalf("cap %d: parked in class %d: %d buffers, want 1", c, want, got)
		}
		b := GetBuf(1 << want)
		if &b[0] != &foreign[0] {
			t.Errorf("cap %d: GetBuf(%d) did not reuse the foreign buffer", c, 1<<want)
		}
		if n := classCap(want); n <= c {
			// The class may ask for more than its power of two, and every
			// buffer in it must hold that.
			drainClass(want)
			PutBuf(foreign)
			if b := GetBuf(n); len(b) != n {
				t.Errorf("cap %d: GetBuf(%d) returned %d bytes", c, n, len(b))
			}
		}
	}
	// A bare 64 KiB cannot hold what the 64 KiB class promises: it
	// serves the class below, never a GetBuf that would overrun it.
	drainClass(headroomShift)
	drainClass(headroomShift - 1)
	PutBuf(make([]byte, 1<<headroomShift))
	above, _ := parked(headroomShift)
	below, _ := parked(headroomShift - 1)
	if above != 0 || below != 1 {
		t.Errorf("a bare %d-byte buffer was not filed under the class below", 1<<headroomShift)
	}
}

var sinkBuf []byte

// BenchmarkGetBufBodyClass is the cost of a pool miss for the two
// bodies the data path receives most: what the allocator zeroes is the
// class capacity, so a body one class above its payload pays double.
func BenchmarkGetBufBodyClass(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"list=64KiB+264B", 64<<10 + 264},
		{"chunk=512KiB+16B", 512<<10 + 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			shift := shiftFor(c.n)
			b.SetBytes(int64(c.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drainClass(shift) // every Get misses
				sinkBuf = GetBuf(c.n)
			}
		})
	}
}
