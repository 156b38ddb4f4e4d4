package striping

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pvfs/internal/ioseg"
)

func cfg(pcount int, ssize int64) Config {
	return Config{Base: 0, PCount: pcount, StripeSize: ssize}
}

func TestValidate(t *testing.T) {
	if err := cfg(8, 16384).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{PCount: 0, StripeSize: 16384},
		{PCount: 8, StripeSize: 0},
		{PCount: 8, StripeSize: -4},
		{Base: -1, PCount: 8, StripeSize: 16384},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestServerFor(t *testing.T) {
	c := cfg(4, 100)
	cases := []struct {
		off  int64
		want int
	}{
		{0, 0}, {99, 0}, {100, 1}, {399, 3}, {400, 0}, {950, 1},
	}
	for _, tc := range cases {
		if got := c.ServerFor(tc.off); got != tc.want {
			t.Errorf("ServerFor(%d) = %d, want %d", tc.off, got, tc.want)
		}
	}
}

func TestPhysicalLogicalRoundTrip(t *testing.T) {
	c := cfg(8, 16384)
	offsets := []int64{0, 1, 16383, 16384, 16385, 131071, 131072, 1 << 30}
	for _, off := range offsets {
		rel := c.ServerFor(off)
		phys := c.PhysicalOffset(off)
		if back := c.LogicalOffset(rel, phys); back != off {
			t.Errorf("round trip %d -> (s%d,%d) -> %d", off, rel, phys, back)
		}
	}
}

func TestPhysicalOffsetDense(t *testing.T) {
	// Server stripe files must be dense: consecutive stripe units on one
	// server map to consecutive physical ranges.
	c := cfg(4, 100)
	// Server 1 holds logical [100,200) and [500,600); physically [0,100) and [100,200).
	if got := c.PhysicalOffset(100); got != 0 {
		t.Errorf("PhysicalOffset(100) = %d, want 0", got)
	}
	if got := c.PhysicalOffset(500); got != 100 {
		t.Errorf("PhysicalOffset(500) = %d, want 100", got)
	}
	if got := c.PhysicalOffset(555); got != 155 {
		t.Errorf("PhysicalOffset(555) = %d, want 155", got)
	}
}

func TestSplitSmallSegment(t *testing.T) {
	c := cfg(8, 16384)
	// Sub-stripe segment stays on one server.
	ps := c.Split(ioseg.Segment{Offset: 16390, Length: 100})
	if len(ps) != 1 {
		t.Fatalf("pieces = %d, want 1", len(ps))
	}
	if ps[0].Server != 1 {
		t.Errorf("server = %d, want 1", ps[0].Server)
	}
	if ps[0].Phys != (ioseg.Segment{Offset: 6, Length: 100}) {
		t.Errorf("phys = %v", ps[0].Phys)
	}
}

func TestSplitSpanningSegment(t *testing.T) {
	c := cfg(4, 100)
	ps := c.Split(ioseg.Segment{Offset: 50, Length: 300})
	// Covers [50,350): pieces [50,100) s0, [100,200) s1, [200,300) s2, [300,350) s3.
	if len(ps) != 4 {
		t.Fatalf("pieces = %d, want 4: %v", len(ps), ps)
	}
	wantServers := []int{0, 1, 2, 3}
	var total int64
	for i, p := range ps {
		if p.Server != wantServers[i] {
			t.Errorf("piece %d server = %d, want %d", i, p.Server, wantServers[i])
		}
		total += p.Phys.Length
		if p.Phys.Length != p.Logical.Length {
			t.Errorf("piece %d phys/logical length mismatch", i)
		}
	}
	if total != 300 {
		t.Errorf("total = %d, want 300", total)
	}
}

func TestSplitEmpty(t *testing.T) {
	if ps := cfg(4, 100).Split(ioseg.Segment{Offset: 5}); ps != nil {
		t.Fatalf("Split(empty) = %v", ps)
	}
}

func TestFileSizeFromStripes(t *testing.T) {
	c := cfg(4, 100)
	// Server 2 has 150 physical bytes: last byte phys=149 → logical
	// offset = 1*400 + 2*100 + 49 = 649 → size 650.
	sizes := []int64{100, 100, 150, 0}
	if got := c.FileSizeFromStripes(sizes); got != 650 {
		t.Fatalf("FileSizeFromStripes = %d, want 650", got)
	}
	if got := c.FileSizeFromStripes([]int64{0, 0, 0, 0}); got != 0 {
		t.Fatalf("empty stripes size = %d", got)
	}
}

// Property: Split covers the segment exactly, in order, with no piece
// crossing a stripe boundary, and every piece round-trips through the
// physical/logical mapping.
func TestSplitProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := cfg(1+r.Intn(16), int64(1+r.Intn(1000)))
		s := ioseg.Segment{Offset: int64(r.Intn(100000)), Length: int64(r.Intn(10000))}
		ps := c.Split(s)
		off := s.Offset
		var total int64
		for _, p := range ps {
			if p.Logical.Offset != off {
				return false
			}
			if p.Server != c.ServerFor(p.Logical.Offset) {
				return false
			}
			if c.PhysicalOffset(p.Logical.Offset) != p.Phys.Offset {
				return false
			}
			if c.LogicalOffset(p.Server, p.Phys.Offset) != p.Logical.Offset {
				return false
			}
			// No piece may cross a stripe unit boundary.
			if p.Phys.Offset/c.StripeSize != (p.Phys.End()-1)/c.StripeSize {
				return false
			}
			off += p.Logical.Length
			total += p.Logical.Length
		}
		return total == s.Length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: physical offsets assigned to one server are unique across
// distinct logical stripe units (no aliasing).
func TestNoPhysicalAliasing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := cfg(1+r.Intn(8), int64(16+r.Intn(512)))
		type key struct {
			server int
			phys   int64
		}
		seen := make(map[key]int64)
		for i := 0; i < 500; i++ {
			off := int64(r.Intn(1 << 20))
			k := key{c.ServerFor(off), c.PhysicalOffset(off)}
			if prev, ok := seen[k]; ok && prev != off {
				return false
			}
			seen[k] = off
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ClipServer(s, rel) yields exactly the pieces Split(s)
// assigns to rel, in the same order — it is the per-server projection
// the I/O daemon uses to avoid computing other servers' shares.
func TestClipServerMatchesSplit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := cfg(1+r.Intn(8), int64(16+r.Intn(512)))
		for i := 0; i < 50; i++ {
			s := ioseg.Segment{Offset: int64(r.Intn(1 << 16)), Length: int64(r.Intn(4096))}
			want := make(map[int][]Piece)
			for _, p := range c.Split(s) {
				want[p.Server] = append(want[p.Server], p)
			}
			for rel := 0; rel < c.PCount; rel++ {
				var got []Piece
				if !c.ClipServer(s, rel, func(p Piece) bool {
					got = append(got, p)
					return true
				}) {
					return false
				}
				if len(got) != len(want[rel]) {
					return false
				}
				for i := range got {
					if got[i] != want[rel][i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClipServerEarlyStop(t *testing.T) {
	c := cfg(2, 64)
	n := 0
	done := c.ClipServer(ioseg.Segment{Offset: 0, Length: 64 * 20}, 0, func(Piece) bool {
		n++
		return false
	})
	if done || n != 1 {
		t.Fatalf("early stop: done=%v n=%d", done, n)
	}
}

// TestClipServerNearMaxInt64 is a regression test: segments ending
// near the top of int64 offset space must terminate (the unit-advance
// arithmetic used to wrap past MaxInt64 and loop forever) and emit
// exactly the bytes of the segment across all servers, once each.
func TestClipServerNearMaxInt64(t *testing.T) {
	cfg := Config{PCount: 2, StripeSize: 4096}
	const maxI64 = int64(^uint64(0) >> 1)
	for _, seg := range []ioseg.Segment{
		{Offset: maxI64 - 4096, Length: 4096},
		{Offset: maxI64 - 10000, Length: 10000},
		{Offset: maxI64 - 1, Length: 1},
	} {
		var total int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for rel := 0; rel < cfg.PCount; rel++ {
				cfg.ClipServer(seg, rel, func(p Piece) bool {
					if p.Logical.Offset < seg.Offset || p.Logical.End() > seg.End() {
						t.Errorf("piece %v outside segment %v", p.Logical, seg)
					}
					total += p.Logical.Length
					return true
				})
			}
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("ClipServer hangs on %v", seg)
		}
		if total != seg.Length {
			t.Fatalf("segment %v: clipped %d bytes across servers, want %d", seg, total, seg.Length)
		}
	}
}
