package iod

import (
	"testing"
	"time"

	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// In-package tests for the server-side pattern evaluator: the
// acceptance criterion is bounded memory — evaluating a pattern with
// hundreds of thousands of contiguous fragments must not materialize
// the region list, so allocations stay flat in fragment count.

// startTestServer boots a daemon on a memory store plus a raw client
// connection (the in-package twin of iod_test's startIOD).
func startTestServer(t *testing.T) (*Server, *pvfsnet.Conn) {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", store.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := pvfsnet.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// TestEvalWindowAllocationBounded evaluates one response window of a
// FLASH-like vector with 150k fragments and asserts the whole
// evaluation allocates O(1): only walk bookkeeping, never a region
// list. A materializing implementation would allocate at least one
// slice entry per fragment (~2.4 MB here) and fail the bound.
func TestEvalWindowAllocationBounded(t *testing.T) {
	const frags = 150_000
	typ := datatype.Vector(frags, 8, 32, datatype.Bytes(1))
	cfg := striping.Config{PCount: 4, StripeSize: 4096}
	enc, err := datatype.Encode(typ)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := datatype.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	var pieces, bytes int64
	allocs := testing.AllocsPerRun(3, func() {
		pieces, bytes = 0, 0
		filled, n, st := evalWindow(dec, 0, 1, cfg, 1, 0, 256<<10, func(phys ioseg.Segment) bool {
			pieces++
			bytes += phys.Length
			return true
		})
		if st != wire.StatusOK || filled != 256<<10 || n != pieces {
			t.Fatalf("evalWindow: filled=%d pieces=%d st=%v", filled, n, st)
		}
	})
	if pieces < 1000 {
		t.Fatalf("window covered only %d pieces; pattern not fragmented enough", pieces)
	}
	if bytes != 256<<10 {
		t.Fatalf("window moved %d bytes, want %d", bytes, 256<<10)
	}
	// The walk itself is allocation-free for vectors; leave headroom
	// for test-harness noise but stay far below one alloc per fragment.
	if allocs > 16 {
		t.Fatalf("evaluating a %d-fragment window allocated %.0f times; region list materialized?", frags, allocs)
	}
}

// ownedBytes walks the whole pattern summing relative server rel's
// share, in O(1) memory per fragment (striping.PhysRange is closed
// form): the size of a whole-share window, which the tests below use
// to size their requests.
func ownedBytes(t datatype.Type, base, count int64, cfg striping.Config, rel int) (int64, wire.Status) {
	var total int64
	budget := maxEvalSegments
	st := wire.StatusOK
	datatype.WalkRepeated(t, base, count, 0, func(seg ioseg.Segment) bool {
		budget--
		if budget < 0 {
			st = wire.StatusInvalid
			return false
		}
		total += cfg.PhysRange(rel, seg.Offset, seg.End())
		return true
	})
	return total, st
}

// TestOwnedBytesMatchesFlatten cross-checks the closed-form sizing
// pass against brute-force flattening and splitting.
func TestOwnedBytesMatchesFlatten(t *testing.T) {
	idx, err := datatype.Indexed([]int64{3, 2, 6}, []int64{0, 9, 14}, datatype.Bytes(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := striping.Config{PCount: 3, StripeSize: 16}
	const base, count = 7, 4
	want := make([]int64, cfg.PCount)
	ext := idx.Extent()
	for i := int64(0); i < count; i++ {
		for _, seg := range datatype.Flatten(idx, base+i*ext) {
			for _, p := range cfg.Split(seg) {
				want[p.Server] += p.Phys.Length
			}
		}
	}
	for rel := 0; rel < cfg.PCount; rel++ {
		got, st := ownedBytes(idx, base, count, cfg, rel)
		if st != wire.StatusOK || got != want[rel] {
			t.Fatalf("ownedBytes(rel=%d) = %d (st %v), want %d", rel, got, st, want[rel])
		}
	}
}

// TestEvalWindowSeekResumes checks the windowed evaluation contract
// the client relies on: cutting one server's share into (DataPos,
// Want) windows — each DataPos the stream position after the previous
// window's last owned byte — yields exactly the piece sequence of a
// single whole-share evaluation.
func TestEvalWindowSeekResumes(t *testing.T) {
	sub, err := datatype.Subarray([]int64{10, 24}, []int64{7, 11}, []int64{2, 8}, datatype.Bytes(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := striping.Config{PCount: 2, StripeSize: 32}
	const rel = 1
	const base, count = 5, 3
	owned, st := ownedBytes(sub, base, count, cfg, rel)
	if st != wire.StatusOK || owned == 0 {
		t.Fatalf("ownedBytes = %d, %v", owned, st)
	}

	var whole ioseg.List
	if _, _, st := evalWindow(sub, base, count, cfg, rel, 0, owned, func(p ioseg.Segment) bool {
		whole = append(whole, p)
		return true
	}); st != wire.StatusOK {
		t.Fatal(st)
	}

	var windowed ioseg.List
	var dataPos int64
	remaining := owned
	for remaining > 0 {
		want := int64(64)
		if want > remaining {
			want = remaining
		}
		// Evaluate the window server-side.
		filled, _, st := evalWindow(sub, base, count, cfg, rel, dataPos, want, func(p ioseg.Segment) bool {
			windowed = append(windowed, p)
			return true
		})
		if st != wire.StatusOK || filled != want {
			t.Fatalf("window at %d: filled %d of %d, st %v", dataPos, filled, want, st)
		}
		// Advance DataPos the way the client does: to the stream
		// position after the window's last owned byte.
		var got int64
		stream := dataPos
		datatype.WalkRepeated(sub, base, count, dataPos, func(seg ioseg.Segment) bool {
			segStream := stream
			stream += seg.Length
			return cfg.ClipServer(seg, rel, func(p striping.Piece) bool {
				take := p.Phys.Length
				if rem := want - got; take >= rem {
					take = rem
					dataPos = segStream + (p.Logical.Offset - seg.Offset) + take
				}
				got += take
				return got < want
			})
		})
		remaining -= want
	}

	// Windows may split a piece at their boundary; compare merged forms.
	if !windowed.Normalize().Equal(whole.Normalize()) {
		t.Fatalf("windowed evaluation diverged:\n  whole   %v\n  windows %v", whole, windowed)
	}
}

// TestDatatypeWireRoundTrip exercises the daemon handlers through the
// wire: write a windowed pattern, read it back window by window.
func TestDatatypeWireRoundTrip(t *testing.T) {
	s, c := startTestServer(t)

	typ := datatype.Vector(50, 8, 24, datatype.Bytes(1))
	cfg := striping.Config{PCount: 1, StripeSize: 64}
	enc, err := datatype.Encode(typ)
	if err != nil {
		t.Fatal(err)
	}
	owned := int64(50 * 8)
	payload := make([]byte, owned)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}

	// Write in two windows. With PCount=1 the data stream is dense in
	// owned bytes, so the second window's DataPos is its stream split.
	split := owned / 2
	for _, w := range []struct{ pos, want int64 }{{0, split}, {split, owned - split}} {
		req := wire.WriteDatatypeReq{
			ReadDatatypeReq: wire.ReadDatatypeReq{
				Base: 0, Count: 1, DataPos: w.pos, Want: w.want,
				Striping: cfg, RelIndex: 0, TypeEnc: enc,
			},
			Data: payload[w.pos : w.pos+w.want],
		}
		resp, err := c.Call(wire.Message{
			Header: wire.Header{Type: wire.TWriteDatatype, Handle: 9},
			Body:   req.Marshal(),
		})
		if err != nil {
			t.Fatalf("write window %+v: %v", w, err)
		}
		var wr wire.WrittenResp
		if err := wr.Unmarshal(resp.Body); err != nil || wr.N != w.want {
			t.Fatalf("write window %+v: applied %d, err %v", w, wr.N, err)
		}
	}

	// Read back whole.
	rreq := wire.ReadDatatypeReq{
		Base: 0, Count: 1, DataPos: 0, Want: owned,
		Striping: cfg, RelIndex: 0, TypeEnc: enc,
	}
	resp, err := c.Call(wire.Message{
		Header: wire.Header{Type: wire.TReadDatatype, Handle: 9},
		Body:   rreq.Marshal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != string(payload) {
		t.Fatal("read-back differs from written payload")
	}

	st := s.Stats()
	if st.DatatypeRequests != 3 {
		t.Fatalf("DatatypeRequests = %d, want 3", st.DatatypeRequests)
	}
	if st.TypeBytes != int64(3*len(enc)) {
		t.Fatalf("TypeBytes = %d, want %d", st.TypeBytes, 3*len(enc))
	}
}

// TestDatatypeRejectsHostileRequests pins the defensive envelope:
// undecodable encodings, bad geometry, and patterns whose evaluation
// would exceed the segment budget must fail cleanly.
func TestDatatypeRejectsHostileRequests(t *testing.T) {
	_, c := startTestServer(t)

	good, err := datatype.Encode(datatype.Vector(4, 8, 16, datatype.Bytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	base := wire.ReadDatatypeReq{
		Base: 0, Count: 1, DataPos: 0, Want: 32,
		Striping: striping.Config{PCount: 2, StripeSize: 64}, RelIndex: 0, TypeEnc: good,
	}

	cases := map[string]func(r *wire.ReadDatatypeReq){
		"garbage-encoding": func(r *wire.ReadDatatypeReq) { r.TypeEnc = []byte{0xFF, 1, 2, 3} },
		"rel-out-of-range": func(r *wire.ReadDatatypeReq) { r.RelIndex = 7 },
		"zero-pcount":      func(r *wire.ReadDatatypeReq) { r.Striping.PCount = 0 },
		"huge-stripe":      func(r *wire.ReadDatatypeReq) { r.Striping.StripeSize = 1 << 62 },
		"overflowing-span": func(r *wire.ReadDatatypeReq) {
			// The type itself is within codec limits (2^50-byte span);
			// the repetition count pushes the pattern past int64.
			enc, err := datatype.Encode(datatype.Contiguous(1<<30, datatype.Bytes(1<<20)))
			if err != nil {
				t.Fatal(err)
			}
			r.TypeEnc = enc
			r.Count = 1 << 39
		},
		"segment-budget": func(r *wire.ReadDatatypeReq) {
			// 2^30 one-byte fragments, none of which reach rel 1's
			// stripe units before millions of visits.
			enc, err := datatype.Encode(datatype.Vector(1<<30, 1, 2, datatype.Bytes(1)))
			if err != nil {
				t.Fatal(err)
			}
			r.TypeEnc = enc
			r.Striping = striping.Config{PCount: 2, StripeSize: 1 << 31}
			r.RelIndex = 1
			r.Want = 1
		},
	}
	for name, mutate := range cases {
		req := base
		mutate(&req)
		_, err := c.Call(wire.Message{
			Header: wire.Header{Type: wire.TReadDatatype, Handle: 1},
			Body:   req.Marshal(),
		})
		if err == nil {
			t.Fatalf("%s: hostile request accepted", name)
		}
	}

	// The well-formed baseline still works.
	if _, err := c.Call(wire.Message{
		Header: wire.Header{Type: wire.TReadDatatype, Handle: 1},
		Body:   base.Marshal(),
	}); err != nil {
		t.Fatalf("baseline request failed: %v", err)
	}
}

// TestDatatypeBaseNearMaxInt64Terminates is a regression test: a
// pattern pinned to the top of int64 offset space used to wrap
// ClipServer's unit-advance arithmetic and hang the daemon's handler
// forever. The request must now be answered (success or error — the
// invariant is termination).
func TestDatatypeBaseNearMaxInt64Terminates(t *testing.T) {
	_, c := startTestServer(t)
	const maxI64 = int64(^uint64(0) >> 1)
	enc, err := datatype.Encode(datatype.Vector(4, 8, 16, datatype.Bytes(1)))
	if err != nil {
		t.Fatal(err)
	}
	req := wire.ReadDatatypeReq{
		Base: maxI64 - 64, Count: 1, DataPos: 0, Want: 1,
		Striping: striping.Config{PCount: 2, StripeSize: 4096}, RelIndex: 0, TypeEnc: enc,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Call(wire.Message{
			Header: wire.Header{Type: wire.TReadDatatype, Handle: 1},
			Body:   req.Marshal(),
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon hung evaluating a pattern at the top of offset space")
	}
}
