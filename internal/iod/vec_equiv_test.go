package iod

// Wire-level equivalence of the vectored and fallback datapaths: the
// SAME request stream against a daemon whose store implements VectorIO
// and one whose store hides it must produce identical wire-visible
// responses and identical final file images, and the plain daemon must
// issue exactly one scalar store call per adjacent run of each window.
// Run under -race in CI, this also pins the concurrency safety of the
// batched submission paths.

import (
	"bytes"
	"math/rand"
	"testing"

	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// plainStore hides the optional vectored interfaces of a store, so a
// daemon over it exercises the per-fragment/coalesced-loop fallbacks.
type plainStore struct{ store.Store }

// randRegions builds a region list spanning the coalescing envelope:
// adjacent runs, gaps, and unsorted/overlapping jumps.
func randRegions(r *rand.Rand) ioseg.List {
	n := 1 + r.Intn(wire.MaxRegionsPerRequest)
	segs := make(ioseg.List, 0, n)
	pos := int64(r.Intn(16 << 10))
	for j := 0; j < n; j++ {
		l := 1 + int64(r.Intn(1024))
		segs = append(segs, ioseg.Segment{Offset: pos, Length: l})
		switch r.Intn(3) {
		case 0:
			pos += l
		case 1:
			pos += l + 1 + int64(r.Intn(2048))
		default:
			pos = int64(r.Intn(32 << 10))
		}
	}
	return segs
}

func TestVectoredFallbackWireEquivalence(t *testing.T) {
	plain := store.NewMem()
	stores := []store.Store{store.NewMem(), plainStore{plain}}
	names := []string{"vectored", "fallback"}
	conns := make([]*pvfsnet.Conn, len(stores))
	for i, st := range stores {
		srv, err := Listen("127.0.0.1:0", st, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := pvfsnet.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	// both sends one request to both daemons and demands identical
	// wire-visible outcomes.
	both := func(typ wire.MsgType, handle uint64, body []byte) wire.Message {
		t.Helper()
		var first wire.Message
		for i, c := range conns {
			resp, err := c.Call(wire.Message{Header: wire.Header{Type: typ, Handle: handle}, Body: body})
			if err != nil {
				t.Fatalf("%s: %v: %v", names[i], typ, err)
			}
			if i == 0 {
				first = resp
				continue
			}
			if resp.Status != first.Status {
				t.Fatalf("%v: status diverges: %s=%v %s=%v", typ, names[0], first.Status, names[1], resp.Status)
			}
			if !bytes.Equal(resp.Body, first.Body) {
				t.Fatalf("%v: response body diverges (%d vs %d bytes)", typ, len(first.Body), len(resp.Body))
			}
		}
		return first
	}

	r := rand.New(rand.NewSource(61))
	const handle = uint64(5)

	// plainCalls checks the plain daemon's store calls since the last
	// check: one scalar call per adjacent run, in the given direction.
	var seen store.IOStats
	plainCalls := func(what string, wantRead, wantWrite int64) {
		t.Helper()
		now := plain.IOStats()
		d := now.Sub(seen)
		seen = now
		if d.SyscallsRead != wantRead || d.SyscallsWrite != wantWrite {
			t.Fatalf("%s: plain store took %d reads, %d writes; want %d, %d",
				what, d.SyscallsRead, d.SyscallsWrite, wantRead, wantWrite)
		}
	}
	runCount := func(segs ioseg.List) int64 {
		if runs, ok := segs.CoalescePacked(); ok {
			return int64(len(runs))
		}
		return int64(len(segs))
	}

	// Randomized list I/O: writes and reads over every list shape.
	for i := 0; i < 60; i++ {
		segs := randRegions(r)
		if r.Intn(2) == 0 {
			data := make([]byte, segs.TotalLength())
			r.Read(data)
			body, err := (&wire.ListReq{Regions: segs, Data: data}).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			both(wire.TWriteList, handle, body)
			plainCalls("list write", 0, runCount(segs))
		} else {
			body, err := (&wire.ListReq{Regions: segs}).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			both(wire.TReadList, handle, body)
			plainCalls("list read", runCount(segs), 0)
		}
	}

	// Datatype round trip: a fragmented vector pattern, windowed.
	cfg := striping.Config{PCount: 2, StripeSize: 4096}
	typ := datatype.Vector(300, 24, 96, datatype.Bytes(1))
	enc, err := datatype.Encode(typ)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := datatype.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	owned, st := ownedBytes(dec, 0, 2, cfg, 0)
	if st != wire.StatusOK || owned == 0 {
		t.Fatalf("ownedBytes: %d bytes, status %v", owned, st)
	}
	// The window's physical pieces with adjacent ones merged, as the
	// daemon batches them: the plain store's call count per direction.
	var dtRuns int64
	last := int64(-1)
	evalWindow(dec, 0, 2, cfg, 0, 0, owned, func(p ioseg.Segment) bool {
		if p.Offset != last {
			dtRuns++
		}
		last = p.End()
		return true
	})
	payload := make([]byte, owned)
	r.Read(payload)
	req := wire.WriteDatatypeReq{
		ReadDatatypeReq: wire.ReadDatatypeReq{
			Base: 0, Count: 2, DataPos: 0, Want: owned,
			Striping: cfg, RelIndex: 0, TypeEnc: enc,
		},
		Data: payload,
	}
	if resp := both(wire.TWriteDatatype, handle, req.Marshal()); resp.Status != wire.StatusOK {
		t.Fatalf("datatype write: status %v", resp.Status)
	}
	plainCalls("datatype write", 0, dtRuns)
	rreq := wire.ReadDatatypeReq{
		Base: 0, Count: 2, DataPos: 0, Want: owned,
		Striping: cfg, RelIndex: 0, TypeEnc: enc,
	}
	resp := both(wire.TReadDatatype, handle, rreq.Marshal())
	if resp.Status != wire.StatusOK || !bytes.Equal(resp.Body, payload) {
		t.Fatalf("datatype read-back diverges from payload (status %v)", resp.Status)
	}
	plainCalls("datatype read", dtRuns, 0)

	// Final images must be byte-identical.
	sizeResp := both(wire.TStat, handle, nil)
	var sz wire.SizeResp
	if err := sz.Unmarshal(sizeResp.Body); err != nil {
		t.Fatal(err)
	}
	rd := wire.ReadReq{Offset: 0, Length: sz.Size}
	both(wire.TRead, handle, rd.Marshal())
}
