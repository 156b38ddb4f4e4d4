package iod

// Wire-level equivalence of the storage path across backends: the SAME
// request stream against daemons over Mem, Dir and a write-back cache
// over Dir must produce identical wire-visible responses, every read
// must match a per-fragment reference image, and the final images must
// agree. The uncached daemons also pin how a window reaches the store:
// one batch submission per sorted window, one scalar call per segment
// for an unsorted list. Run under -race in CI, this also pins the
// concurrency safety of the batched submission paths.

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

// refImage is the per-fragment reference: a byte image every write
// region lands in one at a time, in list order.
type refImage []byte

func (ref *refImage) write(segs ioseg.List, data []byte) {
	var pos int64
	for _, s := range segs {
		if need := s.End(); need > int64(len(*ref)) {
			*ref = append(*ref, make([]byte, need-int64(len(*ref)))...)
		}
		copy((*ref)[s.Offset:s.End()], data[pos:pos+s.Length])
		pos += s.Length
	}
}

func (ref refImage) read(segs ioseg.List) []byte {
	out := make([]byte, 0, segs.TotalLength())
	for _, s := range segs {
		b := make([]byte, s.Length)
		if s.Offset < int64(len(ref)) {
			copy(b, ref[s.Offset:])
		}
		out = append(out, b...)
	}
	return out
}

func TestVectoredFallbackWireEquivalence(t *testing.T) {
	mem := store.NewMem()
	dir, err := store.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cachedInner, err := store.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Eight 4 KiB blocks: far below the working set, so fills, flushes
	// and evictions churn through the batch paths.
	cached := store.Cached(cachedInner, store.CacheOptions{BlockSize: 4096, MaxBytes: 8 * 4096, Readahead: 2})
	names := []string{"mem", "dir", "cached-dir"}
	conns := make([]*pvfsnet.Conn, len(names))
	for i, st := range []store.Store{mem, dir, cached} {
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
	// all sends one request to every daemon and demands identical
	// wire-visible outcomes.
	all := func(typ wire.MsgType, handle uint64, body []byte) wire.Message {
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
				t.Fatalf("%v: status diverges: %s=%v %s=%v", typ, names[0], first.Status, names[i], resp.Status)
			}
			if !bytes.Equal(resp.Body, first.Body) {
				t.Fatalf("%v: %s response body diverges from %s (%d vs %d bytes)",
					typ, names[i], names[0], len(resp.Body), len(first.Body))
			}
		}
		return first
	}

	r := rand.New(rand.NewSource(61))
	const handle = uint64(5)
	var ref refImage

	// calls checks how the last window reached the uncached stores: a
	// sorted window is one batch submission (one lock round on Mem), an
	// unsorted one a scalar call per segment and no batch.
	uncached := []struct {
		name  string
		stats func() store.IOStats
		seen  store.IOStats
	}{{name: "mem", stats: mem.IOStats}, {name: "dir", stats: dir.IOStats}}
	calls := func(what string, segs ioseg.List, write bool) {
		t.Helper()
		_, sorted := segs.CoalescePacked()
		for i := range uncached {
			name, now := uncached[i].name, uncached[i].stats()
			d := now.Sub(uncached[i].seen)
			uncached[i].seen = now
			n := d.SyscallsRead
			if write {
				n = d.SyscallsWrite
			}
			switch {
			case !sorted && (d.Submissions != 0 || n != int64(len(segs))):
				t.Fatalf("%s: %s took %d submissions, %d calls for %d unsorted segments; want 0, %d",
					what, name, d.Submissions, n, len(segs), len(segs))
			case sorted && d.Submissions != 1:
				t.Fatalf("%s: %s took %d submissions for a sorted window, want 1", what, name, d.Submissions)
			case sorted && name == "mem" && n != 1:
				t.Fatalf("%s: mem took %d lock rounds for a sorted window, want 1", what, n)
			}
		}
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
			all(wire.TWriteList, handle, body)
			ref.write(segs, data)
			calls("list write", segs, true)
		} else {
			body, err := (&wire.ListReq{Regions: segs}).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			resp := all(wire.TReadList, handle, body)
			if !bytes.Equal(resp.Body, ref.read(segs)) {
				t.Fatalf("list read %d diverges from the per-fragment reference", i)
			}
			if runs, ok := segs.CoalescePacked(); ok && len(runs) == 1 && runs[0].Length >= zeroCopyMinBytes {
				t.Fatal("window streams past the store; pick a seed that keeps it on the batch path")
			}
			calls("list read", segs, false)
		}
	}

	// Datatype round trip: a fragmented vector pattern, one window.
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
	// The window's physical pieces, for the reference and the call count.
	var pieces ioseg.List
	evalWindow(dec, 0, 2, cfg, 0, 0, owned, func(p ioseg.Segment) bool {
		pieces = append(pieces, p)
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
	if resp := all(wire.TWriteDatatype, handle, req.Marshal()); resp.Status != wire.StatusOK {
		t.Fatalf("datatype write: status %v", resp.Status)
	}
	ref.write(pieces, payload)
	calls("datatype write", pieces, true)
	rreq := wire.ReadDatatypeReq{
		Base: 0, Count: 2, DataPos: 0, Want: owned,
		Striping: cfg, RelIndex: 0, TypeEnc: enc,
	}
	resp := all(wire.TReadDatatype, handle, rreq.Marshal())
	if resp.Status != wire.StatusOK || !bytes.Equal(resp.Body, payload) {
		t.Fatalf("datatype read-back diverges from payload (status %v)", resp.Status)
	}
	calls("datatype read", pieces, false)

	// Final images must be byte-identical to the reference.
	var sz wire.SizeResp
	if err := sz.Unmarshal(all(wire.TStat, handle, nil).Body); err != nil {
		t.Fatal(err)
	}
	if sz.Size != int64(len(ref)) {
		t.Fatalf("final size %d, reference %d", sz.Size, len(ref))
	}
	rd := wire.ReadReq{Offset: 0, Length: sz.Size}
	if img := all(wire.TRead, handle, rd.Marshal()); !bytes.Equal(img.Body, ref) {
		t.Fatal("final image diverges from the per-fragment reference")
	}
}
