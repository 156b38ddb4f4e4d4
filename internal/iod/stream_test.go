package iod_test

import (
	"bytes"
	"math/rand"
	"testing"

	"pvfs/internal/iod"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

// startDirIOD returns a daemon over a directory store (the backend
// that streams) and a raw TCP connection (a *net.TCPConn underneath,
// so the sendfile path is reachable).
func startDirIOD(t *testing.T) (*iod.Server, *pvfsnet.Conn) {
	t.Helper()
	ds, err := store.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := iod.Listen("127.0.0.1:0", ds, nil)
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

// TestStreamedReadZeroCopy pins the §11 zero-copy read path at the
// wire level: a large contiguous TRead from a Dir-backed daemon over
// real TCP must return byte-identical data while copying none of the
// response body through user space (only the seeding write counts
// toward BytesCopied).
func TestStreamedReadZeroCopy(t *testing.T) {
	srv, c := startDirIOD(t)
	const handle = uint64(11)
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(data)
	resp := call(t, c, wire.TWrite, handle, (&wire.WriteReq{Offset: 0, Data: data}).Marshal())
	var wr wire.WrittenResp
	if err := wr.Unmarshal(resp.Body); err != nil || wr.N != int64(len(data)) {
		t.Fatalf("written = %+v (%v)", wr, err)
	}

	resp = call(t, c, wire.TRead, handle, (&wire.ReadReq{Offset: 0, Length: int64(len(data))}).Marshal())
	if !bytes.Equal(resp.Body, data) {
		t.Fatal("streamed read diverges from written data")
	}
	st := srv.Stats()
	if st.BytesRead != int64(len(data)) {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, len(data))
	}
	// The write copied len(data) through user space; the streamed read
	// must not have copied the body again.
	if st.StoreBytesCopied != int64(len(data)) {
		t.Fatalf("StoreBytesCopied = %d, want %d (read must be zero-copy)",
			st.StoreBytesCopied, len(data))
	}

	// A read straddling EOF streams the on-file prefix and zero-fills
	// the tail — the sparse contract, preserved across the wire.
	const over = 32 << 10
	resp = call(t, c, wire.TRead, handle,
		(&wire.ReadReq{Offset: 128 << 10, Length: (128 << 10) + over}).Marshal())
	want := make([]byte, (128<<10)+over)
	copy(want, data[128<<10:])
	if !bytes.Equal(resp.Body, want) {
		t.Fatal("EOF-straddling streamed read diverges (tail must read as zeros)")
	}
}

// TestStreamedReadListSingleRun: a TReadList whose regions coalesce to
// one large contiguous run takes the buffered list path every list
// takes (only a plain TRead streams), with full request accounting.
func TestStreamedReadListSingleRun(t *testing.T) {
	srv, c := startDirIOD(t)
	const handle = uint64(12)
	data := make([]byte, 128<<10)
	rand.New(rand.NewSource(2)).Read(data)
	call(t, c, wire.TWrite, handle, (&wire.WriteReq{Offset: 0, Data: data}).Marshal())

	// Four adjacent 32 KiB fragments: one 128 KiB run after coalescing.
	regions := make(ioseg.List, 4)
	for i := range regions {
		regions[i] = ioseg.Segment{Offset: int64(i) * (32 << 10), Length: 32 << 10}
	}
	body, err := (&wire.ListReq{Regions: regions}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Stats()
	resp := call(t, c, wire.TReadList, handle, body)
	if !bytes.Equal(resp.Body, data) {
		t.Fatal("single-run list read diverges from written data")
	}
	st := srv.Stats()
	if got := st.Regions - before.Regions; got != 4 {
		t.Fatalf("regions accounted = %d, want 4", got)
	}
	if got := st.BytesRead - before.BytesRead; got != int64(len(data)) {
		t.Fatalf("BytesRead delta = %d, want %d", got, len(data))
	}
}

// TestOversizedSingleRunListReadRejected: a TReadList whose regions
// coalesce to one run larger than wire.MaxBodyLen must be answered
// StatusInvalid, like a plain TRead of the same length, and leave the
// connection serving. Streaming it would fail the frame write and
// close the connection under every request in flight on it.
func TestOversizedSingleRunListReadRejected(t *testing.T) {
	_, c := startDirIOD(t)
	const half = 40 << 20
	regions := ioseg.List{{Offset: 0, Length: half}, {Offset: half, Length: half}}
	body, err := (&wire.ListReq{Regions: regions}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TReadList, Handle: 13}, Body: body})
	if err == nil || resp.Status != wire.StatusInvalid {
		t.Fatalf("80 MiB single-run list read: status %v, err %v; want StatusInvalid", resp.Status, err)
	}
	call(t, c, wire.TPing, 0, nil)
}
