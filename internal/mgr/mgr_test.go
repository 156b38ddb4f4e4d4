package mgr_test

import (
	"testing"
	"time"

	"pvfs/internal/mgr"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

func startMgr(t *testing.T, iods []string) (*mgr.Server, *pvfsnet.Conn) {
	t.Helper()
	srv, err := mgr.Listen("127.0.0.1:0", iods, nil)
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

func fourIODs() []string {
	return []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001", "10.0.0.4:7001"}
}

func create(t *testing.T, c *pvfsnet.Conn, name string, cfg striping.Config) wire.FileInfo {
	t.Helper()
	req := wire.CreateReq{Name: name, Striping: cfg}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()})
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	var info wire.FileInfo
	if err := info.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestCreateDefaults(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	info := create(t, c, "a", striping.Config{})
	if info.Striping.PCount != 4 {
		t.Fatalf("pcount = %d, want all 4", info.Striping.PCount)
	}
	if info.Striping.StripeSize != striping.DefaultStripeSize {
		t.Fatalf("ssize = %d", info.Striping.StripeSize)
	}
	if len(info.IODAddrs) != 4 || info.IODAddrs[0] != "10.0.0.1:7001" {
		t.Fatalf("iods = %v", info.IODAddrs)
	}
	if info.Handle == 0 {
		t.Fatal("zero handle")
	}
}

func TestCreateWithBaseRotatesAddrs(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	info := create(t, c, "rot", striping.Config{Base: 2, PCount: 3, StripeSize: 4096})
	want := []string{"10.0.0.3:7001", "10.0.0.4:7001", "10.0.0.1:7001"}
	if len(info.IODAddrs) != 3 {
		t.Fatalf("iods = %v", info.IODAddrs)
	}
	for i, a := range want {
		if info.IODAddrs[i] != a {
			t.Fatalf("iods = %v, want %v", info.IODAddrs, want)
		}
	}
}

func TestCreateDuplicateAndInvalid(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	create(t, c, "dup", striping.Config{})
	req := wire.CreateReq{Name: "dup"}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()})
	if err == nil {
		t.Fatal("duplicate create accepted")
	}
	if resp.Status != wire.StatusExists {
		t.Fatalf("status = %v", resp.Status)
	}
	// Empty name.
	req = wire.CreateReq{Name: ""}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()}); err == nil {
		t.Fatal("empty name accepted")
	}
	// More servers than exist.
	req = wire.CreateReq{Name: "big", Striping: striping.Config{PCount: 9}}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()}); err == nil {
		t.Fatal("pcount 9 of 4 accepted")
	}
	// Base beyond server table.
	req = wire.CreateReq{Name: "base", Striping: striping.Config{Base: 7, PCount: 2}}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: req.Marshal()}); err == nil {
		t.Fatal("base 7 of 4 accepted")
	}
}

func TestOpenStatRemove(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	created := create(t, c, "f", striping.Config{})
	nameReq := wire.NameReq{Name: "f"}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TOpen}, Body: nameReq.Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	var info wire.FileInfo
	if err := info.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	if info.Handle != created.Handle {
		t.Fatalf("open handle %d != create handle %d", info.Handle, created.Handle)
	}
	// Stat behaves like open.
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TStat}, Body: nameReq.Marshal()}); err != nil {
		t.Fatal(err)
	}
	// Remove, then open must fail.
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRemove}, Body: nameReq.Marshal()}); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Call(wire.Message{Header: wire.Header{Type: wire.TOpen}, Body: nameReq.Marshal()})
	if err == nil {
		t.Fatal("open after remove succeeded")
	}
	if resp.Status != wire.StatusNotFound {
		t.Fatalf("status = %v", resp.Status)
	}
	// Removing again fails with not-found.
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRemove}, Body: nameReq.Marshal()}); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestListDirSorted(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	for _, n := range []string{"zeta", "alpha", "mid"} {
		create(t, c, n, striping.Config{})
	}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TListDir}})
	if err != nil {
		t.Fatal(err)
	}
	var ld wire.ListDirResp
	if err := ld.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	if len(ld.Names) != 3 {
		t.Fatalf("names = %v", ld.Names)
	}
	for i := range want {
		if ld.Names[i] != want[i] {
			t.Fatalf("names = %v, want %v", ld.Names, want)
		}
	}
}

func TestSetSizeMonotonic(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	info := create(t, c, "sz", striping.Config{})
	set := func(size int64) {
		req := wire.SetSizeReq{Handle: info.Handle, Size: size}
		if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TSetSize}, Body: req.Marshal()}); err != nil {
			t.Fatal(err)
		}
	}
	set(1000)
	set(500) // shrink attempts are ignored (size is a high-water mark)
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TOpen}, Body: (&wire.NameReq{Name: "sz"}).Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	var got wire.FileInfo
	if err := got.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	if got.Size != 1000 {
		t.Fatalf("size = %d, want 1000", got.Size)
	}
	// Unknown handle.
	req := wire.SetSizeReq{Handle: 9999, Size: 1}
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TSetSize}, Body: req.Marshal()}); err == nil {
		t.Fatal("setsize on unknown handle succeeded")
	}
}

func TestUniqueHandles(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		info := create(t, c, string(rune('a'+i%26))+string(rune('0'+i/26)), striping.Config{})
		if seen[info.Handle] {
			t.Fatalf("handle %d reused", info.Handle)
		}
		seen[info.Handle] = true
	}
}

// TestRetiredProposeTypeRejected pins wire value 24, once the
// one-record propose the classic listener handed to its master: it is
// answered StatusInvalid — here with a body of the old request's
// shape, a marshaled create record — creates nothing, the listener
// keeps serving, and every request body goes back to the pool.
func TestRetiredProposeTypeRejected(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	gets0, puts0 := wire.BufStats()
	cr := wire.MetaCreateRec{Name: "retired", Info: wire.FileInfo{
		Handle:   1,
		Striping: striping.Config{PCount: 1, StripeSize: striping.DefaultStripeSize},
		IODAddrs: fourIODs()[:1],
	}}
	rec := wire.MetaRecord{Op: wire.TCreate, Body: cr.Marshal()}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: 24}, Body: rec.Marshal()})
	if err == nil || resp.Status != wire.StatusInvalid {
		t.Fatalf("retired type 24: status %v err %v, want invalid", resp.Status, err)
	}
	resp.Release()
	resp, err = c.Call(wire.Message{Header: wire.Header{Type: wire.TListDir}})
	if err != nil {
		t.Fatalf("listdir after retired type: %v", err)
	}
	var ld wire.ListDirResp
	if err := ld.Unmarshal(resp.Body); err != nil || len(ld.Names) != 0 {
		t.Fatalf("namespace after retired type: %v (err %v), want empty", ld.Names, err)
	}
	resp.Release()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := wire.BufStats()
		if gets-gets0 == puts-puts0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffers leaked: %d gets vs %d puts", gets-gets0, puts-puts0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMalformedBodies(t *testing.T) {
	_, c := startMgr(t, fourIODs())
	// The listener has no propose path: its shard proposes in process.
	for _, typ := range []wire.MsgType{wire.TCreate, wire.TOpen, wire.TRemove, wire.TSetSize, wire.TMetaPropose} {
		resp, err := c.Call(wire.Message{Header: wire.Header{Type: typ}, Body: []byte{0xFF}})
		if err == nil {
			t.Errorf("%v: malformed body accepted", typ)
		}
		if resp.Status == wire.StatusOK {
			t.Errorf("%v: OK status for malformed body", typ)
		}
	}
	// I/O request types are invalid at the manager.
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TRead}}); err == nil {
		t.Error("manager accepted an I/O request")
	}
}

// TestStrayConsensusFramesKeepManagerLeading sends the classic
// listener a vote request and an append at a higher term, as from a
// replica 1 its solo master does not have. Each is refused
// StatusProtocol: the solo master never campaigns, so stepping down
// for either would fail every later create. A create still succeeds.
func TestStrayConsensusFramesKeepManagerLeading(t *testing.T) {
	srv, c := startMgr(t, fourIODs())
	vote := wire.MetaVoteReq{Term: 99, Candidate: 1}
	app := wire.MetaAppendReq{Term: 99, Leader: 1}
	for typ, body := range map[wire.MsgType][]byte{wire.TMetaVote: vote.Marshal(), wire.TMetaAppend: app.Marshal()} {
		resp, err := c.Call(wire.Message{Header: wire.Header{Type: typ}, Body: body})
		if err == nil || resp.Status != wire.StatusProtocol {
			t.Fatalf("%v from a non-replica: status %v err %v, want protocol", typ, resp.Status, err)
		}
	}
	if !srv.Node().IsLeader() {
		t.Fatal("solo master stepped down")
	}
	create(t, c, "after-stray", striping.Config{PCount: 1, StripeSize: striping.DefaultStripeSize})
}
