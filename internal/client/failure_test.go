package client_test

import (
	"strings"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
)

// Failure injection: daemons dying mid-session must surface as errors,
// never hangs or corrupted results.

func TestIODFailureSurfacesAsError(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("doomed.dat", striping.Config{PCount: 4, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	// Kill one I/O daemon; operations touching it must fail promptly.
	if err := c.IODs[2].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(data, 0); err == nil {
		t.Fatal("read spanning a dead iod succeeded")
	}
	var mem, file ioseg.List
	for i := int64(0); i < 16; i++ {
		mem = append(mem, ioseg.Segment{Offset: i * 8, Length: 8})
		file = append(file, ioseg.Segment{Offset: i * 64, Length: 8})
	}
	arena := make([]byte, 128)
	if err := run(f, client.Request{Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err == nil {
		t.Fatal("list read touching a dead iod succeeded")
	}
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessMultiple}); err == nil {
		t.Fatal("multiple write touching a dead iod succeeded")
	}
	// Operations confined to live servers still work: stripe 0 lives
	// on iod 0.
	small := make([]byte, 8)
	if _, err := f.ReadAt(small, 0); err != nil {
		t.Fatalf("read on live iod failed: %v", err)
	}
}

func TestManagerFailure(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("orphan.dat", striping.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mgr.Close(); err != nil {
		t.Fatal(err)
	}
	// Metadata operations fail...
	if _, err := fs.Open("orphan.dat"); err == nil {
		t.Fatal("open with dead manager succeeded")
	}
	if _, err := fs.Create("new.dat", striping.Config{}); err == nil {
		t.Fatal("create with dead manager succeeded")
	}
	// ...but data-path I/O continues (the PVFS property: the manager
	// does not participate in read/write, §2).
	data := []byte("still flowing")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write with dead manager failed: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read with dead manager failed: %v", err)
	}
	if string(got) != string(data) {
		t.Fatal("data corrupted")
	}
}

func TestConnectToNothing(t *testing.T) {
	if _, err := client.Connect("127.0.0.1:1"); err == nil {
		t.Fatal("connect to closed port succeeded")
	}
}

func TestOpenMissingFile(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	_, err = fs.Open("nope")
	if err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v, want not-found", err)
	}
	if err := fs.Remove("nope"); err == nil {
		t.Fatal("remove of missing file succeeded")
	}
}
