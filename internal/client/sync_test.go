package client_test

// End-to-end tests of the storage cache behind the daemons (DESIGN.md
// §7): every client datapath must read its own writes through a
// cache-enabled deployment, Sync/flush-on-close must move dirty blocks
// down to the backing store, and the server stats must surface the
// cache counters.

import (
	"bytes"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/store"
	"pvfs/internal/striping"
)

// startCachedCluster boots a deployment whose daemons run a write-back
// cache with the periodic flusher disabled, so data moves to the
// backing store only via TSync (File.Sync / Close).
func startCachedCluster(t *testing.T, numIOD int) (*cluster.Cluster, *client.FS) {
	t.Helper()
	c, err := cluster.Start(cluster.Options{
		NumIOD: numIOD,
		Cache:  &store.CacheOptions{BlockSize: 4096, FlushInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return c, fs
}

func TestCachedClusterDatapaths(t *testing.T) {
	_, fs := startCachedCluster(t, 4)
	f, err := fs.Create("cached.dat", striping.Config{PCount: 4, StripeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}

	// Contiguous.
	want := bytes.Repeat([]byte("cache"), 4096)
	if _, err := f.WriteAt(want, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("contiguous read diverges through cache")
	}

	// List I/O: interleaved 64-byte fragments.
	var mem, file ioseg.List
	for i := int64(0); i < 256; i++ {
		mem = append(mem, ioseg.Segment{Offset: i * 64, Length: 64})
		file = append(file, ioseg.Segment{Offset: 40000 + i*256, Length: 64})
	}
	arena := bytes.Repeat([]byte{0xA5}, int(mem.TotalLength()))
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(arena))
	if err := run(f, client.Request{Arena: back, Mem: mem, File: file, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, arena) {
		t.Fatal("list read diverges through cache")
	}

	// Datatype path (a strided vector).
	sw := bytes.Repeat([]byte{0x5A}, 64*8)
	vec := datatype.Vector(64, 8, 512, datatype.Bytes(1))
	if err := run(f, client.Request{Write: true, Arena: sw, Type: vec, Base: 200000}); err != nil {
		t.Fatal(err)
	}
	sr := make([]byte, len(sw))
	if err := run(f, client.Request{Arena: sr, Type: vec, Base: 200000}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sr, sw) {
		t.Fatal("strided read diverges through cache")
	}

	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncFlushesDaemonCaches(t *testing.T) {
	c, fs := startCachedCluster(t, 2)
	f, err := fs.Create("sync.dat", striping.Config{PCount: 2, StripeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 16384), 0); err != nil {
		t.Fatal(err)
	}
	if st := c.TotalStats(); st.CacheFlushes != 0 {
		t.Fatalf("flushes before sync: %+v", st)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	st := c.TotalStats()
	if st.CacheFlushes == 0 {
		t.Fatalf("Sync flushed nothing: %+v", st)
	}
}

func TestCloseFlushesDaemonCaches(t *testing.T) {
	c, fs := startCachedCluster(t, 2)
	f, err := fs.Create("close.dat", striping.Config{PCount: 2, StripeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st := c.TotalStats(); st.CacheFlushes == 0 {
		t.Fatalf("Close flushed nothing: %+v", st)
	}
	// The logical size must agree after reopen, served from the
	// flushed backing store.
	g, err := fs.Open("close.dat")
	if err != nil {
		t.Fatal(err)
	}
	sz, err := g.Size()
	if err != nil {
		t.Fatal(err)
	}
	if sz != 8192 {
		t.Fatalf("size after flush-on-close = %d", sz)
	}
}
