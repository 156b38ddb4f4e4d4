package pvfs_test

import (
	"bytes"
	"context"
	"io/fs"
	"testing"

	"pvfs"
)

// TestFacadeQuickstart exercises the public API end to end: start a
// cluster, write a strided pattern with list I/O, read it back three
// ways, verify all agree.
func TestFacadeQuickstart(t *testing.T) {
	c, err := pvfs.StartCluster(pvfs.ClusterOptions{NumIOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	f, err := fs.Create("quick.dat", pvfs.StripeConfig{PCount: 4, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}

	offsets := make([]int64, 32)
	lengths := make([]int64, 32)
	for i := range offsets {
		offsets[i] = int64(i) * 100
		lengths[i] = 40
	}
	file, err := pvfs.Regions(offsets, lengths)
	if err != nil {
		t.Fatal(err)
	}
	mem := pvfs.List{{Offset: 0, Length: file.TotalLength()}}
	arena := bytes.Repeat([]byte{0xC3}, int(file.TotalLength()))
	ctx := context.Background()

	if _, err := f.Run(ctx, pvfs.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: pvfs.AccessList}); err != nil {
		t.Fatal(err)
	}

	for _, m := range []pvfs.AccessMethod{pvfs.AccessMultiple, pvfs.AccessSieve, pvfs.AccessList} {
		got := make([]byte, file.TotalLength())
		if _, err := f.Run(ctx, pvfs.Request{Arena: got, Mem: mem, File: file, Method: m}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(got, arena) {
			t.Fatalf("%v read mismatch", m)
		}
	}

	// Datatype route: the same pattern as a vector.
	v := pvfs.Vector(32, 40, 100, pvfs.Bytes(1))
	got := make([]byte, v.Size())
	if _, err := f.Run(ctx, pvfs.Request{Arena: got, Type: v}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, arena) {
		t.Fatal("datatype read mismatch")
	}
	if !pvfs.FlattenType(v, 0).Equal(file) {
		t.Fatal("vector flattening differs from explicit regions")
	}
}

// TestFacadeStdFS reads a PVFS file through the io/fs adapter with
// nothing but standard-library calls.
func TestFacadeStdFS(t *testing.T) {
	c, err := pvfs.StartCluster(pvfs.ClusterOptions{NumIOD: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer cfs.Close()

	want := bytes.Repeat([]byte("pvfs"), 777)
	f, err := cfs.Create("std.bin", pvfs.StripeConfig{PCount: 2, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := pvfs.StdFS(cfs)
	got, err := fs.ReadFile(fsys, "std.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fs.ReadFile over PVFS returned different bytes")
	}
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "std.bin" {
		t.Fatalf("ReadDir = %v, want [std.bin]", entries)
	}
}
