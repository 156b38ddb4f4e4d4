package client_test

// End-to-end pooled-buffer accounting: a full metadata + I/O workout
// against an in-process cluster must leave wire.BufStats balanced.
// This pins the success-path leaks pvfs-lint (pvfs/bufown) found in
// Create/Open/List/Size/ServerStats — each dropped one manager or
// daemon response body per call before being fixed.

import (
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

func TestClientOpsLeaveBufPoolBalanced(t *testing.T) {
	_, fs := startCluster(t, 2)
	gets0, puts0 := wire.BufStats()

	f, err := fs.Create("bal.dat", striping.Config{PCount: 2, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	segs := ioseg.List{{Offset: 0, Length: 512}}
	if err := run(f, client.Request{Arena: make([]byte, 512), Mem: segs, File: segs, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Size(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.ServerStats(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("bal.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.List(); err != nil {
		t.Fatal(err)
	}

	awaitBufBalance(t, gets0, puts0)
}
