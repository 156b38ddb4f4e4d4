package client

// White-box regression tests pinning the pooled-buffer leaks pvfs-lint
// (pvfs/bufown) found on the client's error paths: a daemon response
// that fails validation — a short read — must still be released. Each
// test drives the private datapath against a fake daemon that returns
// a wrong-size body and asserts the wire.BufStats get/put balance.

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// startShortIOD serves every request with a deliberately short body.
func startShortIOD(t *testing.T) *pvfsnet.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := pvfsnet.NewServer(ln, func(req wire.Message) wire.Message {
		return wire.Message{Body: []byte{0xbd}}
	}, nil)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// fakeFile builds an FS+File pair pointed at addr without a manager.
func fakeFile(addr string) *File {
	fs := &FS{pool: pvfsnet.NewPool()}
	return &File{
		fs: fs,
		info: wire.FileInfo{
			Handle:   7,
			IODAddrs: []string{addr},
			Striping: striping.Config{PCount: 1, StripeSize: 65536},
		},
	}
}

// requireBufBalance polls until the pool's get/put deltas converge
// (the server releases request bodies asynchronously after responding).
func requireBufBalance(t *testing.T, gets0, puts0 int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := wire.BufStats()
		if gets-gets0 == puts-puts0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffers leaked: %d gets vs %d puts since baseline",
				gets-gets0, puts-puts0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReadContigShortResponseReleasesBody(t *testing.T) {
	srv := startShortIOD(t)
	f := fakeFile(srv.Addr())
	defer f.fs.pool.Close()
	gets0, puts0 := wire.BufStats()

	err := f.readContig(context.Background(), make([]byte, 64), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "short read") {
		t.Fatalf("err = %v, want short read", err)
	}
	requireBufBalance(t, gets0, puts0)
}

func TestReadListShortResponseReleasesBody(t *testing.T) {
	srv := startShortIOD(t)
	f := fakeFile(srv.Addr())
	defer f.fs.pool.Close()
	gets0, puts0 := wire.BufStats()

	arena := make([]byte, 64)
	segs := ioseg.List{{Offset: 0, Length: 64}}
	err := f.readList(context.Background(), arena, memio.NewStreamMap(segs), segs, segs, ListOptions{}, DefaultWindow)
	if err == nil || !strings.Contains(err.Error(), "list read returned") {
		t.Fatalf("err = %v, want short list read", err)
	}
	requireBufBalance(t, gets0, puts0)
}
