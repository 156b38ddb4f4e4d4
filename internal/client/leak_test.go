package client

// White-box regression tests pinning the pooled-buffer leaks pvfs-lint
// (pvfs/bufown) found on the client's error paths: a daemon response
// that fails validation — a short read — must still be released. The
// test drives each planner's requests through the mover against a fake
// daemon that returns a wrong-size body and asserts the wire.BufStats
// get/put balance.

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
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

// quietBufStats returns the pool's get/put counters once they have
// held still across several polls. wire.BufStats is process-global, so
// a put still in flight from an earlier test's connection would
// otherwise land inside the caller's window.
func quietBufStats(t *testing.T) (gets, puts int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	gets, puts = wire.BufStats()
	for still := 0; still < 4; {
		if time.Now().After(deadline) {
			t.Fatal("pooled-buffer counters never settled before the test")
		}
		time.Sleep(5 * time.Millisecond)
		g, p := wire.BufStats()
		if g == gets && p == puts {
			still++
			continue
		}
		gets, puts, still = g, p, 0
	}
	return gets, puts
}

// A short response fails the read and still goes back to the pool, on
// every planner's requests: contiguous, list and datatype.
func TestShortResponseReleasesBody(t *testing.T) {
	const n = 64
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"contig", Request{File: ioseg.List{{Offset: 0, Length: n}}, Method: AccessContig}},
		{"list", Request{File: ioseg.List{{Offset: 0, Length: n}}, Method: AccessList}},
		{"datatype", Request{Type: datatype.Bytes(n), Method: AccessDatatype}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := startShortIOD(t)
			f := fakeFile(srv.Addr())
			defer f.fs.pool.Close()
			gets0, puts0 := quietBufStats(t)

			c.req.Arena = make([]byte, n)
			_, err := f.Run(context.Background(), c.req)
			if err == nil || !strings.Contains(err.Error(), "returned 1 bytes, want 64") {
				t.Fatalf("err = %v, want a short read", err)
			}
			requireBufBalance(t, gets0, puts0)
		})
	}
}
