package client

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// startSinkIOD is a daemon that acknowledges every request and discards
// its body without materializing it, so that what the process allocates
// during a write is the client's doing.
func startSinkIOD(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				ack := (&wire.WrittenResp{}).Marshal()
				var hdr [wire.HeaderSize]byte
				for {
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					typ := wire.MsgType(binary.BigEndian.Uint16(hdr[6:]))
					bodyLen := binary.BigEndian.Uint32(hdr[20:])
					tag := binary.BigEndian.Uint32(hdr[24:])
					if _, err := io.CopyN(io.Discard, c, int64(bodyLen)); err != nil {
						return
					}
					resp := wire.Message{Header: wire.Header{Type: typ.Response(), Tag: tag}, Body: ack}
					if err := wire.WriteMessage(c, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// A 16 MiB contiguous write allocates bookkeeping only: piece lists,
// request descriptors and iovecs. Before the vectored path it staged and
// marshalled every byte (≈ 2 × 16 MiB per call).
func TestContigWriteAllocationBound(t *testing.T) {
	const pcount = 4
	addrs := make([]string, pcount)
	for i := range addrs {
		addrs[i] = startSinkIOD(t)
	}
	f := &File{
		fs: &FS{pool: pvfsnet.NewPool()},
		info: wire.FileInfo{
			Handle:   7,
			IODAddrs: addrs,
			Striping: striping.Config{PCount: pcount, StripeSize: 16 << 10},
		},
	}
	defer f.fs.pool.Close()
	data := make([]byte, 16<<20)
	write := func() {
		if err := f.writeContig(context.Background(), data, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	write() // dial, fill the small-buffer pool classes

	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B and %d allocations per 16 MiB write", perOp, (after.Mallocs-before.Mallocs)/runs)
	if perOp > 1_000_000 {
		t.Fatalf("a 16 MiB contiguous write allocated %d B, want <= 1 MB", perOp)
	}
	if reqs := f.fs.stats.Requests.Load(); reqs != (1+runs)*32 {
		t.Fatalf("%d requests for %d writes, want 32 each", reqs, 1+runs)
	}
}

// The daemon receives one chunk — a window of payload behind WriteReq's
// fixed fields — into a pool class of at most 1 MiB, which parks 16
// buffers (wire's TestWindowedWriteBodyClass pins the class table).
func TestContigChunkReceiveClass(t *testing.T) {
	b := wire.GetBuf(DefaultWindowBytes + wire.WriteReqFixedSize)
	defer wire.PutBuf(b)
	if cap(b) > 1<<20 {
		t.Fatalf("chunk body comes from the %d-byte class, want <= 1 MiB", cap(b))
	}
}
