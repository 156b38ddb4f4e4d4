package client_test

// A list write sends a request's payload from the arena (a wire.Vec)
// when every region is one arena extent and gathers it into the request
// body otherwise. These tests hold both arms to one file image over the
// cross-method matrix's patterns, over a wrapped connection (where
// wire.WriteMessage coalesces the vector into one Write) and across a
// connection dropped mid-write (where the vector is replayed).

import (
	"bytes"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/faultnet"
	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// shatter re-houses a packed stream in 8-byte elements 24 bytes apart
// (FLASH's shape; the last element may be short), and returns that arena
// and its memory list: the same stream, no region of which is one
// extent once it is longer than an element.
func shatter(t *testing.T, stream []byte) ([]byte, ioseg.List) {
	t.Helper()
	var mem ioseg.List
	for pos := int64(0); pos < int64(len(stream)); pos += 8 {
		mem = append(mem, ioseg.Segment{Offset: 5 + pos*3, Length: min(8, int64(len(stream))-pos)})
	}
	arena := make([]byte, 5+3*len(stream)+8)
	if err := memio.Scatter(arena, mem, stream); err != nil {
		t.Fatal(err)
	}
	return arena, mem
}

func TestListWriteVecMatchesGather(t *testing.T) {
	cyclic, err := patterns.NewCyclic1D(3, 200, 3*200*4096)
	if err != nil {
		t.Fatal(err)
	}
	pats := map[string]patterns.Pattern{"cyclic-4KiB": cyclic}
	for _, seed := range []int64{1, 7, 4242} { // equivalence_test.go's seeds and geometry
		p, err := patterns.NewRandom(3, seed, patterns.RandomOptions{
			RegionsPerRank: 80, MinSize: 1, MaxSize: 700, MaxGap: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		pats[fmt.Sprintf("random-seed%d", seed)] = p
	}

	for _, backing := range []string{"Mem", "Dir"} {
		for _, wrapped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wrapped=%v", backing, wrapped), func(t *testing.T) {
				opts := cluster.Options{NumIOD: 4}
				if backing == "Dir" {
					opts.DataDir = t.TempDir()
				}
				c, err := cluster.Start(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				fs, err := c.Connect()
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				if wrapped {
					// A plan that never fires: the connection is merely not
					// a *net.TCPConn any more.
					fs.SetConnWrap(func(nc net.Conn) net.Conn {
						return faultnet.WrapConn(nc, faultnet.Plan{DropAfterBytes: 1 << 40})
					})
				}
				gets0, puts0 := wire.BufStats()
				for name, pat := range pats {
					for _, stripe := range []int64{512, 16 << 10} {
						cfg := striping.Config{PCount: 4, StripeSize: stripe}
						var ref []byte
						images := map[string][]byte{}
						for _, arm := range []string{"vec", "gather"} {
							fname := fmt.Sprintf("%s-%d-%s", name, stripe, arm)
							f, err := fs.Create(fname, cfg)
							if err != nil {
								t.Fatal(err)
							}
							for r := 0; r < pat.Ranks(); r++ {
								stream := make([]byte, pat.TotalBytes(r))
								for i := range stream {
									stream[i] = byte(r*31 + i + i>>8)
								}
								file := patterns.FileList(pat, r)
								if arm == "vec" {
									span, _ := file.Span()
									if int64(len(ref)) < span.End() {
										ref = append(ref, make([]byte, span.End()-int64(len(ref)))...)
									}
									var pos int64
									for _, s := range file {
										copy(ref[s.Offset:s.End()], stream[pos:pos+s.Length])
										pos += s.Length
									}
								}
								arena, mem := stream, ioseg.List(nil) // nil: one region over the arena
								if arm == "gather" {
									arena, mem = shatter(t, stream)
								}
								if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
									t.Fatalf("%s rank %d: %v", fname, r, err)
								}
							}
							if err := f.Close(); err != nil {
								t.Fatal(err)
							}
							images[arm] = fullImage(t, fs, fname)
						}
						if !bytes.Equal(images["vec"], ref) {
							t.Fatalf("%s stripe %d: vectored image differs from the reference", name, stripe)
						}
						if !bytes.Equal(images["gather"], ref) {
							t.Fatalf("%s stripe %d: gathered image differs from the reference", name, stripe)
						}
					}
				}
				awaitBufBalance(t, gets0, puts0)
			})
		}
	}
}

// A connection cut mid-request and a frame torn mid-body cost a replay
// of the unacked list requests only. A vectored request is replayed
// from the arena, verbatim; the image is byte-identical and the pool
// balanced.
func TestListWriteVecReplayUnderFaults(t *testing.T) {
	const regions, region = 512, 4 << 10
	for name, plan := range map[string]faultnet.Plan{
		"drop":     {DropAfterBytes: 5*(64<<10) + 12345}, // inside the sixth request's payload
		"truncate": {TruncateFrame: 4},
	} {
		t.Run(name, func(t *testing.T) {
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
			gets0, puts0 := wire.BufStats()
			f, err := fs.Create("replay-list.dat", striping.Config{PCount: 2, StripeSize: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			// Only the first daemon connection dialed is faulty; redials
			// are clean.
			var fired atomic.Bool
			fs.SetConnWrap(func(nc net.Conn) net.Conn {
				if fired.CompareAndSwap(false, true) {
					return faultnet.WrapConn(nc, plan)
				}
				return nc
			})
			fs.SetRetryPolicy(client.RetryPolicy{Max: 4, Backoff: time.Millisecond})

			pat, err := patterns.NewCyclic1D(2, regions, 2*regions*region)
			if err != nil {
				t.Fatal(err)
			}
			file := patterns.FileList(pat, 1)
			data := make([]byte, pat.TotalBytes(1))
			for i := range data {
				data[i] = byte(i*13 + i>>10)
			}
			if err := run(f, client.Request{Write: true, Arena: data, File: file, Method: client.AccessList}); err != nil {
				t.Fatalf("list write through %s fault: %v", name, err)
			}
			if r := fs.Counters().Retries.Load(); r == 0 {
				t.Fatal("no retry recorded: the fault never fired")
			}
			if reqs := fs.Counters().List.Requests.Load(); reqs != regions/64*2 {
				t.Fatalf("%d list requests, want %d (replays are not new requests)", reqs, regions/64*2)
			}
			got := make([]byte, len(data))
			if err := run(f, client.Request{Arena: got, File: file, Method: client.AccessList}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("image differs after replay")
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			awaitBufBalance(t, gets0, puts0)
		})
	}
}
