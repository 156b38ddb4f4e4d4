package client_test

// Contiguous writes travel as window-sized vectored TWrite requests cut
// straight out of the user arena, and contiguous reads as window-sized
// TRead requests whose bodies land in it. These tests hold the write
// path to the image a single staged request per daemon produces — the
// request shape it replaced, kept here as the reference — over odd
// geometry, reads past the one-frame limit, and both directions to
// per-tag replay under wire faults.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/faultnet"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// writeSingleRequest is the reference writer: each daemon's share of
// the extent is staged into one buffer and sent as one TWrite.
func writeSingleRequest(t *testing.T, f *client.File, data []byte, off int64) {
	t.Helper()
	cfg := f.Striping()
	type share struct {
		lo, hi int64 // physical extent
		pieces []striping.Piece
	}
	shares := map[int]*share{}
	for _, p := range cfg.Split(ioseg.Segment{Offset: off, Length: int64(len(data))}) {
		s := shares[p.Server]
		if s == nil {
			s = &share{lo: p.Phys.Offset, hi: p.Phys.End()}
			shares[p.Server] = s
		}
		s.lo, s.hi = min(s.lo, p.Phys.Offset), max(s.hi, p.Phys.End())
		s.pieces = append(s.pieces, p)
	}
	for rel, s := range shares {
		staged := make([]byte, s.hi-s.lo)
		for _, p := range s.pieces {
			copy(staged[p.Phys.Offset-s.lo:], data[p.Logical.Offset-off:p.Logical.End()-off])
		}
		conn, err := pvfsnet.Dial(f.Servers()[rel])
		if err != nil {
			t.Fatal(err)
		}
		req := wire.WriteReq{Offset: s.lo, Data: staged}
		resp, err := conn.Call(wire.Message{
			Header: wire.Header{Type: wire.TWrite, Handle: f.Handle()},
			Body:   req.Marshal(),
		})
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
}

func TestChunkedContigWriteMatchesSingleRequest(t *testing.T) {
	const win = client.DefaultWindowBytes
	for _, backing := range []string{"Mem", "Dir"} {
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

		rng := rand.New(rand.NewSource(12))
		for _, pcount := range []int{1, 4} {
			for _, stripe := range []int64{16 << 10, 12345} { // the second never divides a chunk
				span := int64(win * pcount) // one full chunk on every daemon
				geometries := []struct {
					name     string
					off, len int64
				}{
					{"tiny unaligned", 33, 1000},
					{"shorter than one chunk", 4097, span/2 + 13},
					{"exactly one chunk each", 0, span},
					{"one byte past the chunk boundary", 0, span + 1},
					{"straddling, unaligned both ends", stripe - 5, span + stripe/2 + 3},
					{"several chunks and a tail", 7, 2*span + 777},
				}
				for gi, g := range geometries {
					name := fmt.Sprintf("%s/pcount%d/stripe%d/%s", backing, pcount, stripe, g.name)
					data := make([]byte, g.len)
					rng.Read(data)
					cfg := striping.Config{PCount: pcount, StripeSize: stripe}
					base := fmt.Sprintf("%s-%d-%d-%d", backing, pcount, stripe, gi)

					chunked, err := fs.Create(base+"-chunked", cfg)
					if err != nil {
						t.Fatal(err)
					}
					before := fs.Counters().Snapshot()
					if _, err := chunked.WriteAt(data, g.off); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					delta := fs.Counters().Snapshot().Sub(before)
					if delta.BytesOut != g.len {
						t.Fatalf("%s: BytesOut %d, want %d", name, delta.BytesOut, g.len)
					}
					single, err := fs.Create(base+"-single", cfg)
					if err != nil {
						t.Fatal(err)
					}
					writeSingleRequest(t, single, data, g.off)

					want := append(make([]byte, g.off), data...)
					for _, f := range []*client.File{chunked, single} {
						size, err := f.Size()
						if err != nil {
							t.Fatal(err)
						}
						if size != int64(len(want)) {
							t.Fatalf("%s: %s is %d bytes, want %d", name, f.Name(), size, len(want))
						}
						got := make([]byte, size)
						if _, err := f.ReadAt(got, 0); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: image of %s differs from the bytes written", name, f.Name())
						}
					}
					// The request arithmetic: ceil(share / window) per daemon.
					var wantReqs int64
					for rel := 0; rel < pcount; rel++ {
						share := cfg.PhysRange(rel, g.off, g.off+g.len)
						wantReqs += (share + win - 1) / win
					}
					if delta.Requests != wantReqs {
						t.Fatalf("%s: %d requests, want %d", name, delta.Requests, wantReqs)
					}
				}
			}
		}
	}
}

// A daemon's share of a contiguous read used to travel as one TRead, so
// a share above wire.MaxBodyLen (64 MiB) was refused with
// StatusInvalid while the same WriteAt succeeded. Windowed reads have
// no such bound: 65 MiB on one daemon round-trips byte for byte.
func TestContigReadLargerThanMaxBody(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("big.dat", striping.Config{PCount: 1, StripeSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// A period that divides neither a stripe unit nor a window, so a
	// misplaced chunk cannot match.
	period := make([]byte, 1<<20+7)
	rand.New(rand.NewSource(65)).Read(period)
	data := make([]byte, wire.MaxBodyLen+1<<20)
	for at := 0; at < len(data); at += len(period) {
		copy(data[at:], period)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	clear(data)
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatalf("reading 65 MiB from one daemon: %v", err)
	}
	for at := 0; at < len(data); at += len(period) {
		end := min(at+len(period), len(data))
		if !bytes.Equal(data[at:end], period[:end-at]) {
			t.Fatalf("read-back differs in the period at byte %d", at)
		}
	}
}

// awaitBufBalance polls until every pooled buffer taken since the
// baseline has come back (daemons recycle request bodies after they
// answer).
func awaitBufBalance(t *testing.T, gets0, puts0 int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := wire.BufStats()
		if gets-gets0 == puts-puts0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffers leaked: %d gets vs %d puts since baseline", gets-gets0, puts-puts0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A chunk torn mid-body, a connection dropped mid-window and a daemon
// answering StatusUnavailable each cost a re-drive of the unacked
// chunks only, writing and then reading: the image and the bytes read
// back are identical to what was written, and the pool is balanced.
// On the read side the drop lands inside a response body that is being
// read straight into the arena; the replayed chunk rewrites it whole.
func TestContigChunkReplayUnderFaults(t *testing.T) {
	const win = client.DefaultWindowBytes
	for name, plan := range map[string]faultnet.Plan{
		"truncate":    {TruncateFrame: 3},
		"drop":        {DropAfterBytes: win + win/3},
		"unavailable": {},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := cluster.Start(cluster.Options{NumIOD: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			gets0, puts0 := wire.BufStats()
			// session opens the file in a new client whose first daemon
			// connection dialed is faulty; redials are clean.
			session := func(open func(*client.FS, string) (*client.File, error)) (*client.FS, *client.File) {
				fs, err := c.Connect()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { fs.Close() })
				f, err := open(fs, "replay.dat")
				if err != nil {
					t.Fatal(err)
				}
				var fired atomic.Bool
				fs.SetConnWrap(func(nc net.Conn) net.Conn {
					if fired.CompareAndSwap(false, true) {
						return faultnet.WrapConn(nc, plan)
					}
					return nc
				})
				if name == "unavailable" {
					var faults pvfsnet.Faults
					c.IODs[0].Net().SetFaults(&faults)
					faults.UnavailableRequests(2)
				}
				fs.SetRetryPolicy(client.RetryPolicy{Max: 4, Backoff: time.Millisecond})
				return fs, f
			}
			// replayed checks that the fault fired and cost retries, not
			// new requests.
			replayed := func(fs *client.FS, dir string) {
				t.Helper()
				if r := fs.Counters().Retries.Load(); r == 0 {
					t.Fatalf("%s: no retry recorded: the fault never fired", dir)
				}
				if reqs := fs.Counters().Requests.Load(); reqs != 8 {
					t.Fatalf("%s: %d logical requests, want 8 (replays are not new requests)", dir, reqs)
				}
			}

			wfs, f := session(func(fs *client.FS, name string) (*client.File, error) {
				return fs.Create(name, striping.Config{PCount: 2, StripeSize: 16 << 10})
			})
			data := make([]byte, 7*win) // 3.5 windows, so four chunks, per daemon
			rand.New(rand.NewSource(5)).Read(data)
			if _, err := f.WriteAt(data, 11); err != nil {
				t.Fatalf("write through %s fault: %v", name, err)
			}
			replayed(wfs, "write")
			got := make([]byte, len(data))
			if _, err := f.ReadAt(got, 11); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("image differs after replay")
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			rfs, rf := session((*client.FS).Open)
			clear(got)
			if _, err := rf.ReadAt(got, 11); err != nil {
				t.Fatalf("read through %s fault: %v", name, err)
			}
			replayed(rfs, "read")
			if !bytes.Equal(got, data) {
				t.Fatal("bytes read through the fault differ from the bytes written")
			}
			awaitBufBalance(t, gets0, puts0)
		})
	}
}

// Truncate and Size fan out to the daemons in parallel and stop when
// the caller's context ends.
func TestTruncateAndSizeFanOut(t *testing.T) {
	_, f, faults := startTestCluster(t, 4)
	if _, err := f.WriteAt(make([]byte, 64<<10), 0); err != nil {
		t.Fatal(err)
	}
	const delay = 40 * time.Millisecond
	for _, fl := range faults {
		fl.SetDelay(delay)
	}
	t0 := time.Now()
	if err := f.TruncateContext(context.Background(), 10_000); err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 10_000 {
		t.Fatalf("size after truncate = %d", size)
	}
	// Serial walks would take 2 × 4 × delay; parallel ones 2 × delay.
	if took := time.Since(t0); took > 5*delay {
		t.Fatalf("truncate+size over 4 delayed daemons took %v: not fanned out", took)
	}

	ctx, cancel := context.WithTimeout(context.Background(), delay/4)
	defer cancel()
	if err := f.TruncateContext(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TruncateContext past its deadline = %v", err)
	}
	for _, fl := range faults {
		fl.SetDelay(0)
	}
	// The connection pool survives the abandoned calls.
	if err := f.Truncate(5_000); err != nil {
		t.Fatal(err)
	}
	if size, err := f.Size(); err != nil || size != 5_000 {
		t.Fatalf("size = %d, %v after the second truncate", size, err)
	}
}
