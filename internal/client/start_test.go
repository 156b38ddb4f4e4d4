package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
)

// Tests for the unified nonblocking API (DESIGN.md §8): Start/Op,
// cancellation mid-transfer, the per-call deadline knob, and overlap
// of concurrent started operations.

// startTestCluster boots a small cluster with one connected session
// and an open striped file, plus the Faults handles of each daemon.
func startTestCluster(t *testing.T, niod int) (*client.FS, *client.File, []*pvfsnet.Faults) {
	t.Helper()
	c, err := cluster.Start(cluster.Options{NumIOD: niod})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	faults := make([]*pvfsnet.Faults, len(c.IODs))
	for i, iod := range c.IODs {
		faults[i] = &pvfsnet.Faults{}
		iod.Net().SetFaults(faults[i])
	}
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	f, err := fs.Create("start.dat", striping.Config{PCount: niod, StripeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return fs, f, faults
}

// fragPattern builds a fragmented pattern: n pieces of 64 bytes,
// contiguous in memory, every 256 bytes in the file.
func fragPattern(n int64) (mem, file ioseg.List) {
	for i := int64(0); i < n; i++ {
		mem = append(mem, ioseg.Segment{Offset: i * 64, Length: 64})
		file = append(file, ioseg.Segment{Offset: i * 256, Length: 64})
	}
	return
}

// waitGoroutines polls until the goroutine count drops to at most
// want, failing the test after two seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d live, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidTransfer cancels in-flight operations on every pipelined
// datapath (contiguous, list and datatype, reads and writes) and
// verifies: the Op fails with context.Canceled, no goroutines leak, and
// the same pooled connections serve a subsequent full transfer
// correctly — the acceptance criterion that a canceled Op leaves the
// pool reusable. A canceled read's arena is the caller's again the
// moment Wait returns: it is poisoned then, and no late response — in
// particular none of those the contiguous and list Vec-arm reads have
// the transport read straight into the arena — may write into it.
func TestCancelMidTransfer(t *testing.T) {
	_, f, faults := startTestCluster(t, 4)
	mem, file := fragPattern(2048) // 32 requests/server at 64 entries
	arena := make([]byte, mem.TotalLength())
	for i := range arena {
		arena[i] = byte(i * 7)
	}
	vec := datatype.Vector(2048, 64, 256, datatype.Bytes(1))

	// Seed the file so canceled reads have data under them.
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}

	// Window=2 keeps the pipelined path (in-flight tags to abandon)
	// while forcing many sequential drain rounds: with the 2ms
	// injected delay every op takes tens of milliseconds, so the 5ms
	// cancel below lands deterministically mid-transfer (at default
	// windows the whole op can finish inside the injected delay).
	dtSerial := client.DatatypeOptions{WindowBytes: 2 << 10}
	// The FLASH memory side (8-byte pieces between guard cells) keeps
	// the stream map's strided kernels scattering 256-byte windows from
	// several servers at once while the cancel lands; under -race that
	// is the check that an abandoned window never touches the arena
	// late.
	flash := &patterns.Flash{NumRanks: 1, Blocks: 8, Elems: 4, Guard: 1, Vars: 12}
	flashRun := int64(flash.Blocks*flash.Elems*flash.Elems*flash.Elems) * 8
	// The contiguous read's windows cannot be narrowed, so it gets its
	// span in whole 512 KiB chunks: four per daemon, all in flight at
	// once. That whole read fits inside the 2ms delay, so its daemons
	// hold every chunk for longer: the cancel lands with all of them in
	// flight, and their bodies reach abandoned tags after Wait returned.
	contig := make([]byte, 4*4*client.DefaultWindowBytes)
	if _, err := f.WriteAt(contig, 1<<20); err != nil {
		t.Fatal(err)
	}
	reqs := map[string]client.Request{
		"contig-read":    {Arena: contig, File: ioseg.List{{Offset: 1 << 20, Length: int64(len(contig))}}},
		"list-read":      {Arena: make([]byte, len(arena)), Mem: mem, File: file, Method: client.AccessList, Window: 2},
		"list-write":     {Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList, Window: 2},
		"datatype-read":  {Arena: make([]byte, len(arena)), Mem: mem, Type: vec, Base: 0, Count: 1, Method: client.AccessDatatype, Datatype: dtSerial, Window: 2},
		"datatype-write": {Write: true, Arena: arena, Mem: mem, Type: vec, Base: 0, Count: 1, Method: client.AccessDatatype, Datatype: dtSerial, Window: 2},
		"flash-datatype-read": {
			Arena: make([]byte, flash.ArenaBytes(0)), Mem: patterns.MemList(flash, 0),
			Type:   datatype.Vector(int64(flash.Vars), flashRun, flashRun, datatype.Bytes(1)),
			Method: client.AccessDatatype, Datatype: client.DatatypeOptions{WindowBytes: 256}, Window: 2,
		},
	}

	delays := map[string]time.Duration{"contig-read": 100 * time.Millisecond}

	base := runtime.NumGoroutine()
	for name, req := range reqs {
		t.Run(name, func(t *testing.T) {
			delay := 2 * time.Millisecond
			if d, ok := delays[name]; ok {
				delay = d
			}
			for _, fa := range faults {
				fa.SetDelay(delay)
			}
			ctx, cancel := context.WithCancel(context.Background())
			op := f.Start(ctx, req)
			time.Sleep(5 * time.Millisecond) // let requests get in flight
			cancel()
			_, err := op.Wait()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("op error = %v, want context.Canceled", err)
			}
			if !req.Write {
				for i := range req.Arena {
					req.Arena[i] = 0xEE
				}
			}
			for _, fa := range faults {
				fa.SetDelay(0)
			}
			// The pool must still carry the transfer end to end.
			if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
				t.Fatalf("write after cancel: %v", err)
			}
			got := make([]byte, len(arena))
			if err := run(f, client.Request{Arena: got, Mem: mem, File: file, Method: client.AccessList}); err != nil {
				t.Fatalf("read after cancel: %v", err)
			}
			if !bytes.Equal(got, arena) {
				t.Fatal("data mismatch after canceled op")
			}
			if !req.Write {
				time.Sleep(delay + 10*time.Millisecond) // the late responses have drained
				if n := bytes.Count(req.Arena, []byte{0xEE}); n != len(req.Arena) {
					t.Fatalf("%d bytes of the canceled read's arena were written after Wait returned", len(req.Arena)-n)
				}
			}
		})
	}
	// Late responses drain; nothing may stay behind but the pool's
	// read loops (already counted in base) and test runner slack.
	waitGoroutines(t, base+2)
}

// TestCallTimeoutFailsStalledCall pins the per-call deadline knob: a
// daemon stalling every request fails the operation promptly with
// DeadlineExceeded (not a forever-wedged waiter), and once the daemon
// recovers the same pooled connection completes a full transfer.
func TestCallTimeoutFailsStalledCall(t *testing.T) {
	_, f, faults := startTestCluster(t, 2)
	mem, file := fragPattern(256)
	arena := make([]byte, mem.TotalLength())
	for i := range arena {
		arena[i] = byte(i)
	}
	for _, fa := range faults {
		fa.SetDelay(2 * time.Second) // a stalled daemon (20× the call budget)
	}
	start := time.Now()
	_, err := f.Run(context.Background(), client.Request{
		Write: true, Arena: arena, Mem: mem, File: file,
		Method: client.AccessList, CallTimeout: 100 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("stalled call was not bounded by CallTimeout")
	}
	for _, fa := range faults {
		fa.SetDelay(0)
	}
	// The stalled requests are still queued behind the injected delay
	// only until it elapses for them; new calls on the same pooled
	// connections must succeed.
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
		t.Fatalf("write after stall: %v", err)
	}
	got := make([]byte, len(arena))
	if err := run(f, client.Request{Arena: got, Mem: mem, File: file, Method: client.AccessList}); err != nil {
		t.Fatalf("read after stall: %v", err)
	}
	if !bytes.Equal(got, arena) {
		t.Fatal("data mismatch after stalled op")
	}
}

// TestStartOverlapOutOfOrder runs two concurrent Ops on one file: a
// long fragmented write and a short one. The short op must complete
// while the long one is still in flight (out-of-order completion), and
// the resulting image must be byte-identical to running the same two
// requests serially.
func TestStartOverlapOutOfOrder(t *testing.T) {
	fs, f, faults := startTestCluster(t, 2)
	for _, fa := range faults {
		fa.SetDelay(10 * time.Millisecond)
	}

	memA, fileA := fragPattern(512) // 8 serialized requests/server, ≥80ms
	arenaA := make([]byte, memA.TotalLength())
	for i := range arenaA {
		arenaA[i] = byte(i * 3)
	}
	// Short op: one contiguous write beyond the long op's span.
	arenaB := bytes.Repeat([]byte{0xAB}, 4096)
	offB := int64(512 * 256)

	ctx := context.Background()
	reqA := client.Request{
		Write: true, Arena: arenaA, Mem: memA, File: fileA,
		Method: client.AccessList, Window: 1,
	}
	reqB := client.Request{
		Write: true, Arena: arenaB,
		File: ioseg.List{{Offset: offB, Length: int64(len(arenaB))}},
	}
	opA := f.Start(ctx, reqA)
	opB := f.Start(ctx, reqB)

	select {
	case <-opB.Done():
		// B finished first: out-of-order completion with A in flight.
		if opA.Err() != nil {
			t.Fatalf("long op failed early: %v", opA.Err())
		}
	case <-opA.Done():
		t.Fatal("long op finished before short op; no overlap happened")
	}
	if _, err := opA.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := opB.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, fa := range faults {
		fa.SetDelay(0)
	}

	// Serialized reference on a second file.
	ref, err := fs.Create("start-ref.dat", striping.Config{PCount: 2, StripeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(ctx, reqA); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(ctx, reqB); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	a := fullImage(t, fs, "start.dat")
	b := fullImage(t, fs, "start-ref.dat")
	if !bytes.Equal(a, b) {
		t.Fatal("overlapped and serialized executions left different images")
	}
}

// TestRequestAutoRouting checks the auto method selection: encodable
// datatype layouts take the datatype path, single-region pairs the
// contiguous path, fragmented region lists the list path — visible in
// the per-path request counters.
func TestRequestAutoRouting(t *testing.T) {
	fs, f, _ := startTestCluster(t, 2)
	ctx := context.Background()

	// Contiguous.
	buf := bytes.Repeat([]byte{1}, 8192)
	res, err := f.Run(ctx, client.Request{Write: true, Arena: buf,
		File: ioseg.List{{Offset: 0, Length: int64(len(buf))}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != client.AccessContig {
		t.Fatalf("single-region auto method = %v, want contig", res.Method)
	}

	// Datatype (encodable vector).
	before := fs.Counters().Snapshot()
	vec := datatype.Vector(16, 64, 256, datatype.Bytes(1))
	arena := make([]byte, 16*64)
	res, err = f.Run(ctx, client.Request{Write: true, Arena: arena, Type: vec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != client.AccessDatatype {
		t.Fatalf("vector auto method = %v, want datatype", res.Method)
	}
	d := fs.Counters().Snapshot().Sub(before)
	if d.Datatype.Requests == 0 {
		t.Fatalf("datatype path counter did not move: %+v", d)
	}

	// Fragmented region list.
	mem, file := fragPattern(8)
	res, err = f.Run(ctx, client.Request{Write: true, Arena: make([]byte, mem.TotalLength()), Mem: mem, File: file})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != client.AccessList {
		t.Fatalf("fragmented auto method = %v, want list", res.Method)
	}
	if res.Bytes != mem.TotalLength() {
		t.Fatalf("result bytes = %d, want %d", res.Bytes, mem.TotalLength())
	}

	// A request with two layouts is rejected.
	if _, err := f.Run(ctx, client.Request{Arena: arena, Type: vec, File: file}); err == nil {
		t.Fatal("request with two file layouts accepted")
	}
	_ = fmt.Sprintf("%v", res.Method) // AccessMethod implements Stringer
}

// TestParseAccessMethod pins ParseAccessMethod as the inverse of
// AccessMethod.String, the one name table the commands share.
func TestParseAccessMethod(t *testing.T) {
	for m := client.AccessAuto; m <= client.AccessHybrid; m++ {
		got, err := client.ParseAccessMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseAccessMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, bad := range []string{"", "sieve", "List", "access(9)"} {
		if _, err := client.ParseAccessMethod(bad); err == nil {
			t.Fatalf("ParseAccessMethod(%q) accepted", bad)
		}
	}
}
