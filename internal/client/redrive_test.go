package client_test

// A request that fails inside a pipelined window is re-driven on the
// budget and backoff of its first attempt, over the connection the pool
// redials once for the whole window.

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
)

// TestDroppedWindowRedialsOnce: one dropped connection under a window of
// eight list requests costs one redial, and no request is retried more
// than once.
func TestDroppedWindowRedialsOnce(t *testing.T) {
	c, fs := startCluster(t, 1)
	f, err := fs.Create("storm.dat", striping.Config{PCount: 1, StripeSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// 16 list requests of 64 regions each.
	var file ioseg.List
	for i := int64(0); i < 16*64; i++ {
		file = append(file, ioseg.Segment{Offset: i * 128, Length: 64})
	}
	data := make([]byte, file.TotalLength())
	for i := range data {
		data[i] = byte(i*11 + 5)
	}
	req := client.Request{Write: true, Arena: data, File: file, Method: client.AccessList, Window: 8}
	if err := run(f, req); err != nil { // the connection is dialed here
		t.Fatal(err)
	}

	iod := f.Servers()[0]
	var dials atomic.Int64
	fs.SetConnWrap(func(nc net.Conn) net.Conn {
		if nc.RemoteAddr().String() == iod {
			dials.Add(1)
		}
		return nc
	})
	var faults pvfsnet.Faults
	c.IODs[0].Net().SetFaults(&faults)
	faults.SetDelay(2 * time.Millisecond)
	faults.DropConnections(1)
	fs.SetRetries(4)
	before := fs.Counters().Snapshot()
	if err := run(f, req); err != nil {
		t.Fatalf("list write across a dropped connection: %v", err)
	}
	d := fs.Counters().Snapshot().Sub(before)
	if n := dials.Load(); n != 1 {
		t.Errorf("%d redials after one dropped connection, want 1", n)
	}
	if d.Retries > int64(req.Window) {
		t.Errorf("%d retries, want at most the window (%d)", d.Retries, req.Window)
	}
	if d.List.Requests != 16 {
		t.Errorf("%d list requests, want 16 (re-drives are not new requests)", d.List.Requests)
	}
	faults.SetDelay(0)
	got := make([]byte, len(data))
	if err := run(f, client.Request{Arena: got, File: file, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("image differs after the re-driven write")
	}
}

// windowedRead sets up a 1 MiB file on one daemon, read back in two
// 512 KiB requests that are in flight together, and returns the
// daemon's fault injector.
func windowedRead(t *testing.T) (*client.FS, *client.File, *pvfsnet.Faults) {
	t.Helper()
	c, fs := startCluster(t, 1)
	f, err := fs.Create("window.dat", striping.Config{PCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if _, err := f.WriteAt(make([]byte, 2*client.DefaultWindowBytes), 0); err != nil {
		t.Fatal(err)
	}
	faults := new(pvfsnet.Faults)
	c.IODs[0].Net().SetFaults(faults)
	return fs, f, faults
}

// TestWindowedRetrySpendsOneBudget: a windowed request's first attempt
// counts against the policy, so SetRetries(2) allows three attempts in
// all, as it does for a lone call.
func TestWindowedRetrySpendsOneBudget(t *testing.T) {
	fs, f, faults := windowedRead(t)
	fs.SetRetries(2)
	faults.DropConnections(1 << 20)
	_, err := f.ReadAt(make([]byte, 2*client.DefaultWindowBytes), 0)
	var re *client.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) is not a *client.RetryError", err, err)
	}
	if re.Attempts != 3 {
		t.Errorf("RetryError.Attempts = %d, want 3", re.Attempts)
	}
	if got := fs.Counters().Retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

// TestWindowedRetryBacksOff: the first retry of a windowed request waits
// the policy's first backoff, as a lone call's does.
func TestWindowedRetryBacksOff(t *testing.T) {
	fs, f, faults := windowedRead(t)
	fs.SetRetryPolicy(client.RetryPolicy{Max: 2, Backoff: 20 * time.Millisecond})
	faults.UnavailableRequests(2)
	start := time.Now()
	if _, err := f.ReadAt(make([]byte, 2*client.DefaultWindowBytes), 0); err != nil {
		t.Fatalf("read failed: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("two unavailable answers retried in %v, want >= 20ms of backoff", d)
	}
	if got := fs.Counters().Retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}
