package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/iod"
	"pvfs/internal/ioseg"
	"pvfs/internal/mgr"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// Recovery: transient transport failures must be retryable when the
// caller opts in (FS.SetRetries), while server-reported errors must
// fail immediately. The original PVFS had no retry, so 0 is the
// default; these tests cover the opt-in path.

func writeSeeded(t *testing.T, fs *client.FS, name string, n, pcount int) []byte {
	t.Helper()
	f, err := fs.Create(name, striping.Config{PCount: pcount, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRetryRecoversFromDroppedConnection(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	want := writeSeeded(t, fs, "retry.dat", 1024, 4)

	f, err := fs.Open("retry.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var faults pvfsnet.Faults
	c.IODs[1].Net().SetFaults(&faults)

	// Without retries, a dropped connection surfaces as an error.
	faults.DropConnections(1)
	buf := make([]byte, len(want))
	if _, err := f.ReadAt(buf, 0); err == nil {
		t.Fatal("read across a dropped connection succeeded without retries")
	}
	if _, dropped := faults.Counts(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}

	// With retries, the same failure is absorbed: the client redials
	// and repeats the call.
	fs.SetRetries(2)
	faults.DropConnections(1)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read with retries failed: %v", err)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x after retried read", i, buf[i], want[i])
		}
	}
	if got := fs.Counters().Retries.Load(); got == 0 {
		t.Error("retry counter not incremented")
	}
}

func TestServerErrorsAreNotRetried(t *testing.T) {
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
	writeSeeded(t, fs, "srverr.dat", 256, 2)
	f, err := fs.Open("srverr.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var faults pvfsnet.Faults
	c.IODs[0].Net().SetFaults(&faults)
	fs.SetRetries(3)
	faults.FailRequests(1)

	buf := make([]byte, 8)
	_, err = f.ReadAt(buf, 0) // stripe 0 lives on iod 0
	if err == nil {
		t.Fatal("read answered StatusIOError succeeded")
	}
	var se *wire.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a StatusError", err)
	}
	if got := fs.Counters().Retries.Load(); got != 0 {
		t.Errorf("server error consumed %d retries, want 0", got)
	}
	failed, _ := faults.Counts()
	if failed != 1 {
		t.Errorf("failed = %d, want 1 (no retried attempts)", failed)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
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
	writeSeeded(t, fs, "exhaust.dat", 256, 2)
	f, err := fs.Open("exhaust.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var faults pvfsnet.Faults
	c.IODs[0].Net().SetFaults(&faults)
	fs.SetRetries(2)
	faults.DropConnections(10) // more drops than attempts

	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err == nil {
		t.Fatal("read succeeded with every attempt dropped")
	}
	if got := fs.Counters().Retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2 (exhausted)", got)
	}
}

// TestIODRestartSameAddress is the full recovery scenario: an I/O
// daemon dies and is restarted on the same address over the same
// store (as an init system would). A retrying client carries on; the
// data written before the crash is intact.
func TestIODRestartSameAddress(t *testing.T) {
	// Hand-built deployment so the test holds the stores.
	stores := []*store.Mem{store.NewMem(), store.NewMem()}
	iods := make([]*iod.Server, 2)
	addrs := make([]string, 2)
	var err error
	for i := range iods {
		if iods[i], err = iod.Listen("127.0.0.1:0", stores[i], nil); err != nil {
			t.Fatal(err)
		}
		addrs[i] = iods[i].Addr()
		defer func(i int) { iods[i].Close() }(i)
	}
	m, err := mgr.Listen("127.0.0.1:0", addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	fs, err := client.Connect(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.SetRetries(3)
	want := writeSeeded(t, fs, "survivor.dat", 512, 2)

	// Crash iod 1, then restart it on the same address and store.
	if err := iods[1].Close(); err != nil {
		t.Fatal(err)
	}
	restarted, err := iod.Listen(addrs[1], stores[1], nil)
	if err != nil {
		t.Fatalf("restart on %s: %v", addrs[1], err)
	}
	defer restarted.Close()

	f, err := fs.Open("survivor.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x after daemon restart", i, got[i], want[i])
		}
	}
	// Writes keep working too.
	if _, err := f.WriteAt([]byte("fresh"), 0); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
}

// Remove and ServerStats go through the same retrying call as the
// datapath: after an I/O daemon restarts on its address, the pooled
// socket to it is stale, and a retrying client must drop it and redial
// rather than fail every later call on it.
func TestRemoveAndServerStatsSurviveIODRestart(t *testing.T) {
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
	fs.SetRetries(1)
	writeSeeded(t, fs, "stats.dat", 256, 2)
	writeSeeded(t, fs, "doomed.dat", 256, 2)
	f, err := fs.Open("stats.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restart := func() {
		t.Helper()
		if err := c.KillIOD(1); err != nil {
			t.Fatal(err)
		}
		if err := c.RestartIOD(1); err != nil {
			t.Fatal(err)
		}
	}

	restart()
	if _, per, err := fs.ServerStats(f); err != nil || len(per) != 2 {
		t.Fatalf("ServerStats after a daemon restart: %d servers, %v", len(per), err)
	}
	restart()
	if err := fs.Remove("doomed.dat"); err != nil {
		t.Fatalf("Remove after a daemon restart: %v", err)
	}
	if _, err := fs.Open("doomed.dat"); err == nil {
		t.Fatal("removed file still opens")
	}
}

func TestFaultDelayOnlySlowsCalls(t *testing.T) {
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
	writeSeeded(t, fs, "slow.dat", 128, 2)
	f, err := fs.Open("slow.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var faults pvfsnet.Faults
	faults.SetDelay(5 * time.Millisecond)
	c.IODs[0].Net().SetFaults(&faults)

	start := time.Now()
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("delayed read failed: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("read completed in %v despite a 5ms injected delay", d)
	}
}

// TestUnavailableIsRetrySafe: StatusUnavailable is the one
// server-reported status a retry policy may re-issue on — the daemon
// answered but refused service (draining). Other statuses remain
// verdicts (TestServerErrorsAreNotRetried).
func TestUnavailableIsRetrySafe(t *testing.T) {
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
	want := writeSeeded(t, fs, "unav.dat", 256, 2)
	f, err := fs.Open("unav.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var faults pvfsnet.Faults
	c.IODs[0].Net().SetFaults(&faults)

	// Without a policy the refusal surfaces as a StatusError.
	faults.UnavailableRequests(1)
	buf := make([]byte, 8)
	_, err = f.ReadAt(buf, 0)
	var se *wire.StatusError
	if !errors.As(err, &se) || se.Status != wire.StatusUnavailable {
		t.Fatalf("unretried unavailable = %v, want StatusUnavailable", err)
	}

	// With a policy the refusals are absorbed, with backoff, on the
	// same healthy connection.
	fs.SetRetryPolicy(client.RetryPolicy{Max: 3, Backoff: time.Millisecond})
	faults.UnavailableRequests(2)
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read through two unavailable answers: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
	if r := fs.Counters().Retries.Load(); r != 2 {
		t.Errorf("retries = %d, want 2", r)
	}
}

// TestRequestRetryOverridesFSPolicy: a per-Request policy governs its
// own calls even when the FS default is no-retry.
func TestRequestRetryOverridesFSPolicy(t *testing.T) {
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
	want := writeSeeded(t, fs, "override.dat", 256, 2)
	f, err := fs.Open("override.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var faults pvfsnet.Faults
	c.IODs[0].Net().SetFaults(&faults)
	faults.DropConnections(1)

	got := make([]byte, len(want))
	_, err = f.Run(context.Background(), client.Request{
		Arena: got,
		File:  ioseg.List{{Offset: 0, Length: int64(len(want))}},
		Retry: &client.RetryPolicy{Max: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("read with per-request retries failed: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}

	// The FS default is still no-retry: the next drop fails.
	faults.DropConnections(1)
	if _, err := f.ReadAt(got, 0); err == nil {
		t.Fatal("FS-level call inherited the per-request policy")
	}
}

// TestRetryExhaustionReturnsTypedError: the bounded policy surfaces
// *client.RetryError with the attempt count, wrapping the final
// transport failure.
func TestRetryExhaustionReturnsTypedError(t *testing.T) {
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
	writeSeeded(t, fs, "typed.dat", 256, 2)
	f, err := fs.Open("typed.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var faults pvfsnet.Faults
	c.IODs[0].Net().SetFaults(&faults)
	fs.SetRetryPolicy(client.RetryPolicy{Max: 2, Backoff: time.Millisecond})
	faults.DropConnections(10)

	buf := make([]byte, 8)
	_, err = f.ReadAt(buf, 0)
	var re *client.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("exhaustion error %v (%T) is not *client.RetryError", err, err)
	}
	if re.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", re.Attempts)
	}
	if re.Err == nil {
		t.Error("RetryError does not wrap the final failure")
	}
}

// TestBackoffDelaysRetries: exponential backoff actually spaces the
// attempts out.
func TestBackoffDelaysRetries(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	writeSeeded(t, fs, "backoff.dat", 64, 1)
	f, err := fs.Open("backoff.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var faults pvfsnet.Faults
	c.IODs[0].Net().SetFaults(&faults)
	fs.SetRetryPolicy(client.RetryPolicy{Max: 2, Backoff: 20 * time.Millisecond})
	faults.UnavailableRequests(2) // retries at +20ms and +40ms

	start := time.Now()
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read failed: %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("two backoff retries completed in %v, want >= 60ms-ish", d)
	}
}
