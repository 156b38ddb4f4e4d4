package chaos_test

// The chaos conformance suite (ISSUE 5): every noncontiguous datapath
// is driven over a scripted faulty wire while an I/O daemon is killed
// and restarted mid-transfer; the surviving client must produce
// byte-identical file images vs a healthy shadow run, drain its
// goroutines, and surface typed errors — never hang — when recovery
// is impossible.
//
// Each run logs its seed; replay a failure exactly with
//
//	PVFS_CHAOS_SEED=<seed> go test -race ./internal/chaos

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"pvfs/internal/chaos"
	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
)

// suiteSeed returns the seed to drive every randomized decision from:
// PVFS_CHAOS_SEED when set (replay), wall clock otherwise.
func suiteSeed(t *testing.T) int64 {
	t.Helper()
	if env := os.Getenv("PVFS_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("PVFS_CHAOS_SEED=%q: %v", env, err)
		}
		return v
	}
	return time.Now().UnixNano()
}

// settleGoroutines waits for the goroutine count to return to
// baseline after a scenario tears down; a stuck retry or an abandoned
// demux loop shows up here.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after chaos run: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func runScenario(t *testing.T, s chaos.Scenario) {
	t.Helper()
	seed := suiteSeed(t)
	before := runtime.NumGoroutine()
	rep, err := chaos.Run(seed, s)
	t.Logf("%s: %v (replay: PVFS_CHAOS_SEED=%d go test -race ./internal/chaos -run %s)",
		s.Name, rep, seed, t.Name())
	if err != nil {
		t.Fatalf("scenario %s failed under seed %d: %v", s.Name, seed, err)
	}
	settleGoroutines(t, before)
}

// The conformance matrix: a single daemon is killed and restarted
// mid-transfer on every access-method path, over a chaotic wire.

func TestChaosListIO(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "list", Method: client.AccessList,
		Ranks: 2, Blocks: 48, Kill: true,
		DataDir: t.TempDir(),
	})
}

func TestChaosListSerializedWindow(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "list-w1", Method: client.AccessList,
		Ranks: 2, Blocks: 24, Window: 1, Kill: true,
	})
}

func TestChaosDatatype(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "datatype", Method: client.AccessDatatype, Strided: true,
		Ranks: 2, Blocks: 48, Kill: true,
	})
}

func TestChaosMultiple(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "multiple", Method: client.AccessMultiple,
		Ranks: 2, Blocks: 12, Kill: true,
	})
}

func TestChaosSieve(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "sieve", Method: client.AccessSieve,
		Ranks: 1, Spread: 3, Blocks: 32, Kill: true,
	})
}

func TestChaosHybrid(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "hybrid", Method: client.AccessHybrid,
		Ranks: 1, Spread: 3, Blocks: 32, Kill: true,
	})
}

func TestChaosStartAsync(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "start-async", Method: client.AccessList,
		Ranks: 2, Async: 4, Blocks: 48, Kill: true,
	})
}

// TestChaosStreamedReads drives the zero-copy stream framing (§11):
// per-region reads large enough to stream (≥64 KiB) over a chaotic
// wire with kills, Dir-backed so the daemon answers them with
// file-range streams (store.FileStreamer).
// The faulty wire is not a *net.TCPConn, so the server exercises the
// stream's buffered fallback — the framing and failure paths the
// stream contract (exact promised length or broken connection) pins.
func TestChaosStreamedReads(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "streamed", Method: client.AccessMultiple,
		Ranks: 2, Blocks: 8, BlockLen: 96 << 10, Kill: true,
		DataDir: t.TempDir(),
	})
}

// TestChaosListDir runs the list scenario against Dir-backed daemons,
// so gapped list windows reach real files as §11 batches (one
// preadv/pwritev per span).
func TestChaosListDir(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "list-dir", Method: client.AccessList,
		Ranks: 2, Blocks: 48, Kill: true,
		DataDir: t.TempDir(),
	})
}

// TestChaosPinnedKill pins the killer to daemon 0 so the same stripe
// server dies repeatedly — the repeated-crash-of-one-node profile.
func TestChaosPinnedKill(t *testing.T) {
	runScenario(t, chaos.Scenario{
		Name: "pinned-kill", Method: client.AccessList,
		Ranks: 2, Blocks: 48, Kill: true, KillTarget: 1,
	})
}

// chaosShards returns the metadata shard count for meta scenarios:
// PVFS_CHAOS_SHARDS when set (the CI matrix leg runs 4), default 2.
func chaosShards(t *testing.T) int {
	t.Helper()
	env := os.Getenv("PVFS_CHAOS_SHARDS")
	if env == "" {
		return 2
	}
	v, err := strconv.Atoi(env)
	if err != nil || v <= 0 {
		t.Fatalf("PVFS_CHAOS_SHARDS=%q: want a positive integer", env)
	}
	return v
}

// TestChaosMetaLeaderFailover is the metadata-plane conformance case
// (DESIGN.md §13): a seeded create/write/stat storm runs while the
// master leader is repeatedly crash-restarted. Zero acked creates may
// be lost, and the surviving namespace must be byte-identical to a
// healthy shadow cluster's.
func TestChaosMetaLeaderFailover(t *testing.T) {
	seed := suiteSeed(t)
	before := runtime.NumGoroutine()
	s := chaos.MetaScenario{Name: "meta-failover", Shards: chaosShards(t), Files: 40, Kill: true}
	rep, err := chaos.RunMeta(seed, s)
	t.Logf("%s: %v (replay: PVFS_CHAOS_SEED=%d go test -race ./internal/chaos -run %s)",
		s.Name, rep, seed, t.Name())
	if err != nil {
		t.Fatalf("scenario %s failed under seed %d: %v", s.Name, seed, err)
	}
	if rep.Kills == 0 {
		t.Errorf("leader killer never fired; the storm finished before any crash")
	}
	if rep.Acked == 0 {
		t.Error("no creates acked")
	}
	settleGoroutines(t, before)
}

// TestChaosMetaKillAtBatchBoundary pins the leader killer to group-
// commit flush boundaries: each strike waits for the batch counter to
// advance and crashes the leader immediately after, hitting the
// window where a freshly-acked batch's replication wave may still be
// in flight. Zero acked creates may be lost.
func TestChaosMetaKillAtBatchBoundary(t *testing.T) {
	seed := suiteSeed(t)
	before := runtime.NumGoroutine()
	s := chaos.MetaScenario{
		Name: "meta-batch-kill", Shards: chaosShards(t),
		Ranks: 4, Files: 24, Kill: true, BatchBoundary: true,
	}
	rep, err := chaos.RunMeta(seed, s)
	t.Logf("%s: %v (replay: PVFS_CHAOS_SEED=%d go test -race ./internal/chaos -run %s)",
		s.Name, rep, seed, t.Name())
	if err != nil {
		t.Fatalf("scenario %s failed under seed %d: %v", s.Name, seed, err)
	}
	if rep.Kills == 0 {
		t.Errorf("leader killer never fired; the storm finished before any crash")
	}
	settleGoroutines(t, before)
}

// TestChaosMetaFailoverNoBatch reruns the leader-failover storm with
// group commit forced off via the PVFS_NO_META_BATCH knob (read by
// both the master nodes and the shard proposers): the solo fallback
// must give the same zero-loss guarantee. CI also runs the whole
// chaos suite under this knob as a matrix leg.
func TestChaosMetaFailoverNoBatch(t *testing.T) {
	t.Setenv("PVFS_NO_META_BATCH", "1")
	seed := suiteSeed(t)
	before := runtime.NumGoroutine()
	s := chaos.MetaScenario{Name: "meta-failover-solo", Shards: chaosShards(t), Files: 24, Kill: true}
	rep, err := chaos.RunMeta(seed, s)
	t.Logf("%s: %v (replay: PVFS_CHAOS_SEED=%d go test -race ./internal/chaos -run %s)",
		s.Name, rep, seed, t.Name())
	if err != nil {
		t.Fatalf("scenario %s failed under seed %d: %v", s.Name, seed, err)
	}
	if rep.Acked == 0 {
		t.Error("no creates acked")
	}
	settleGoroutines(t, before)
}

// TestRetryExhaustionIsTypedNotAHang is the negative half of the
// acceptance criteria: when a daemon dies and never comes back, a
// bounded retry policy must surface *client.RetryError promptly —
// the operation must not wedge.
func TestRetryExhaustionIsTypedNotAHang(t *testing.T) {
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
	f, err := fs.Create("doomed.dat", striping.Config{PCount: 2, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 256), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.KillIOD(1); err != nil {
		t.Fatal(err)
	}
	// Never restarted: 3 retries with 1ms backoff must exhaust fast.
	pol := client.RetryPolicy{Max: 3, Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 256)
		_, err := f.Run(context.Background(), client.Request{
			Arena: buf,
			File:  ioseg.List{{Offset: 0, Length: 256}},
			Retry: &pol,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read from a dead daemon succeeded")
		}
		var re *client.RetryError
		if !errors.As(err, &re) {
			t.Fatalf("error %v (%T) is not a *client.RetryError", err, err)
		}
		if re.Attempts != 1+pol.Max {
			t.Errorf("RetryError.Attempts = %d, want %d", re.Attempts, 1+pol.Max)
		}
		if got := fs.Counters().Retries.Load(); got != int64(pol.Max) {
			t.Errorf("retries = %d, want %d", got, pol.Max)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("retry exhaustion hung instead of returning a typed error")
	}
	// RestartIOD heals the same handle without reopening.
	if err := c.RestartIOD(1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	fs.SetRetryPolicy(chaos.Policy())
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
}
