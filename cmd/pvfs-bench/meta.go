package main

// The -meta mode benchmarks the sharded, replicated metadata plane
// (DESIGN.md §13) instead of the data path: create/open/stat ops/s
// against a leader-elected master group and a configurable shard
// count. BENCH_5.json is a sweep of this mode over -shards 1/2/4 plus
// a -failover row, which crash-restarts the master leader mid-create
// so the row's throughput includes the election pause.

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

type metaBenchOpts struct {
	Shards    int
	Masters   int
	Clients   int
	Files     int // creates per client
	IODs      int
	Failover  bool
	Namespace int // >0: create-only namespace fill of this many files
	JSONOut   string
}

// metaRow is one -meta run, mirrored into -json output (BENCH_5.json
// rows are built from these).
type metaRow struct {
	Mode         string  `json:"mode"`
	Shards       int     `json:"shards"`
	Masters      int     `json:"masters"`
	Clients      int     `json:"clients"`
	Files        int     `json:"files"`
	Failover     bool    `json:"failover"`
	Kills        int     `json:"kills"`
	Seconds      float64 `json:"seconds"`
	CreateOpsS   float64 `json:"create_ops_s"`
	OpenOpsS     float64 `json:"open_ops_s"`
	StatOpsS     float64 `json:"stat_ops_s"`
	MaxStallMs   float64 `json:"max_stall_ms"`
	MetaCreates  int64   `json:"meta_creates"`
	MetaOpens    int64   `json:"meta_opens"`
	MetaForwards int64   `json:"meta_forwards"`
	Elections    int64   `json:"elections"`

	// Group-commit accounting (ISSUE 10). ProposalsPerAppend > 1 and
	// WALSyncsPerEntry < 1 (normalized per replica; a lone proposer's
	// batches of one sit at ~1.0) are the coalescing acceptance gates.
	Proposals          int64   `json:"meta_proposals"`
	Batches            int64   `json:"meta_batches"`
	AppendRounds       int64   `json:"meta_append_rounds"`
	WALSyncs           int64   `json:"meta_wal_syncs"`
	ProposalsPerAppend float64 `json:"proposals_per_append"`
	WALSyncsPerEntry   float64 `json:"wal_syncs_per_entry"`

	// Namespace-fill rows (-namespace): total files created and the
	// process heap after the fill — the in-memory cost of holding the
	// namespace (masters' logs+snapshots, shards' maps) at that scale.
	NamespaceFiles int     `json:"namespace_files,omitempty"`
	HeapAllocMB    float64 `json:"heap_alloc_mb,omitempty"`
}

// metaPhase runs one timed phase: every rank performs Files ops
// through its own connection. It returns (wall seconds, slowest
// single op in µs) — under -failover the latter is the election pause
// an unlucky create rides out.
func metaPhase(c *cluster.Cluster, o metaBenchOpts, done *atomic.Int64,
	op func(fs *client.FS, rank, i int) error) (float64, int64, error) {
	var stallV int64
	stall := &stallV
	// Ranks connect, dial every shard and fetch the map before the
	// barrier; the clock starts when the last rank arrives, so the
	// phase measures the request path, not connection setup.
	bar := cluster.NewBarrier(o.Clients)
	var startNS atomic.Int64
	err := cluster.RunRanks(o.Clients, func(rank int) error {
		fs, err := c.Connect()
		if err != nil {
			return err
		}
		defer fs.Close()
		fs.SetRetryPolicy(client.RetryPolicy{
			Max: 12, Backoff: 2 * time.Millisecond, MaxBackoff: 250 * time.Millisecond,
		})
		for h := uint64(1); h <= uint64(o.Shards); h++ {
			fs.StatHandle(context.Background(), h)
		}
		bar.Wait()
		startNS.CompareAndSwap(0, time.Now().UnixNano())
		for i := 0; i < o.Files; i++ {
			t0 := time.Now()
			if err := op(fs, rank, i); err != nil {
				return fmt.Errorf("rank %d op %d: %w", rank, i, err)
			}
			us := time.Since(t0).Microseconds()
			for {
				cur := atomic.LoadInt64(stall)
				if us <= cur || atomic.CompareAndSwapInt64(stall, cur, us) {
					break
				}
			}
			if done != nil {
				done.Add(1)
			}
		}
		return nil
	})
	secs := float64(time.Now().UnixNano()-startNS.Load()) / 1e9
	return secs, atomic.LoadInt64(stall), err
}

func runMetaBench(o metaBenchOpts) error {
	if o.Masters <= 0 {
		o.Masters = 3
	}
	if o.Namespace > 0 {
		// Namespace fill: create-only, total files split across clients.
		o.Files = (o.Namespace + o.Clients - 1) / o.Clients
		o.Failover = false
	}
	// PVFS_BENCH_LOG surfaces daemon diagnostics (election churn, shard
	// resync failures) that are otherwise silenced; rows stay clean on
	// stdout because the logger writes to stderr.
	var logger *log.Logger
	if os.Getenv("PVFS_BENCH_LOG") != "" {
		logger = log.New(os.Stderr, "", log.Lmicroseconds)
	}
	c, err := cluster.Start(cluster.Options{
		NumIOD: o.IODs,
		Meta:   &cluster.MetaOptions{Masters: o.Masters, Shards: o.Shards},
		Logger: logger,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	// Settle the initial election so rows measure steady state, not
	// the bootstrap; -failover reintroduces an election deliberately.
	if _, err := c.WaitMetaLeader(5 * time.Second); err != nil {
		return err
	}

	fmt.Printf("# meta shards=%d masters=%d clients=%d files=%d failover=%v\n",
		o.Shards, o.Masters, o.Clients, o.Files, o.Failover)
	fmt.Printf("%-8s %10s %10s %10s %12s\n", "phase", "seconds", "ops", "ops/s", "maxop(ms)")

	// Warm every shard's first-contact sync (each shard blocks its
	// first request on fetching the committed map and state) so the
	// timed phases measure the steady-state request path. Handle h
	// routes to shard (h-1) mod n; the stats themselves miss.
	warm, err := c.Connect()
	if err != nil {
		return err
	}
	for h := uint64(1); h <= uint64(o.Shards); h++ {
		warm.StatHandle(context.Background(), h)
	}
	warm.Close()

	before := c.MetaStats()
	// Rank-affine naming: each rank's files hash to shard rank mod n,
	// the partitioned-workload regime sharding targets (each client
	// working its own subtree). Salted until FNV-1a lands there.
	affineMap := wire.ShardMap{Shards: make([]string, o.Shards)}
	name := func(rank, i int) string {
		for salt := 0; ; salt++ {
			n := fmt.Sprintf("mb-r%d-f%d-%d.dat", rank, i, salt)
			if affineMap.ShardForName(n) == rank%o.Shards {
				return n
			}
		}
	}
	cfg := striping.Config{PCount: 1, StripeSize: striping.DefaultStripeSize}
	handles := make([][]uint64, o.Clients)
	for r := range handles {
		handles[r] = make([]uint64, o.Files)
	}

	// The failover killer: once half the creates are acked, crash the
	// leader, let the group re-elect, and bring the replica back. The
	// create phase's throughput then includes the leaderless window.
	var created atomic.Int64
	kills := 0
	killerDone := make(chan error, 1)
	if o.Failover {
		go func() {
			half := int64(o.Clients*o.Files) / 2
			for created.Load() < half {
				time.Sleep(2 * time.Millisecond)
			}
			lead, err := c.WaitMetaLeader(5 * time.Second)
			if err != nil {
				killerDone <- err
				return
			}
			if err := c.KillMaster(lead); err != nil {
				killerDone <- err
				return
			}
			time.Sleep(50 * time.Millisecond)
			killerDone <- c.RestartMaster(lead)
		}()
	}

	var maxStall int64
	phase := func(label string, ops func(fs *client.FS, rank, i int) error, done *atomic.Int64) (float64, error) {
		secs, stall, err := metaPhase(c, o, done, ops)
		if err != nil {
			return 0, fmt.Errorf("%s phase: %w", label, err)
		}
		if stall > maxStall {
			maxStall = stall
		}
		total := float64(o.Clients * o.Files)
		fmt.Printf("%-8s %10.4f %10d %10.1f %12.2f\n",
			label, secs, o.Clients*o.Files, total/secs, float64(stall)/1e3)
		return total / secs, nil
	}

	row := metaRow{
		Mode: "meta", Shards: o.Shards, Masters: o.Masters,
		Clients: o.Clients, Files: o.Files, Failover: o.Failover,
	}
	t0 := time.Now()
	if row.CreateOpsS, err = phase("create", func(fs *client.FS, rank, i int) error {
		f, err := fs.Create(name(rank, i), cfg)
		if err != nil {
			return err
		}
		return f.Close()
	}, &created); err != nil {
		return err
	}
	if o.Failover {
		if err := <-killerDone; err != nil {
			return fmt.Errorf("failover: %w", err)
		}
		kills = 1
	}
	if o.Namespace > 0 {
		// Heap after the fill, with garbage discounted: what holding the
		// namespace at this scale actually costs the plane in memory.
		row.Mode = "meta-namespace"
		row.NamespaceFiles = o.Clients * o.Files
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		row.HeapAllocMB = float64(ms.HeapAlloc) / (1 << 20)
		fmt.Printf("# namespace: %d files, heap %.1f MiB (%.0f B/file)\n",
			row.NamespaceFiles, row.HeapAllocMB, float64(ms.HeapAlloc)/float64(row.NamespaceFiles))
	} else {
		if row.OpenOpsS, err = phase("open", func(fs *client.FS, rank, i int) error {
			f, err := fs.Open(name(rank, i))
			if err != nil {
				return err
			}
			handles[rank][i] = f.Handle()
			return f.Close()
		}, nil); err != nil {
			return err
		}
		if row.StatOpsS, err = phase("stat", func(fs *client.FS, rank, i int) error {
			_, err := fs.StatHandle(context.Background(), handles[rank][i])
			return err
		}, nil); err != nil {
			return err
		}
	}
	row.Seconds = time.Since(t0).Seconds()
	row.Kills = kills
	row.MaxStallMs = float64(maxStall) / 1e3

	after := c.MetaStats()
	row.MetaCreates = after.MetaCreates - before.MetaCreates
	row.MetaOpens = after.MetaOpens - before.MetaOpens
	row.MetaForwards = after.MetaForwards - before.MetaForwards
	// Absolute, not a delta: a crash-restarted replica's in-memory
	// counter restarts at zero, which would cancel the new election
	// out of a before/after difference.
	row.Elections = after.ElectionCount
	row.Proposals = after.MetaProposals - before.MetaProposals
	row.Batches = after.MetaBatches - before.MetaBatches
	row.AppendRounds = after.MetaAppendRounds - before.MetaAppendRounds
	row.WALSyncs = after.MetaWALSyncs - before.MetaWALSyncs
	if row.AppendRounds > 0 {
		row.ProposalsPerAppend = float64(row.Proposals) / float64(row.AppendRounds)
	}
	if row.Proposals > 0 {
		// WALSyncs sums every replica's fsyncs, and each committed entry
		// must reach every replica's WAL, so normalize per replica: a
		// batch of one sits at ~1.0 — one fsync per entry at the leader
		// plus one single-entry append round at each follower.
		row.WALSyncsPerEntry = float64(row.WALSyncs) / float64(row.Proposals*int64(o.Masters))
	}
	fmt.Printf("# meta counters: %d creates, %d opens/stats, %d forwards, %d elections, kills=%d\n",
		row.MetaCreates, row.MetaOpens, row.MetaForwards, row.Elections, kills)
	fmt.Printf("# group commit: %d proposals / %d batches / %d append rounds / %d WAL syncs (%.2f proposals/append, %.2f syncs/entry)\n",
		row.Proposals, row.Batches, row.AppendRounds, row.WALSyncs,
		row.ProposalsPerAppend, row.WALSyncsPerEntry)

	if o.JSONOut != "" {
		return appendJSON(o.JSONOut, []metaRow{row})
	}
	return nil
}
