package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/meta"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// TestMetaClusterEndToEnd runs the full sharded metadata plane at 1,
// 2 and 4 shards: a client creates, writes, lists, and reads through
// replicated masters without knowing the topology, and routes every
// request to the owning shard itself, so no shard forwards one.
func TestMetaClusterEndToEnd(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			testMetaEndToEnd(t, shards)
		})
	}
}

func testMetaEndToEnd(t *testing.T, shards int) {
	c, err := cluster.Start(cluster.Options{
		NumIOD: 2,
		Meta:   &cluster.MetaOptions{Masters: 3, Shards: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WaitMetaLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.SetRetries(3)

	want := []byte("noncontiguous I/O through PVFS")
	var names []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("meta-e2e-%d", i)
		names = append(names, name)
		f, err := fs.Create(name, striping.Config{PCount: 2, StripeSize: 8})
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if _, err := f.WriteAt(want, 0); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close %s: %v", name, err)
		}
	}

	listed, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(names) {
		t.Fatalf("list = %v, want %d names", listed, len(names))
	}
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		got := make([]byte, len(want))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %s: %q", name, got)
		}
		if f.RecordedSize() != int64(len(want)) {
			t.Fatalf("%s recorded size = %d", name, f.RecordedSize())
		}
		if _, err := fs.StatHandle(context.Background(), f.Handle()); err != nil {
			t.Fatalf("stat %s by handle: %v", name, err)
		}
	}

	// Metadata accounting flows through the plane.
	st := c.MetaStats()
	if st.MetaCreates != int64(len(names)) {
		t.Fatalf("MetaCreates = %d, want %d", st.MetaCreates, len(names))
	}
	if st.MetaOpens == 0 {
		t.Fatal("MetaOpens = 0")
	}
	if st.MetaForwards != 0 {
		t.Fatalf("MetaForwards = %d; the client sent a request to a shard that does not own it", st.MetaForwards)
	}
	if st.ElectionCount == 0 {
		t.Fatal("ElectionCount = 0; no leader was ever elected?")
	}
}

// TestMetaClusterFirstCreateAtBoot times a fresh plane of 3 masters
// and 2 shards from Start to its first served create. Every election
// timer is parked for seconds, so the create can be served in time
// only if replica 0 campaigned at boot.
func TestMetaClusterFirstCreateAtBoot(t *testing.T) {
	tm := meta.Timing{ElectionLo: 2 * time.Second, ElectionHi: 4 * time.Second}
	t0 := time.Now()
	c, err := cluster.Start(cluster.Options{
		NumIOD: 2,
		Meta:   &cluster.MetaOptions{Masters: 3, Shards: 2, Timing: tm},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.Create("first", striping.Config{}); err != nil {
		t.Fatal(err)
	}
	took := time.Since(t0)
	t.Logf("first create served %v after Start", took)
	if took > 200*time.Millisecond {
		t.Fatalf("first create served %v after Start, want within 200ms (election timeout %v)", took, tm.ElectionLo)
	}
	if lead := c.MetaLeader(); lead != 0 {
		t.Fatalf("leader %d, want replica 0", lead)
	}
}

// TestMetaClusterLeaderFailover kills the leading master in the middle
// of a create storm over 4 shards and restarts it 50 ms later. Every
// acked create must survive, and no create may stall longer than two
// election timeouts: one for the failed election a lagging replica
// may stand in, one for the election that wins.
func TestMetaClusterLeaderFailover(t *testing.T) {
	const ranks, perRank = 4, 100
	tm := meta.Timing{ElectionLo: 75 * time.Millisecond, ElectionHi: 150 * time.Millisecond}
	c, err := cluster.Start(cluster.Options{
		NumIOD: 2,
		Meta:   &cluster.MetaOptions{Masters: 3, Shards: 4, Timing: tm},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WaitMetaLeader(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The rank whose create is the storm's midpoint ack kills the
	// leader.
	var acked atomic.Int64
	killed := make(chan error, 1)
	killLeader := func() {
		lead, err := c.WaitMetaLeader(5 * time.Second)
		if err == nil {
			err = c.KillMaster(lead)
		}
		if err == nil {
			time.Sleep(50 * time.Millisecond)
			err = c.RestartMaster(lead)
		}
		killed <- err
	}
	slowest := make([]time.Duration, ranks)
	name := func(rank, i int) string { return fmt.Sprintf("storm-r%d-%d", rank, i) }
	err = cluster.RunRanks(ranks, func(rank int) error {
		fs, err := c.Connect()
		if err != nil {
			return err
		}
		defer fs.Close()
		fs.SetRetryPolicy(client.RetryPolicy{Max: 12, Backoff: 2 * time.Millisecond, MaxBackoff: 250 * time.Millisecond})
		// Each shard syncs the committed state on first contact; take
		// that out of the timed creates.
		for h := uint64(1); h <= 4; h++ {
			fs.StatHandle(context.Background(), h)
		}
		for i := 0; i < perRank; i++ {
			t0 := time.Now()
			f, err := fs.Create(name(rank, i), striping.Config{})
			if err != nil {
				return fmt.Errorf("create %s: %w", name(rank, i), err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("close %s: %w", name(rank, i), err)
			}
			slowest[rank] = max(slowest[rank], time.Since(t0))
			if acked.Add(1) == ranks*perRank/2 {
				go killLeader()
			}
		}
		return nil
	})
	if acked.Load() >= ranks*perRank/2 {
		if err := <-killed; err != nil {
			t.Fatalf("leader kill/restart: %v", err)
		}
	}
	if err != nil {
		t.Fatal(err)
	}

	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.SetRetries(3)
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < perRank; i++ {
			if _, err := fs.Open(name(rank, i)); err != nil {
				t.Fatalf("acked create %s lost: %v", name(rank, i), err)
			}
		}
	}
	// The restarted replica rejoined; the plane keeps serving.
	if _, err := fs.Create("post-restart", striping.Config{}); err != nil {
		t.Fatal(err)
	}
	stall, bound := slices.Max(slowest), 2*tm.ElectionHi
	t.Logf("slowest create across the failover: %v", stall)
	if stall > bound {
		t.Fatalf("slowest create took %v across the failover, bound %v", stall, bound)
	}
}

// TestMetaClusterEpochRefresh commits a config change (epoch bump) and
// asserts a connected client rides the WrongEpoch refresh contract
// transparently: no user-visible error, all ops keep working.
func TestMetaClusterEpochRefresh(t *testing.T) {
	c, err := cluster.Start(cluster.Options{
		NumIOD: 2,
		Meta:   &cluster.MetaOptions{Masters: 1, Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// Prime the client's shard map at epoch 1.
	if _, err := fs.Create("before-bump", striping.Config{}); err != nil {
		t.Fatal(err)
	}
	nm, err := c.BumpEpoch(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", nm.Epoch)
	}
	// The client still holds epoch 1; its next calls hit WrongEpoch,
	// refresh, and retry — StatusWrongEpoch must never surface.
	if _, err := fs.Create("after-bump", striping.Config{}); err != nil {
		t.Fatalf("create across epoch bump: %v", err)
	}
	if _, err := fs.Open("before-bump"); err != nil {
		t.Fatalf("open across epoch bump: %v", err)
	}
	names, err := fs.List()
	if err != nil || len(names) != 2 {
		t.Fatalf("list across epoch bump: %v %v", names, err)
	}
}

// TestShardRefusesPushedMap sends a TShardMap carrying a forged map —
// epoch 2^40, foreign IODs — to a meta-mode shard and to a classic mgr
// listener. Each answers StatusInvalid and keeps its map epoch, and a
// create made after one map poll is placed on the cluster's own IODs:
// a shard learns maps only from the masters.
func TestShardRefusesPushedMap(t *testing.T) {
	for _, tc := range []struct {
		name string
		meta *cluster.MetaOptions
		poll time.Duration // the shard's map poll interval
		// target is the listener the forged map is pushed to; epoch
		// reads the map epoch its shard routes creates by.
		target func(*cluster.Cluster) string
		epoch  func(*testing.T, *cluster.Cluster) uint64
	}{
		{
			name:   "meta-shard",
			meta:   &cluster.MetaOptions{Masters: 3, Shards: 1, Timing: meta.Timing{MapPoll: 200 * time.Millisecond}},
			poll:   200 * time.Millisecond,
			target: func(c *cluster.Cluster) string { return c.ShardAddrs()[0] },
			epoch: func(t *testing.T, c *cluster.Cluster) uint64 {
				conn, err := pvfsnet.Dial(c.ShardAddrs()[0])
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				resp, err := conn.Call(wire.Message{Header: wire.Header{Type: wire.TShardMap}})
				if err != nil {
					t.Fatalf("map query: %v", err)
				}
				defer resp.Release()
				var m wire.ShardMap
				if err := m.Unmarshal(resp.Body); err != nil {
					t.Fatal(err)
				}
				return m.Epoch
			},
		},
		{
			name:   "classic-mgr",
			poll:   time.Second, // mgr.New runs the default Timing
			target: func(c *cluster.Cluster) string { return c.MgrAddr() },
			epoch: func(t *testing.T, c *cluster.Cluster) uint64 {
				return c.Mgr.Shard().CurrentMap().Epoch
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c, err := cluster.Start(cluster.Options{NumIOD: 2, Meta: tc.meta})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fs, err := c.Connect()
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			fs.SetRetries(3)
			cfg := striping.Config{PCount: 2, StripeSize: 4096}
			// The first create syncs the shard, so it holds a map.
			if _, err := fs.Create("before", cfg); err != nil {
				t.Fatal(err)
			}
			before := tc.epoch(t, c)

			forged := wire.ShardMap{
				Epoch:   1 << 40,
				Masters: c.MasterAddrs(),
				Shards:  c.ShardAddrs(),
				IODs:    []string{"192.0.2.1:7001", "192.0.2.2:7001"},
			}
			if tc.meta == nil {
				forged.Masters, forged.Shards = []string{c.MgrAddr()}, []string{c.MgrAddr()}
			}
			conn, err := pvfsnet.Dial(tc.target(c))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			resp, err := conn.Call(wire.Message{Header: wire.Header{Type: wire.TShardMap}, Body: forged.Marshal()})
			if err == nil || resp.Status != wire.StatusInvalid {
				t.Fatalf("pushed map: status %v err %v, want invalid", resp.Status, err)
			}
			resp.Release()
			if got := tc.epoch(t, c); got != before {
				t.Fatalf("map epoch %d after the push, want %d", got, before)
			}

			time.Sleep(tc.poll + tc.poll/2)
			f, err := fs.Create("after", cfg)
			if err != nil {
				t.Fatal(err)
			}
			own := c.IODAddrs()
			for _, addr := range f.Servers() {
				if !slices.Contains(own, addr) {
					t.Fatalf("create placed on %v, want the cluster's IODs %v", f.Servers(), own)
				}
			}
			if got := tc.epoch(t, c); got != before {
				t.Fatalf("map epoch %d after a map poll, want %d", got, before)
			}
		})
	}
}
