package cluster

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"pvfs/internal/meta"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

// MetaOptions selects the sharded, replicated metadata plane
// (DESIGN.md §13) instead of the classic single manager: Masters
// replicated master nodes (leader-elected; kill any one without
// losing acked metadata) fronting Shards hash-partitioned metadata
// shards. The zero Options.Meta keeps the single mgr.Server wrapper.
type MetaOptions struct {
	// Masters is the master replica count (3 tolerates one failure).
	Masters int
	// Shards is the metadata shard count; create/open/stat throughput
	// scales with it. 0 means 1.
	Shards int
	// Timing overrides protocol clocks (zero fields take defaults).
	Timing meta.Timing
}

// masterProc is one running master replica.
type masterProc struct {
	node *meta.Node
	srv  *pvfsnet.Server
}

// shardProc is one running metadata shard.
type shardProc struct {
	shard *meta.Shard
	srv   *pvfsnet.Server
}

// startMeta boots the replicated metadata plane for iodAddrs.
func (c *Cluster) startMeta(iodAddrs []string) error {
	mo := *c.opts.Meta
	if mo.Masters <= 0 {
		mo.Masters = 3
	}
	if mo.Shards <= 0 {
		mo.Shards = 1
	}
	mlns := make([]net.Listener, mo.Masters)
	for i := range mlns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		mlns[i] = ln
		c.masterAddrs = append(c.masterAddrs, ln.Addr().String())
	}
	slns := make([]net.Listener, mo.Shards)
	for i := range slns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		slns[i] = ln
		c.shardAddrs = append(c.shardAddrs, ln.Addr().String())
	}
	boot := &wire.ShardMap{
		Epoch:   1,
		Masters: append([]string(nil), c.masterAddrs...),
		Shards:  append([]string(nil), c.shardAddrs...),
		IODs:    append([]string(nil), iodAddrs...),
	}
	c.metaTiming = mo.Timing
	// Every replica gets a durable state dir so kill/restart cycles
	// recover the persisted term, vote, and log (Raft's safety argument
	// requires it — an amnesiac replica can vote away acked entries).
	root := c.opts.DataDir
	if root == "" {
		tmp, err := os.MkdirTemp("", "pvfs-meta-")
		if err != nil {
			return err
		}
		c.metaTmpDir = tmp
		root = tmp
	}
	c.masterDirs = make([]string, mo.Masters)
	for i := range c.masterDirs {
		c.masterDirs[i] = filepath.Join(root, fmt.Sprintf("master%d", i))
	}
	for i, ln := range mlns {
		node, err := meta.NewNode(meta.NodeOptions{
			ID: i, Peers: c.masterAddrs, Bootstrap: boot, Dir: c.masterDirs[i], Timing: mo.Timing,
		})
		if err != nil {
			ln.Close()
			return err
		}
		c.masters = append(c.masters, &masterProc{
			node: node,
			srv:  node.Serve(ln, nil),
		})
	}
	for i, ln := range slns {
		sh := meta.NewShard(meta.ShardOptions{
			Index: i, Proposer: meta.NewGroupProposer(c.masterAddrs, mo.Timing), Timing: mo.Timing,
		})
		c.shards = append(c.shards, &shardProc{
			shard: sh,
			srv:   sh.Serve(ln, nil),
		})
	}
	return nil
}

func (c *Cluster) closeMeta() {
	c.mu.Lock()
	shards := append([]*shardProc(nil), c.shards...)
	masters := append([]*masterProc(nil), c.masters...)
	c.mu.Unlock()
	for _, s := range shards {
		if s != nil {
			s.shard.Close()
			s.srv.Close()
		}
	}
	for _, m := range masters {
		if m != nil {
			m.node.Close()
			m.srv.Close()
		}
	}
	if c.metaTmpDir != "" {
		os.RemoveAll(c.metaTmpDir)
	}
}

// MasterAddrs returns the master replica addresses (meta mode only).
func (c *Cluster) MasterAddrs() []string {
	return append([]string(nil), c.masterAddrs...)
}

// ShardAddrs returns the metadata shard addresses (meta mode only).
func (c *Cluster) ShardAddrs() []string {
	return append([]string(nil), c.shardAddrs...)
}

// MetaLeader returns the index of the master currently leading, or -1
// when no live replica leads (mid-election).
func (c *Cluster) MetaLeader() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.masters {
		if m != nil && m.node.IsLeader() {
			return i
		}
	}
	return -1
}

// WaitMetaLeader blocks until some master leads, up to timeout.
func (c *Cluster) WaitMetaLeader(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		if i := c.MetaLeader(); i >= 0 {
			return i, nil
		}
		if time.Now().After(deadline) {
			return -1, fmt.Errorf("cluster: no metadata leader within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// KillMaster abruptly kills master replica i, as a crashed process:
// in-flight proposals see broken connections and the survivors elect a
// new leader. The address stays reserved for RestartMaster.
func (c *Cluster) KillMaster(i int) error {
	c.mu.Lock()
	m := c.masters[i]
	c.masters[i] = nil
	c.mu.Unlock()
	if m == nil {
		return nil
	}
	m.node.Close()
	return m.srv.Close()
}

// RestartMaster brings replica i back on its original address over
// its durable state dir, recovering the term, vote, log, and snapshot
// the killed incarnation had persisted — so the restarted replica
// keeps its pre-crash promises (no double vote, no granting votes
// against entries it helped commit). The leader replays or
// snapshot-installs whatever committed while it was down.
func (c *Cluster) RestartMaster(i int) error {
	c.mu.Lock()
	if c.masters[i] != nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: master %d is running", i)
	}
	addr := c.masterAddrs[i]
	c.mu.Unlock()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: restarting master %d on %s: %w", i, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	node, err := meta.NewNode(meta.NodeOptions{
		ID: i, Peers: c.masterAddrs, Dir: c.masterDirs[i], Timing: c.metaTiming,
	})
	if err != nil {
		ln.Close()
		return fmt.Errorf("cluster: restarting master %d: %w", i, err)
	}
	mp := &masterProc{node: node, srv: node.Serve(ln, nil)}
	c.mu.Lock()
	c.masters[i] = mp
	c.mu.Unlock()
	return nil
}

// BumpEpoch commits a config change through the leader (mutate may be
// nil for a pure epoch bump) and hands the new map to every live shard
// in process, so tests observe a deterministic transition; shards also
// learn new maps through their background poll.
func (c *Cluster) BumpEpoch(ctx context.Context, mutate func(*wire.ShardMap)) (*wire.ShardMap, error) {
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for {
		i := c.MetaLeader()
		if i < 0 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("cluster: no leader for config change: %v", lastErr)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c.mu.Lock()
		m := c.masters[i]
		c.mu.Unlock()
		if m == nil {
			continue
		}
		nm, err := m.node.ProposeConfig(ctx, mutate)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil || time.Now().After(deadline) {
				return nil, err
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c.mu.Lock()
		shards := append([]*shardProc(nil), c.shards...)
		c.mu.Unlock()
		for _, s := range shards {
			if s != nil {
				s.shard.InstallMap(nm)
			}
		}
		return nm, nil
	}
}

// MetaStats sums the metadata plane's request accounting across live
// shards and masters (meta mode), or the single manager's (classic).
func (c *Cluster) MetaStats() wire.ServerStats {
	var total wire.ServerStats
	c.mu.Lock()
	if c.Mgr != nil {
		c.mu.Unlock()
		return c.Mgr.Stats()
	}
	shards := append([]*shardProc(nil), c.shards...)
	masters := append([]*masterProc(nil), c.masters...)
	c.mu.Unlock()
	for _, s := range shards {
		if s != nil {
			total.Add(s.shard.Stats())
		}
	}
	for _, m := range masters {
		if m != nil {
			total.Add(m.node.Stats())
		}
	}
	return total
}
