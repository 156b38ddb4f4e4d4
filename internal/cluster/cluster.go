// Package cluster provides an in-process PVFS deployment: one manager
// daemon and N I/O daemons on loopback TCP, plus an MPI-style barrier
// for coordinating client "processes".
//
// Tests, examples, and the real-mode benchmarks use this harness the
// way the paper used Chiba City: start the daemons, connect clients,
// run the workload, read back the server request accounting.
package cluster

import (
	"fmt"
	"log"
	"net"
	"path/filepath"
	"sync"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/faultnet"
	"pvfs/internal/iod"
	"pvfs/internal/meta"
	"pvfs/internal/mgr"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

// Options configures a cluster.
type Options struct {
	// NumIOD is the number of I/O daemons (the paper uses 8).
	NumIOD int
	// DataDir, when non-empty, backs each daemon with a directory
	// store under DataDir/iodN; empty selects in-memory stores.
	DataDir string
	// Cache, when non-nil, wraps each daemon's store in a write-back
	// block cache (store.Cached) with these options.
	Cache *store.CacheOptions
	// FaultScript, when non-nil, wraps every I/O daemon listener so
	// accepted connections run over a scripted faulty wire
	// (faultnet.WrapListener); the manager stays healthy. Any test or
	// bench using the cluster then exercises the client's recovery
	// path without further plumbing.
	FaultScript *faultnet.Script
	// Meta, when non-nil, replaces the single manager with the
	// replicated, sharded metadata plane (see MetaOptions).
	Meta *MetaOptions
	// Logger receives daemon diagnostics; nil silences them.
	Logger *log.Logger
}

// Cluster is a running in-process deployment.
type Cluster struct {
	Mgr  *mgr.Server // classic mode only; nil under Options.Meta
	IODs []*iod.Server

	opts Options
	mems []*store.Mem // per-daemon memory stores, surviving KillIOD
	mu   sync.Mutex   // guards IODs/masters/shards slots across Kill/Restart

	// Replicated metadata plane (Options.Meta); see meta.go.
	masterAddrs []string
	shardAddrs  []string
	masters     []*masterProc // nil slots are killed replicas
	shards      []*shardProc
	metaTiming  meta.Timing
	metaNoBatch bool     // group commit forced off (PVFS_NO_META_BATCH)
	masterDirs  []string // per-replica durable state dirs
	metaTmpDir  string   // owned temp root for masterDirs; removed on Close
}

// iodStore builds (or rebuilds) daemon i's store: Dir-backed under
// DataDir, else the daemon's persistent Mem store, optionally wrapped
// in a write-back cache. Durable state lives below the cache, so a
// rebuilt store sees everything a killed daemon had flushed.
func (c *Cluster) iodStore(i int) (store.Store, error) {
	var st store.Store
	if c.opts.DataDir != "" {
		ds, err := store.NewDir(filepath.Join(c.opts.DataDir, fmt.Sprintf("iod%d", i)))
		if err != nil {
			return nil, err
		}
		st = ds
	} else {
		st = c.mems[i]
	}
	if c.opts.Cache != nil {
		st = store.Cached(st, *c.opts.Cache)
	}
	return st, nil
}

// listenIOD starts daemon i's server on addr over st, applying the
// cluster's fault script to the listener.
func (c *Cluster) listenIOD(addr string, st store.Store) (*iod.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return iod.New(faultnet.WrapListener(ln, c.opts.FaultScript), st, c.opts.Logger), nil
}

// Start launches the daemons on ephemeral loopback ports.
func Start(opts Options) (*Cluster, error) {
	if opts.NumIOD <= 0 {
		opts.NumIOD = 8
	}
	c := &Cluster{opts: opts}
	if opts.DataDir == "" {
		c.mems = make([]*store.Mem, opts.NumIOD)
		for i := range c.mems {
			c.mems[i] = store.NewMem()
		}
	}
	addrs := make([]string, 0, opts.NumIOD)
	for i := 0; i < opts.NumIOD; i++ {
		st, err := c.iodStore(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		srv, err := c.listenIOD("127.0.0.1:0", st)
		if err != nil {
			st.Close()
			c.Close()
			return nil, err
		}
		c.IODs = append(c.IODs, srv)
		addrs = append(addrs, srv.Addr())
	}
	if opts.Meta != nil {
		if err := c.startMeta(addrs); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}
	m, err := mgr.Listen("127.0.0.1:0", addrs, opts.Logger)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Mgr = m
	return c, nil
}

// KillIOD abruptly kills I/O daemon i, as a crashed process: in-flight
// calls see broken connections, a write-back cache loses its unflushed
// blocks (the documented loss window, DESIGN.md §7), durable state
// survives. The daemon's address stays reserved for RestartIOD.
func (c *Cluster) KillIOD(i int) error {
	c.mu.Lock()
	srv := c.IODs[i]
	c.mu.Unlock()
	return srv.Kill()
}

// RestartIOD brings daemon i back on its original address over its
// surviving state — the restart an init system performs. Mem-backed
// daemons keep their store instance (its Close is a no-op);
// Dir-backed daemons re-open their directory and recover everything
// that was flushed before the kill. The listen is retried briefly in
// case the kernel has not yet released the address.
func (c *Cluster) RestartIOD(i int) error {
	c.mu.Lock()
	addr := c.IODs[i].Addr()
	c.mu.Unlock()
	st, err := c.iodStore(i)
	if err != nil {
		return err
	}
	var srv *iod.Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv, err = c.listenIOD(addr, st)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			st.Close()
			return fmt.Errorf("cluster: restarting iod %d on %s: %w", i, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.mu.Lock()
	c.IODs[i] = srv
	c.mu.Unlock()
	return nil
}

// MgrAddr returns the metadata entry point clients connect to: the
// single manager's address, or the first master replica's under
// Options.Meta (the client learns the shard map from any replica).
func (c *Cluster) MgrAddr() string {
	if c.Mgr != nil {
		return c.Mgr.Addr()
	}
	return c.masterAddrs[0]
}

// IODAddrs returns the I/O daemon addresses in stripe order.
func (c *Cluster) IODAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.IODs))
	for i, s := range c.IODs {
		out[i] = s.Addr()
	}
	return out
}

// Connect opens a client session against the cluster. Each simulated
// compute process should use its own session, as each PVFS client
// process owns its connections.
func (c *Cluster) Connect() (*client.FS, error) {
	return client.Connect(c.MgrAddr())
}

// Stats snapshots each I/O daemon's request accounting. Accounting
// does not survive KillIOD (the restarted daemon counts from zero, as
// a real restart would).
func (c *Cluster) Stats() []wire.ServerStats {
	c.mu.Lock()
	iods := append([]*iod.Server(nil), c.IODs...)
	c.mu.Unlock()
	out := make([]wire.ServerStats, len(iods))
	for i, s := range iods {
		out[i] = s.Stats()
	}
	return out
}

// TotalStats sums the daemon accounting.
func (c *Cluster) TotalStats() wire.ServerStats {
	var total wire.ServerStats
	for _, s := range c.Stats() {
		total.Add(s)
	}
	return total
}

// Close stops every daemon.
func (c *Cluster) Close() error {
	var first error
	if c.Mgr != nil {
		first = c.Mgr.Close()
	}
	c.closeMeta()
	c.mu.Lock()
	iods := append([]*iod.Server(nil), c.IODs...)
	c.mu.Unlock()
	for _, s := range iods {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Barrier is a reusable N-party synchronization barrier, the
// equivalent of MPI_Barrier the paper uses to serialize data sieving
// writes (§4.2.1, §4.3.1).
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	round uint64
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("cluster: barrier size must be positive")
	}
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until n parties have called Wait, then releases them
// all. The barrier is reusable across rounds.
func (b *Barrier) Wait() {
	b.mu.Lock()
	round := b.round
	b.count++
	if b.count == b.n {
		b.count = 0
		b.round++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// RunRanks runs fn(rank) on nranks goroutines (one per simulated
// compute process) and returns the first error.
func RunRanks(nranks int, fn func(rank int) error) error {
	errs := make(chan error, nranks)
	for r := 0; r < nranks; r++ {
		go func(rank int) { errs <- fn(rank) }(r)
	}
	var first error
	for i := 0; i < nranks; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
