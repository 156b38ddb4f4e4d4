package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/iod"
	"pvfs/internal/mgr"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

// Load shape shared by every workload (README.md "Load shape").
const (
	ranks      = 2
	numIOD     = 4
	stripeSize = 16 << 10
	opTimeout  = 60 * time.Second
)

// deployOpts selects the daemons a workload runs against.
type deployOpts struct {
	cacheBytes int64 // per-daemon write-back cache; 0 = uncached store.Dir
	meta       bool  // replicated metadata plane (3 durable masters, 2 shards)
}

// deployment is one in-process PVFS: daemons on loopback TCP over
// store.Dir under a temp dir, and one client session per rank. With a
// recorder, the bench wrappers sit at the conn and store seams.
type deployment struct {
	dir    string
	iods   []*iod.Server
	mgr    *mgr.Server
	meta   *cluster.Cluster
	fs     [ranks]*client.FS
	tracer [ranks]*rankTracer // nil when untraced
}

func deploy(tmpRoot string, o deployOpts, rec *recorder) (d *deployment, err error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "dep-")
	if err != nil {
		return nil, err
	}
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	var mgrAddr string
	if o.meta {
		// The metadata workload never touches the data path, so the
		// stock cluster harness (no store seam) serves it; DataDir keeps
		// the masters' WALs under our temp dir.
		d.meta, err = cluster.Start(cluster.Options{
			NumIOD: numIOD, DataDir: dir,
			Meta: &cluster.MetaOptions{Masters: 3, Shards: 2},
		})
		if err != nil {
			return d, err
		}
		if _, err = d.meta.WaitMetaLeader(10 * time.Second); err != nil {
			return d, err
		}
		mgrAddr = d.meta.MgrAddr()
	} else {
		addrs := make([]string, numIOD)
		for i := range addrs {
			var st store.Store
			ds, err := store.NewDir(filepath.Join(dir, fmt.Sprintf("iod%d", i)))
			if err != nil {
				return d, err
			}
			st = ds
			if o.cacheBytes > 0 {
				st = store.Cached(st, store.CacheOptions{MaxBytes: o.cacheBytes})
			}
			if rec != nil {
				st = rec.wrapStore(st)
			}
			srv, err := iod.Listen("127.0.0.1:0", st, nil)
			if err != nil {
				st.Close()
				return d, err
			}
			d.iods = append(d.iods, srv)
			addrs[i] = srv.Addr()
		}
		d.mgr, err = mgr.Listen("127.0.0.1:0", addrs, nil)
		if err != nil {
			return d, err
		}
		mgrAddr = d.mgr.Addr()
	}

	for r := range d.fs {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		d.fs[r], err = client.ConnectContext(ctx, mgrAddr)
		cancel()
		if err != nil {
			return d, err
		}
		if rec != nil {
			d.tracer[r] = rec.newRank()
			d.fs[r].SetConnWrap(d.tracer[r].wrapConn)
		}
	}
	return d, nil
}

// iodStats sums the I/O daemons' request accounting.
func (d *deployment) iodStats() wire.ServerStats {
	var total wire.ServerStats
	for _, s := range d.iods {
		total.Add(s.Stats())
	}
	return total
}

// metaStats sums the metadata plane's accounting.
func (d *deployment) metaStats() wire.ServerStats {
	if d.meta != nil {
		return d.meta.MetaStats()
	}
	return d.mgr.Stats()
}

// clientCounters sums the ranks' request accounting (the fields the
// per-layer metrics use).
func (d *deployment) clientCounters() client.CounterValues {
	var total client.CounterValues
	for _, fs := range d.fs {
		v := fs.Counters().Snapshot()
		total.Requests += v.Requests
		total.MgrRequests += v.MgrRequests
		total.Retries += v.Retries
	}
	return total
}

// close stops clients and daemons and removes the data directory.
func (d *deployment) close() {
	for _, fs := range d.fs {
		if fs != nil {
			fs.Close()
		}
	}
	if d.mgr != nil {
		d.mgr.Close()
	}
	if d.meta != nil {
		d.meta.Close()
	}
	for _, s := range d.iods {
		s.Close()
	}
	os.RemoveAll(d.dir)
}
