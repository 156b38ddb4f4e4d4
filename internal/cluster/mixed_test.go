package cluster_test

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
)

// Mixed traffic on one client: its one pooled connection to each of
// four Dir-backed daemons carries a contiguous rewrite stream and list
// reads of another file at the same time, so every connection mixes
// large write bodies with small gapped reads. One goroutine truncates
// and rewrites a 16 MiB file, and reads each version back whole, until
// two list readers have done a fixed number of cyclic 4 KiB reads each.
// Every read must be byte-exact. The latencies are logged (-v): the
// test prices the shape the daemon's in-order dispatch rests on.
func TestMixedTrafficOneFS(t *testing.T) {
	const (
		readers     = 2
		readOps     = 200
		regions     = 256 // per list read
		region      = 4 << 10
		rewriteSize = 16 << 20
	)
	c, err := cluster.Start(cluster.Options{NumIOD: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cfg := striping.Config{PCount: 4, StripeSize: 64 << 10}
	ctx := context.Background()

	pat, err := patterns.NewCyclic1D(readers, regions, readers*regions*region)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, pat.Total)
	for i := range src {
		src[i] = byte(i*7 + i>>12)
	}
	rf, err := fs.Create("mixed-read.dat", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Run(ctx, client.Request{Write: true, Arena: src, File: ioseg.List{{Offset: 0, Length: pat.Total}}}); err != nil {
		t.Fatal(err)
	}
	wf, err := fs.Create("mixed-rewrite.dat", cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		rwg, wwg      sync.WaitGroup
		mu            sync.Mutex
		reads, writes []time.Duration
		done          = make(chan struct{})
	)
	for rank := range readers {
		file := patterns.FileList(pat, rank)
		want := make([]byte, 0, pat.TotalBytes(rank))
		for _, s := range file {
			want = append(want, src[s.Offset:s.Offset+s.Length]...)
		}
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			got := make([]byte, len(want))
			for range readOps {
				clear(got)
				start := time.Now()
				if _, err := rf.Run(ctx, client.Request{Arena: got, File: file, Method: client.AccessList}); err != nil {
					t.Error(err)
					return
				}
				took := time.Since(start)
				if !bytes.Equal(got, want) {
					t.Errorf("rank %d: list read not byte-exact", rank)
					return
				}
				mu.Lock()
				reads = append(reads, took)
				mu.Unlock()
			}
		}()
	}
	whole := ioseg.List{{Offset: 0, Length: rewriteSize}}
	wbuf, rbuf := make([]byte, rewriteSize), make([]byte, rewriteSize)
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for round := 0; ; round++ {
			select {
			case <-done:
				return
			default:
			}
			for i := range wbuf {
				wbuf[i] = byte(i>>16 + round)
			}
			start := time.Now()
			err := wf.Truncate(0)
			if err == nil {
				_, err = wf.Run(ctx, client.Request{Write: true, Arena: wbuf, File: whole})
			}
			if err == nil {
				err = wf.SyncContext(ctx)
			}
			took := time.Since(start)
			if err == nil {
				_, err = wf.Run(ctx, client.Request{Arena: rbuf, File: whole})
			}
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(rbuf, wbuf) {
				t.Errorf("rewrite %d did not read back whole", round)
				return
			}
			writes = append(writes, took)
		}
	}()
	rwg.Wait()
	close(done) // the rewriter stops once both readers have finished
	wwg.Wait()
	if t.Failed() {
		return
	}
	if len(reads) != readers*readOps || len(writes) == 0 {
		t.Fatalf("%d list reads and %d rewrites done", len(reads), len(writes))
	}
	t.Logf("list reads:  n=%d p50=%v p99=%v", len(reads), pctile(reads, 50), pctile(reads, 99))
	t.Logf("rewrites:    n=%d p50=%v p99=%v", len(writes), pctile(writes, 50), pctile(writes, 99))
}

// pctile returns the p-th percentile of ds (nearest rank).
func pctile(ds []time.Duration, p int) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*p+99)/100-1]
}
