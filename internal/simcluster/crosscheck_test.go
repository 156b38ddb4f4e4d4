package simcluster_test

import (
	"context"
	"fmt"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/patterns"
	"pvfs/internal/simcluster"
	"pvfs/internal/striping"
)

// Cross-check: the simulator's workload builder must issue exactly the
// request counts the real TCP client issues for the same pattern,
// method, and striping — the property that makes the performance
// model's request accounting trustworthy (DESIGN.md §5).

func realRequests(t *testing.T, pat patterns.Pattern, write bool, m client.AccessMethod, cfg striping.Config, list client.ListOptions) int64 {
	t.Helper()
	c, err := cluster.Start(cluster.Options{NumIOD: cfg.PCount})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("crosscheck.bin", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !write {
		// Populate so reads see a full file.
		span := int64(0)
		for r := 0; r < pat.Ranks(); r++ {
			n := pat.FileRegions(r)
			if n == 0 {
				continue
			}
			if e := pat.FileRegion(r, n-1).End(); e > span {
				span = e
			}
		}
		if _, err := f.WriteAt(make([]byte, span), 0); err != nil {
			t.Fatal(err)
		}
	}
	before := fs.Counters().Snapshot().Requests
	for r := 0; r < pat.Ranks(); r++ {
		mem := patterns.MemList(pat, r)
		file := patterns.FileList(pat, r)
		arena := make([]byte, patterns.ArenaSize(pat, r))
		if _, err := f.Run(context.Background(), client.Request{
			Write: write, Arena: arena, Mem: mem, File: file, Method: m, List: list,
		}); err != nil {
			t.Fatalf("%v rank %d: %v", m, r, err)
		}
	}
	return fs.Counters().Snapshot().Requests - before
}

func simRequests(t *testing.T, pat patterns.Pattern, write bool, m simcluster.Method, cfg striping.Config, opts simcluster.MethodOptions) int64 {
	t.Helper()
	p := simcluster.ChibaCity()
	p.Servers = cfg.PCount
	p.Striping = cfg
	return simcluster.CountWorkload(simcluster.BuildWorkload(p, pat, write, m, opts)).Requests
}

func TestSimulatorMatchesRealClientRequestCounts(t *testing.T) {
	cfg := striping.Config{PCount: 4, StripeSize: 512}
	cyc, err := patterns.NewCyclic1D(3, 40, 3*40*384)
	if err != nil {
		t.Fatal(err)
	}
	flash := patterns.DefaultFlash(2)
	flash.Blocks = 2 // shrink to test scale: 48 file regions,
	flash.Elems = 4  // 3,072 8-byte memory pieces per rank
	rnd, err := patterns.NewRandom(3, 77, patterns.RandomOptions{
		RegionsPerRank: 100, MinSize: 1, MaxSize: 900, MaxGap: 700,
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		pat     patterns.Pattern
		write   bool
		realM   client.AccessMethod
		simM    simcluster.Method
		realOpt client.ListOptions
		simOpt  simcluster.MethodOptions
	}{
		{"cyclic/list/read", cyc, false, client.AccessList, simcluster.MethodList, client.ListOptions{}, simcluster.MethodOptions{}},
		{"cyclic/list/write", cyc, true, client.AccessList, simcluster.MethodList, client.ListOptions{}, simcluster.MethodOptions{}},
		{"cyclic/multiple/write", cyc, true, client.AccessMultiple, simcluster.MethodMultiple, client.ListOptions{}, simcluster.MethodOptions{}},
		{"random/list/write", rnd, true, client.AccessList, simcluster.MethodList, client.ListOptions{}, simcluster.MethodOptions{}},
		{"random/multiple/write", rnd, true, client.AccessMultiple, simcluster.MethodMultiple, client.ListOptions{}, simcluster.MethodOptions{}},
		{"flash/list-intersect/write", flash, true,
			client.AccessList, simcluster.MethodList,
			client.ListOptions{Granularity: client.GranularityIntersect},
			simcluster.MethodOptions{Granularity: simcluster.GranIntersect}},
		{"flash/list-fileregions/write", flash, true,
			client.AccessList, simcluster.MethodList,
			client.ListOptions{Granularity: client.GranularityFileRegions},
			simcluster.MethodOptions{Granularity: simcluster.GranFileRegions}},
		{"flash/multiple/write", flash, true, client.AccessMultiple, simcluster.MethodMultiple, client.ListOptions{}, simcluster.MethodOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			real := realRequests(t, tc.pat, tc.write, tc.realM, cfg, tc.realOpt)
			sim := simRequests(t, tc.pat, tc.write, tc.simM, cfg, tc.simOpt)
			if real != sim {
				t.Fatalf("real client issued %d requests, simulator models %d", real, sim)
			}
			if real == 0 {
				t.Fatal("no requests issued")
			}
		})
	}
}

// TestSimulatorMatchesRealClientAcrossLimits repeats the cross-check
// while sweeping the trailing-data limit (the ablation axis).
func TestSimulatorMatchesRealClientAcrossLimits(t *testing.T) {
	cfg := striping.Config{PCount: 4, StripeSize: 256}
	pat, err := patterns.NewCyclic1D(2, 90, 2*90*100)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{16, 64} {
		t.Run(fmt.Sprintf("limit%d", limit), func(t *testing.T) {
			real := realRequests(t, pat, true, client.AccessList, cfg,
				client.ListOptions{MaxRegions: limit})
			sim := simRequests(t, pat, true, simcluster.MethodList, cfg,
				simcluster.MethodOptions{MaxRegions: limit})
			if real != sim {
				t.Fatalf("limit %d: real %d requests, simulator %d", limit, real, sim)
			}
		})
	}
}
