package simcluster_test

import (
	"context"
	"fmt"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/patterns"
	"pvfs/internal/simcluster"
	"pvfs/internal/striping"
)

// Cross-check: handed the same client.Request, the simulator's workload
// builder must issue exactly the request counts the real TCP client
// issues for the same pattern and striping — the property that makes
// the performance model's request accounting trustworthy (DESIGN.md
// §14).

// withLayout lays rank r's share of pat out in req: a region-list
// layout, or for AccessDatatype the rank's cyclic blocks as one
// datatype.Vector.
func withLayout(req client.Request, pat patterns.Pattern, r int) client.Request {
	req.Arena = make([]byte, patterns.ArenaSize(pat, r))
	if req.Method == client.AccessDatatype {
		cyc := pat.(*patterns.Cyclic1D)
		bs := cyc.BlockSize()
		req.Type = datatype.Vector(int64(cyc.Accesses), bs, int64(cyc.NumRanks)*bs, datatype.Bytes(1))
		req.Base = int64(r) * bs
		return req
	}
	req.Mem, req.File = patterns.MemList(pat, r), patterns.FileList(pat, r)
	return req
}

func realRequests(t *testing.T, pat patterns.Pattern, cfg striping.Config, req client.Request) int64 {
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
	if !req.Write {
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
		if _, err := f.Run(context.Background(), withLayout(req, pat, r)); err != nil {
			t.Fatalf("%v rank %d: %v", req.Method, r, err)
		}
	}
	return fs.Counters().Snapshot().Requests - before
}

func simRequests(pat patterns.Pattern, cfg striping.Config, req client.Request) int64 {
	p := simcluster.ChibaCity()
	p.Servers = cfg.PCount
	p.Striping = cfg
	return simcluster.CountWorkload(simcluster.BuildWorkload(p, pat, req)).Requests
}

func TestSimulatorMatchesRealClientRequestCounts(t *testing.T) {
	cfg := striping.Config{PCount: 4, StripeSize: 512}
	cyc, err := patterns.NewCyclic1D(3, 40, 3*40*384) // 384 B blocks, 768 B gaps
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
	intersect := client.ListOptions{Granularity: client.GranularityIntersect}

	cases := []struct {
		name string
		pat  patterns.Pattern
		req  client.Request
	}{
		{"cyclic/list/read", cyc, client.Request{Method: client.AccessList}},
		{"cyclic/list/write", cyc, client.Request{Write: true, Method: client.AccessList}},
		{"cyclic/multiple/write", cyc, client.Request{Write: true, Method: client.AccessMultiple}},
		{"cyclic/hybrid/read", cyc, client.Request{Method: client.AccessHybrid, CoalesceGap: 1024}},
		{"cyclic/hybrid/write", cyc, client.Request{Write: true, Method: client.AccessHybrid, CoalesceGap: 1024}},
		{"cyclic/datatype/read", cyc, client.Request{Method: client.AccessDatatype, Datatype: client.DatatypeOptions{WindowBytes: 1024}}},
		{"random/list/write", rnd, client.Request{Write: true, Method: client.AccessList}},
		{"random/multiple/write", rnd, client.Request{Write: true, Method: client.AccessMultiple}},
		{"flash/list-intersect/write", flash, client.Request{Write: true, Method: client.AccessList, List: intersect}},
		{"flash/list-fileregions/write", flash, client.Request{Write: true, Method: client.AccessList}},
		{"flash/multiple/write", flash, client.Request{Write: true, Method: client.AccessMultiple}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			real := realRequests(t, tc.pat, cfg, tc.req)
			sim := simRequests(tc.pat, cfg, tc.req)
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
			req := client.Request{Write: true, Method: client.AccessList, List: client.ListOptions{MaxRegions: limit}}
			real := realRequests(t, pat, cfg, req)
			sim := simRequests(pat, cfg, req)
			if real != sim {
				t.Fatalf("limit %d: real %d requests, simulator %d", limit, real, sim)
			}
		})
	}
}
