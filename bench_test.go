// Benchmarks regenerating every table and figure of "Noncontiguous
// I/O through PVFS" (Cluster 2002), plus ablations of the design
// choices DESIGN.md calls out.
//
// Figure benches drive the calibrated cluster performance model at a
// reduced default scale so `go test -bench=.` completes quickly; each
// reports the *simulated* Chiba City seconds as the custom metric
// "sim_sec" (the quantity the paper's figures plot). Full paper-scale
// series come from `go run ./cmd/paper-figures`.
//
// Real-mode benches (BenchmarkReal*) move actual bytes through the
// TCP loopback deployment.
package pvfs_test

import (
	"context"
	"fmt"
	"testing"

	"pvfs"
	"pvfs/internal/patterns"
	"pvfs/internal/simcluster"
)

// benchAccesses is the per-client access count used by the reduced
// figure benches (the paper sweeps up to 1,000,000).
const benchAccesses = 50000

// simulate runs every rank of pat issuing req and reports simulated
// seconds.
func simulate(b *testing.B, pat patterns.Pattern, req pvfs.Request) {
	b.Helper()
	simulateOn(b, simcluster.ChibaCity(), pat, req)
}

// simulateOn is simulate with an explicit cluster calibration.
func simulateOn(b *testing.B, p simcluster.Params, pat patterns.Pattern, req pvfs.Request) {
	b.Helper()
	var res simcluster.Result
	for i := 0; i < b.N; i++ {
		res = simcluster.Run(simcluster.BuildWorkload(p, pat, req))
	}
	b.ReportMetric(res.Duration.Seconds(), "sim_sec")
	b.ReportMetric(float64(res.Requests), "requests")
}

func cyclicPattern(b *testing.B, clients, accesses int) *patterns.Cyclic1D {
	b.Helper()
	p, err := patterns.NewCyclic1D(clients, accesses, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func blockPattern(b *testing.B, clients, accesses int) *patterns.BlockBlock {
	b.Helper()
	p, err := patterns.NewBlockBlock(clients, accesses, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

var readMethods = []pvfs.AccessMethod{pvfs.AccessMultiple, pvfs.AccessSieve, pvfs.AccessList}

var writeMethods = []pvfs.AccessMethod{pvfs.AccessMultiple, pvfs.AccessList}

// BenchmarkFig09CyclicRead regenerates Figure 9: one-dimensional
// cyclic reads for 8/16/32 clients.
func BenchmarkFig09CyclicRead(b *testing.B) {
	for _, clients := range []int{8, 16, 32} {
		for _, m := range readMethods {
			b.Run(fmt.Sprintf("%dclients/%v", clients, m), func(b *testing.B) {
				simulate(b, cyclicPattern(b, clients, benchAccesses), pvfs.Request{Method: m})
			})
		}
	}
}

// BenchmarkFig10CyclicWrite regenerates Figure 10: one-dimensional
// cyclic writes (the paper omits sieving for parallel writes).
func BenchmarkFig10CyclicWrite(b *testing.B) {
	for _, clients := range []int{8, 16, 32} {
		for _, m := range writeMethods {
			b.Run(fmt.Sprintf("%dclients/%v", clients, m), func(b *testing.B) {
				simulate(b, cyclicPattern(b, clients, benchAccesses), pvfs.Request{Write: true, Method: m})
			})
		}
	}
}

// BenchmarkFig11BlockBlockRead regenerates Figure 11: block-block
// reads for 4/9/16 clients.
func BenchmarkFig11BlockBlockRead(b *testing.B) {
	for _, clients := range []int{4, 9, 16} {
		for _, m := range readMethods {
			b.Run(fmt.Sprintf("%dclients/%v", clients, m), func(b *testing.B) {
				simulate(b, blockPattern(b, clients, benchAccesses), pvfs.Request{Method: m})
			})
		}
	}
}

// BenchmarkFig12BlockBlockWrite regenerates Figure 12: block-block
// writes for 4/9/16 clients.
func BenchmarkFig12BlockBlockWrite(b *testing.B) {
	for _, clients := range []int{4, 9, 16} {
		for _, m := range writeMethods {
			b.Run(fmt.Sprintf("%dclients/%v", clients, m), func(b *testing.B) {
				simulate(b, blockPattern(b, clients, benchAccesses), pvfs.Request{Write: true, Method: m})
			})
		}
	}
}

// BenchmarkFig15Flash regenerates Figure 15: the FLASH checkpoint
// write per method and client count (list I/O at the intersect
// granularity that matches the paper's measurements; sieving
// serialized by barrier).
func BenchmarkFig15Flash(b *testing.B) {
	for _, clients := range []int{2, 4, 8} {
		for _, m := range readMethods { // all three methods, write direction
			b.Run(fmt.Sprintf("%dclients/%v", clients, m), func(b *testing.B) {
				simulate(b, patterns.DefaultFlash(clients), pvfs.Request{
					Write: true, Method: m, List: pvfs.ListOptions{Granularity: pvfs.GranularityIntersect},
				})
			})
		}
	}
}

// BenchmarkFig17Tiled regenerates Figure 17: the tiled visualization
// read with 6 clients.
func BenchmarkFig17Tiled(b *testing.B) {
	for _, m := range readMethods {
		b.Run(m.String(), func(b *testing.B) {
			simulate(b, patterns.DefaultTiled(), pvfs.Request{Method: m})
		})
	}
}

// BenchmarkAblationMaxRegions sweeps the trailing-data limit around
// the paper's conservative single-Ethernet-frame choice of 64 (§3.3).
func BenchmarkAblationMaxRegions(b *testing.B) {
	pat := cyclicPattern(b, 8, benchAccesses)
	for _, maxR := range []int{16, 32, 64, 128, 256, 1024} {
		b.Run(fmt.Sprintf("limit%d", maxR), func(b *testing.B) {
			simulate(b, pat, pvfs.Request{Method: pvfs.AccessList, List: pvfs.ListOptions{MaxRegions: maxR}})
		})
	}
}

// BenchmarkAblationFlashGranularity compares the two list-entry
// construction modes on FLASH (DESIGN.md §3): intersect matches the
// paper's measured results; file-region granularity is the paper's
// own §4.3.1 arithmetic and the future-work fix.
func BenchmarkAblationFlashGranularity(b *testing.B) {
	flash := patterns.DefaultFlash(4)
	for _, g := range []struct {
		name string
		g    pvfs.Granularity
	}{{"intersect", pvfs.GranularityIntersect}, {"file-regions", pvfs.GranularityFileRegions}} {
		b.Run(g.name, func(b *testing.B) {
			simulate(b, flash, pvfs.Request{Write: true, Method: pvfs.AccessList, List: pvfs.ListOptions{Granularity: g.g}})
		})
	}
}

// BenchmarkAblationHybridGap sweeps the hybrid list+sieve coalescing
// threshold (§5 future work) on a fragmented cyclic read.
func BenchmarkAblationHybridGap(b *testing.B) {
	pat := cyclicPattern(b, 8, 200000) // 671-byte blocks, ~4.7 KiB gaps
	for _, gap := range []int64{0, 1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("gap%d", gap), func(b *testing.B) {
			simulate(b, pat, pvfs.Request{Method: pvfs.AccessHybrid, CoalesceGap: gap})
		})
	}
}

// BenchmarkAblationStridedDescriptor compares list I/O against datatype
// I/O on a highly fragmented vector (§5).
func BenchmarkAblationStridedDescriptor(b *testing.B) {
	pat := cyclicPattern(b, 8, 500000)
	for _, m := range []pvfs.AccessMethod{pvfs.AccessList, pvfs.AccessDatatype} {
		b.Run(m.String(), func(b *testing.B) {
			simulate(b, pat, pvfs.Request{Method: m})
		})
	}
}

// BenchmarkAblationNetwork replays the cyclic write on the cluster's
// unused Myrinet fabric (§4.1): without the TCP small-write stall the
// multiple-I/O write pathology collapses toward the pure
// request-count ratio.
func BenchmarkAblationNetwork(b *testing.B) {
	pat := cyclicPattern(b, 8, benchAccesses)
	nets := []struct {
		name string
		p    simcluster.Params
	}{{"fast-ethernet", simcluster.ChibaCity()}, {"myrinet", simcluster.Myrinet()}}
	for _, net := range nets {
		for _, m := range writeMethods {
			b.Run(net.name+"/"+m.String(), func(b *testing.B) {
				simulateOn(b, net.p, pat, pvfs.Request{Write: true, Method: m})
			})
		}
	}
}

// BenchmarkAblationStripeSize sweeps the stripe unit around the 16 KiB
// default (§4.1) for list I/O on the cyclic read.
func BenchmarkAblationStripeSize(b *testing.B) {
	pat := cyclicPattern(b, 8, benchAccesses)
	for _, ss := range []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("stripe%d", ss), func(b *testing.B) {
			p := simcluster.ChibaCity()
			p.Striping.StripeSize = ss
			simulateOn(b, p, pat, pvfs.Request{Method: pvfs.AccessList})
		})
	}
}

// BenchmarkRealCluster moves actual bytes through the loopback TCP
// deployment: a small cyclic pattern with each method.
func BenchmarkRealCluster(b *testing.B) {
	c, err := pvfs.StartCluster(pvfs.ClusterOptions{NumIOD: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create("bench.dat", pvfs.StripeConfig{PCount: 4, StripeSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	const regions = 512
	var mem, file pvfs.List
	for i := int64(0); i < regions; i++ {
		mem = append(mem, pvfs.Segment{Offset: i * 64, Length: 64})
		file = append(file, pvfs.Segment{Offset: i * 1024, Length: 64})
	}
	arena := make([]byte, mem.TotalLength())
	ctx := context.Background()
	if _, err := f.Run(ctx, pvfs.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: pvfs.AccessList}); err != nil {
		b.Fatal(err)
	}
	for _, m := range []pvfs.AccessMethod{pvfs.AccessMultiple, pvfs.AccessSieve, pvfs.AccessList} {
		b.Run("read/"+m.String(), func(b *testing.B) {
			b.SetBytes(mem.TotalLength())
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(ctx, pvfs.Request{Arena: arena, Mem: mem, File: file, Method: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range []pvfs.AccessMethod{pvfs.AccessMultiple, pvfs.AccessList} {
		b.Run("write/"+m.String(), func(b *testing.B) {
			b.SetBytes(mem.TotalLength())
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(ctx, pvfs.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
