// FLASH I/O checkpoint example (§4.3 of the paper): every rank writes
// 80 mesh blocks of 8^3 elements with 24 variables each; memory is
// element-major (8-byte pieces), the file variable-major (4 KiB
// regions). Runs the checkpoint for real at reduced scale with all
// three methods, then prints the paper-scale request arithmetic.
//
//	go run ./examples/flashio
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pvfs"
	"pvfs/internal/patterns"
)

func main() {
	const ranks = 4
	// Reduced-scale FLASH (8 blocks instead of 80, 4^3 elements
	// instead of 8^3) so the real run completes in seconds; the
	// pattern shape is identical.
	flash := &patterns.Flash{NumRanks: ranks, Blocks: 8, Elems: 4, Guard: 1, Vars: 24}
	fmt.Printf("FLASH checkpoint: %d ranks x %d blocks x %d^3 elements x %d vars = %.2f MB\n",
		ranks, flash.Blocks, flash.Elems, flash.Vars,
		float64(flash.FileBytes())/1e6)
	fmt.Printf("memory pieces/rank: %d x 8 B; file regions/rank: %d x %d B\n\n",
		flash.MemPieces(0), flash.FileRegions(0), flash.TotalBytes(0)/int64(flash.FileRegions(0)))

	c, err := pvfs.StartCluster(pvfs.ClusterOptions{NumIOD: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	fmt.Printf("%-22s %10s %12s %10s\n", "method", "seconds", "requests", "regions")
	for _, run := range []struct {
		label string
		m     pvfs.AccessMethod
		gran  pvfs.Granularity
	}{
		{"multiple", pvfs.AccessMultiple, pvfs.GranularityFileRegions},
		{"datasieve(serial)", pvfs.AccessSieve, pvfs.GranularityFileRegions},
		{"list(intersect)", pvfs.AccessList, pvfs.GranularityIntersect},
		{"list(file-regions)", pvfs.AccessList, pvfs.GranularityFileRegions},
	} {
		secs, req, regions, err := checkpoint(c, flash, run.m, run.gran)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10.3f %12d %10d\n", run.label, secs, req, regions)
	}

	paper := patterns.DefaultFlash(ranks)
	fmt.Printf("\nAt paper scale (80 blocks, 8^3 elements) each rank would issue:\n")
	fmt.Printf("  multiple I/O:        %d requests (one per 8-byte double)\n", paper.MemPieces(0))
	fmt.Printf("  list I/O (intersect): %d requests (64 pieces per request)\n", paper.MemPieces(0)/64)
	fmt.Printf("  list I/O (file):      %d requests (64 file regions per request)\n", paper.FileRegions(0)/64)
	fmt.Printf("  data sieving:         1 request per 32 MB window\n")
	fmt.Println("see cmd/paper-figures -fig 15 for the simulated Figure 15 timings")
}

// checkpoint writes the FLASH pattern with one goroutine per rank.
// Data sieving writes are serialized with a barrier, as the paper
// does with MPI_Barrier (§4.3.1).
func checkpoint(c *pvfs.Cluster, flash *patterns.Flash, m pvfs.AccessMethod, g pvfs.Granularity) (float64, int64, int64, error) {
	fs0, err := c.Connect()
	if err != nil {
		return 0, 0, 0, err
	}
	defer fs0.Close()
	name := fmt.Sprintf("flash-%v-%v-%d", m, g, time.Now().UnixNano())
	if _, err := fs0.Create(name, pvfs.StripeConfig{}); err != nil {
		return 0, 0, 0, err
	}

	before := c.TotalStats()
	barrier := pvfs.NewBarrier(flash.Ranks())
	start := time.Now()
	err = pvfs.RunRanks(flash.Ranks(), func(rank int) error {
		fs, err := c.Connect()
		if err != nil {
			return err
		}
		defer fs.Close()
		f, err := fs.Open(name)
		if err != nil {
			return err
		}
		mem := patterns.MemList(flash, rank)
		file := patterns.FileList(flash, rank)
		arena := make([]byte, patterns.ArenaSize(flash, rank))
		for i := range arena {
			arena[i] = byte(rank + 1)
		}
		req := pvfs.Request{
			Write: true, Arena: arena, Mem: mem, File: file,
			Method: m, List: pvfs.ListOptions{Granularity: g},
		}
		if m == pvfs.AccessSieve {
			for k := 0; k < flash.Ranks(); k++ {
				if k == rank {
					if _, err := f.Run(context.Background(), req); err != nil {
						return err
					}
				}
				barrier.Wait()
			}
			return nil
		}
		_, err = f.Run(context.Background(), req)
		return err
	})
	secs := time.Since(start).Seconds()
	if err != nil {
		return 0, 0, 0, err
	}
	after := c.TotalStats()
	return secs, after.Requests - before.Requests, after.Regions - before.Regions, nil
}
