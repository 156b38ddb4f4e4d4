// Datatype example: the paper's future work (§5) proposes describing
// access patterns with MPI-datatype-like languages instead of flat
// region lists, eliminating the linear region-to-request scaling.
// This example builds the paper's patterns as derived datatypes, shows
// the request counts each description needs, and performs the I/O.
//
//	go run ./examples/datatypes
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"pvfs"
)

func main() {
	c, err := pvfs.StartCluster(pvfs.ClusterOptions{NumIOD: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	f, err := fs.Create("matrix.dat", pvfs.StripeConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// A 256x256 matrix of float64 stored row-major: reading one
	// column is the paper's canonical noncontiguous access (Figure 3).
	const n = 256
	matrix := make([]byte, n*n*8)
	for i := range matrix {
		matrix[i] = byte(i)
	}
	if _, err := f.WriteAt(matrix, 0); err != nil {
		log.Fatal(err)
	}

	// Column 17 as a vector datatype: 256 blocks of one double,
	// stride one row.
	column := pvfs.Vector(n, 1, n, pvfs.Double())
	base := int64(17 * 8)
	blocks := len(pvfs.FlattenType(column, 0))
	fmt.Printf("column datatype: %v\n", column)
	fmt.Printf("  size=%d bytes in %d blocks over a %d-byte extent\n",
		column.Size(), blocks, column.Extent())

	buf := make([]byte, column.Size())
	before := fs.Counters().Snapshot()
	ctx := context.Background()
	if _, err := f.Run(ctx, pvfs.Request{Arena: buf, Type: column, Base: base}); err != nil {
		log.Fatal(err)
	}
	after := fs.Counters().Snapshot()
	fmt.Printf("  read with %d requests (the vector ships as one datatype descriptor per server)\n",
		after.Requests-before.Requests)
	fmt.Printf("  list I/O would need %d requests; multiple I/O %d\n\n",
		(blocks+63)/64, blocks)

	// Verify against a brute-force gather.
	want := make([]byte, 0, n*8)
	for r := 0; r < n; r++ {
		off := r*n*8 + 17*8
		want = append(want, matrix[off:off+8]...)
	}
	if !bytes.Equal(buf, want) {
		log.Fatal("column read mismatch")
	}

	// A 2-D subarray: a 64x64 tile at (32, 128) of the matrix, the
	// tiled-visualization shape as a datatype.
	tile, err := pvfs.Subarray(
		[]int64{n, n * 8}, []int64{64, 64 * 8}, []int64{32, 128 * 8}, pvfs.Bytes(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tile datatype: %v\n", tile)
	tbuf := make([]byte, tile.Size())
	before = fs.Counters().Snapshot()
	if _, err := f.Run(ctx, pvfs.Request{Arena: tbuf, Type: tile}); err != nil {
		log.Fatal(err)
	}
	after = fs.Counters().Snapshot()
	fmt.Printf("  64 rows read with %d requests\n", after.Requests-before.Requests)

	for r := 0; r < 64; r++ {
		off := (32+r)*n*8 + 128*8
		if !bytes.Equal(tbuf[r*64*8:(r+1)*64*8], matrix[off:off+64*8]) {
			log.Fatalf("tile row %d mismatch", r)
		}
	}
	fmt.Println("  verified against brute-force gather")

	// Write path: scale the column by rewriting it through the same
	// datatype, then check one element via contiguous read.
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if _, err := f.Run(ctx, pvfs.Request{Write: true, Arena: buf, Type: column, Base: base}); err != nil {
		log.Fatal(err)
	}
	one := make([]byte, 8)
	if _, err := f.ReadAt(one, int64(5*n*8)+base); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(one, buf[5*8:6*8]) {
		log.Fatal("column write-back mismatch")
	}
	fmt.Println("column write-back through the datatype verified")
}
