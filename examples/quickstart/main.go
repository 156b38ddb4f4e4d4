// Quickstart: start an in-process PVFS deployment, write a file with
// contiguous I/O, then perform the same noncontiguous access with all
// three methods from the paper and compare the request counts.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"pvfs"
)

func main() {
	// An 8-I/O-daemon deployment on loopback TCP, as in the paper's
	// Chiba City configuration (§4.1).
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

	// A file striped 16 KiB across all 8 daemons (the defaults).
	f, err := fs.Create("demo.dat", pvfs.StripeConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Seed 1 MiB of patterned data with one contiguous write.
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		log.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d bytes across %d I/O daemons (stripe %d)\n",
		size, f.Striping().PCount, f.Striping().StripeSize)

	// A noncontiguous access: 512 regions of 64 bytes every 2 KiB —
	// the classic "one column of a 2-D matrix" shape (§3, Figure 3).
	var file pvfs.List
	for i := int64(0); i < 512; i++ {
		file = append(file, pvfs.Segment{Offset: i * 2048, Length: 64})
	}
	mem := pvfs.List{{Offset: 0, Length: file.TotalLength()}}
	want := make([]byte, file.TotalLength())
	pos := 0
	for _, s := range file {
		pos += copy(want[pos:], data[s.Offset:s.End()])
	}

	fmt.Printf("\nnoncontiguous read of %d regions x %d bytes:\n", len(file), file[0].Length)
	fmt.Printf("%-14s %10s %10s\n", "method", "requests", "correct")
	for _, m := range []pvfs.AccessMethod{pvfs.AccessMultiple, pvfs.AccessSieve, pvfs.AccessList} {
		got := make([]byte, file.TotalLength())
		before := fs.Counters().Snapshot()
		req := pvfs.Request{Arena: got, Mem: mem, File: file, Method: m}
		if _, err := f.Run(context.Background(), req); err != nil {
			log.Fatal(err)
		}
		after := fs.Counters().Snapshot()
		fmt.Printf("%-14v %10d %10v\n", m, after.Requests-before.Requests, bytes.Equal(got, want))
	}
	fmt.Println("\nlist I/O describes 64 file regions per request (one Ethernet")
	fmt.Println("frame of trailing data, §3.3): 512 regions → 8 list requests.")
}
