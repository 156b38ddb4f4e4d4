// Hybrid list+sieve example: the paper's conclusion (§5) suggests
// sieving only clusters of nearby regions while using list I/O across
// large gaps. This example sweeps the coalescing gap threshold on a
// clustered access pattern and reports the request/byte trade-off.
//
//	go run ./examples/hybrid
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

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

	f, err := fs.Create("clustered.dat", pvfs.StripeConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// A clustered pattern: 128 clusters of 16 small regions. Regions
	// within a cluster sit 192 bytes apart (dense); clusters sit
	// 64 KiB apart (sparse) — the regime where neither pure list I/O
	// nor pure sieving is ideal.
	var mem, file pvfs.List
	var memPos int64
	for cl := int64(0); cl < 128; cl++ {
		for k := int64(0); k < 16; k++ {
			file = append(file, pvfs.Segment{Offset: cl*65536 + k*192, Length: 64})
			mem = append(mem, pvfs.Segment{Offset: memPos, Length: 64})
			memPos += 64
		}
	}
	arena := make([]byte, memPos)
	rand.New(rand.NewSource(1)).Read(arena)
	ctx := context.Background()
	if _, err := f.Run(ctx, pvfs.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: pvfs.AccessList}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pattern: %d regions of 64 B in 128 clusters (gap 128 B inside, 62 KiB between)\n\n", len(file))
	fmt.Printf("%-18s %10s %10s %14s %10s\n", "method", "seconds", "requests", "bytes moved", "useless%")

	report := func(label string, secs float64, reqs int64, moved int64, useful int64) {
		uselessPct := 0.0
		if moved > 0 {
			uselessPct = 100 * float64(moved-useful) / float64(moved)
		}
		fmt.Printf("%-18s %10.4f %10d %14d %9.1f%%\n", label, secs, reqs, moved, uselessPct)
	}

	// Pure list I/O.
	got := make([]byte, memPos)
	before := fs.Counters().Snapshot()
	t0 := time.Now()
	if _, err := f.Run(ctx, pvfs.Request{Arena: got, Mem: mem, File: file, Method: pvfs.AccessList}); err != nil {
		log.Fatal(err)
	}
	after := fs.Counters().Snapshot()
	check(got, arena)
	report("list", time.Since(t0).Seconds(), after.Requests-before.Requests,
		after.BytesIn-before.BytesIn, memPos)

	// Pure data sieving: fetches the 8 MB span for 128 KiB of data.
	got = make([]byte, memPos)
	before = fs.Counters().Snapshot()
	t0 = time.Now()
	res, err := f.Run(ctx, pvfs.Request{Arena: got, Mem: mem, File: file, Method: pvfs.AccessSieve})
	if err != nil {
		log.Fatal(err)
	}
	st := res.Sieve
	after = fs.Counters().Snapshot()
	check(got, arena)
	report("datasieve", time.Since(t0).Seconds(), after.Requests-before.Requests,
		st.BytesAccessed, st.BytesUseful)

	// Hybrid at increasing gap thresholds.
	for _, gap := range []int64{0, 256, 4096, 1 << 20} {
		got = make([]byte, memPos)
		before = fs.Counters().Snapshot()
		t0 = time.Now()
		res, err := f.Run(ctx, pvfs.Request{
			Arena: got, Mem: mem, File: file, Method: pvfs.AccessHybrid, CoalesceGap: gap,
		})
		if err != nil {
			log.Fatal(err)
		}
		st := res.Sieve
		after = fs.Counters().Snapshot()
		check(got, arena)
		report(fmt.Sprintf("hybrid(gap=%d)", gap),
			time.Since(t0).Seconds(), after.Requests-before.Requests,
			st.BytesAccessed, st.BytesUseful)
	}

	fmt.Println("\na gap threshold around the intra-cluster spacing collapses each")
	fmt.Println("cluster to one region (2048 regions → 128) while moving only the")
	fmt.Println("small intra-cluster gaps — the trade-off §5 anticipates.")
}

func check(got, want []byte) {
	if !bytes.Equal(got, want) {
		log.Fatal("data mismatch")
	}
}
