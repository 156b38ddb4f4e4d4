// MPI-IO example: the interface layer the paper positions list I/O
// beneath (§1: "MPI-IO allows users to describe noncontiguous data
// access patterns but is limited ... if support for noncontiguous
// access is not present at the file system level"). Four "ranks"
// write a 1-D cyclic interleave through file views, then the same
// access is read back under each ROMIO-style hint setting — the
// default (the view type as a datatype), list I/O, data sieving,
// multiple I/O, hybrid — and written with two-phase collective I/O,
// with request counts side by side.
//
//	go run ./examples/mpiio
package main

import (
	"bytes"
	"fmt"
	"log"

	"pvfs"
	"pvfs/internal/patterns"
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
	if _, err := fs.Create("cyclic.dat", pvfs.StripeConfig{}); err != nil {
		log.Fatal(err)
	}

	const (
		ranks    = 4
		blockLen = 256
		blocks   = 256
	)
	fmt.Printf("4 ranks write a cyclic interleave through MPI-IO views\n")
	fmt.Printf("(vector filetype: %d blocks of %d bytes every %d)\n\n", blocks, blockLen, ranks*blockLen)

	// Phase 1: each rank writes through its view under the default
	// hints: the view type ships as a datatype (DESIGN.md §6).
	err = pvfs.RunRanks(ranks, func(rank int) error {
		fsr, err := c.Connect()
		if err != nil {
			return err
		}
		defer fsr.Close()
		f, err := fsr.Open("cyclic.dat")
		if err != nil {
			return err
		}
		v := pvfs.OpenView(f, pvfs.ViewHints{})
		ftype := pvfs.Vector(blocks, blockLen, ranks*blockLen, pvfs.Bytes(1))
		if err := v.SetView(int64(rank*blockLen), pvfs.Bytes(1), ftype); err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{byte('A' + rank)}, blocks*blockLen)
		return v.WriteAtEtype(buf, 0)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: rank 0 reads its view back under each hint setting.
	fmt.Printf("%-22s %10s %10s\n", "hints", "requests", "correct")
	want := bytes.Repeat([]byte{'A'}, blocks*blockLen)
	cases := []struct {
		name  string
		hints pvfs.ViewHints
	}{
		{"auto (default)", pvfs.ViewHints{}},
		{"list", pvfs.ViewHints{Method: pvfs.AccessList}},
		{"romio_ds (sieving)", pvfs.ViewHints{Method: pvfs.AccessSieve}},
		{"no optimization", pvfs.ViewHints{Method: pvfs.AccessMultiple}},
		{"hybrid gap=1KiB", pvfs.ViewHints{Method: pvfs.AccessHybrid, CoalesceGapBytes: 1024}},
	}
	ftype := pvfs.Vector(blocks, blockLen, ranks*blockLen, pvfs.Bytes(1))
	for _, tc := range cases {
		f, err := fs.Open("cyclic.dat")
		if err != nil {
			log.Fatal(err)
		}
		v := pvfs.OpenView(f, tc.hints)
		if err := v.SetView(0, pvfs.Bytes(1), ftype); err != nil {
			log.Fatal(err)
		}
		got := make([]byte, blocks*blockLen)
		before := fs.Counters().Snapshot()
		if err := v.ReadAtEtype(got, 0); err != nil {
			log.Fatal(err)
		}
		after := fs.Counters().Snapshot()
		fmt.Printf("%-22s %10d %10v\n", tc.name, after.Requests-before.Requests, bytes.Equal(got, want))
	}

	// Phase 3: the same interleave written through two-phase
	// collective I/O — one contiguous access per aggregator.
	if _, err := fs.Create("collective.dat", pvfs.StripeConfig{}); err != nil {
		log.Fatal(err)
	}
	g := pvfs.NewCollectiveGroup(ranks)
	before := c.TotalStats()
	err = pvfs.RunRanks(ranks, func(rank int) error {
		fsr, err := c.Connect()
		if err != nil {
			return err
		}
		defer fsr.Close()
		f, err := fsr.Open("collective.dat")
		if err != nil {
			return err
		}
		cyc, err := patterns.NewCyclic1D(ranks, blocks, int64(ranks*blocks*blockLen))
		if err != nil {
			return err
		}
		file := patterns.FileList(cyc, rank)
		mem := pvfs.List{{Offset: 0, Length: file.TotalLength()}}
		arena := bytes.Repeat([]byte{byte('A' + rank)}, int(file.TotalLength()))
		return g.WriteAll(rank, f, arena, mem, file)
	})
	if err != nil {
		log.Fatal(err)
	}
	after := c.TotalStats()
	fmt.Printf("\ncollective write (two-phase): %d requests for the whole interleave\n",
		after.Requests-before.Requests)
	fmt.Println("ranks exchanged pieces so each aggregator wrote one contiguous domain")
}
