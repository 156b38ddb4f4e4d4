package client_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
)

func TestHybridReadMatchesList(t *testing.T) {
	_, fs := startCluster(t, 4)
	f, err := fs.Create("hyb.dat", striping.Config{PCount: 4, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Clusters of nearby regions separated by large gaps.
	var mem, file ioseg.List
	var memPos int64
	for c := int64(0); c < 6; c++ {
		for k := int64(0); k < 4; k++ {
			file = append(file, ioseg.Segment{Offset: c*10000 + k*30, Length: 20})
			mem = append(mem, ioseg.Segment{Offset: memPos, Length: 20})
			memPos += 20
		}
	}
	arena := make([]byte, memPos)
	rand.New(rand.NewSource(8)).Read(arena)
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, memPos)
	before := fs.Counters().Snapshot()
	res, err := f.Run(context.Background(), client.Request{
		Arena: got, Mem: mem, File: file, Method: client.AccessHybrid, CoalesceGap: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sieve
	after := fs.Counters().Snapshot()
	if !bytes.Equal(got, arena) {
		t.Fatal("hybrid read data mismatch")
	}
	// 24 regions coalesce to 6 extents (gaps of 10 bytes swallowed).
	if st.Windows != 6 {
		t.Fatalf("windows = %d, want 6", st.Windows)
	}
	if st.BytesUseful != 480 {
		t.Fatalf("useful = %d, want 480", st.BytesUseful)
	}
	if st.BytesAccessed != 6*110 { // 4 regions of 20 + 3 gaps of 10
		t.Fatalf("accessed = %d, want 660", st.BytesAccessed)
	}
	if got := after.List.Requests - before.List.Requests; got < 1 || got > 6 {
		t.Fatalf("hybrid issued %d list requests", got)
	}
}

func TestHybridWritePreservesGaps(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("hybw.dat", striping.Config{PCount: 2, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-fill so gap bytes have known values the RMW must preserve.
	base := bytes.Repeat([]byte{0x55}, 2000)
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	var mem, file ioseg.List
	var memPos int64
	for k := int64(0); k < 8; k++ {
		file = append(file, ioseg.Segment{Offset: 100 + k*50, Length: 10})
		mem = append(mem, ioseg.Segment{Offset: memPos, Length: 10})
		memPos += 10
	}
	arena := bytes.Repeat([]byte{0xAA}, int(memPos))
	res, err := f.Run(context.Background(), client.Request{
		Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessHybrid, CoalesceGap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sieve
	if st.Windows != 1 { // all gaps are 40 <= 64: one extent
		t.Fatalf("windows = %d, want 1", st.Windows)
	}
	got := make([]byte, 2000)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		want := byte(0x55)
		for k := int64(0); k < 8; k++ {
			if int64(i) >= 100+k*50 && int64(i) < 110+k*50 {
				want = 0xAA
			}
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

// Overlapping regions can add up to the coalesced extent's length while
// leaving a gap inside it: [0,10) and [5,15) overlap by the 5 bytes that
// coalescing [0,15) with [20,25) swallows. The gap must be read back,
// not written as whatever the buffer held.
func TestHybridWriteOverlapKeepsGap(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("hybov.dat", striping.Config{PCount: 2, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte{0xEE}, 64)
	if _, err := f.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	file := ioseg.List{{Offset: 0, Length: 10}, {Offset: 5, Length: 10}, {Offset: 20, Length: 5}}
	arena := bytes.Repeat([]byte{0x11}, 25)
	if err := run(f, client.Request{
		Write: true, Arena: arena, File: file, Method: client.AccessHybrid, CoalesceGap: 8,
	}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(0xEE)
		if i < 15 || (i >= 20 && i < 25) {
			want = 0x11
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestHybridZeroGapSkipsRMW(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("hyb0.dat", striping.Config{PCount: 2, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent regions: gap 0 coalesces without reading back.
	file := ioseg.List{{Offset: 0, Length: 50}, {Offset: 50, Length: 50}}
	mem := ioseg.List{{Offset: 0, Length: 100}}
	arena := bytes.Repeat([]byte{7}, 100)
	before := fs.Counters().Snapshot()
	res, err := f.Run(context.Background(), client.Request{
		Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessHybrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sieve
	after := fs.Counters().Snapshot()
	if st.BytesAccessed != 100 {
		t.Fatalf("accessed = %d, want 100 (write only)", st.BytesAccessed)
	}
	if after.BytesIn != before.BytesIn {
		t.Fatal("zero-gap hybrid write read data back")
	}
}

func TestReadWriteTypeVector(t *testing.T) {
	_, fs := startCluster(t, 4)
	f, err := fs.Create("dtype.dat", striping.Config{PCount: 4, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	// A vector of 50 blocks of 16 bytes every 100 bytes at base 40.
	v := datatype.Vector(50, 16, 100, datatype.Bytes(1))
	arena := make([]byte, v.Size())
	rand.New(rand.NewSource(4)).Read(arena)
	before := fs.Counters().Snapshot()
	if err := run(f, client.Request{Write: true, Arena: arena, Type: v, Base: 40}); err != nil {
		t.Fatal(err)
	}
	after := fs.Counters().Snapshot()
	// Uniform vectors ship as datatype descriptors: <= one request per
	// server instead of per 64-region batch.
	if got := after.Requests - before.Requests; got > 4 {
		t.Fatalf("vector write used %d requests", got)
	}
	got := make([]byte, v.Size())
	if err := run(f, client.Request{Arena: got, Type: v, Base: 40}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, arena) {
		t.Fatal("datatype round trip mismatch")
	}

	// Cross-check against explicit list I/O.
	file := datatype.Flatten(v, 40)
	mem := ioseg.List{{Offset: 0, Length: v.Size()}}
	got2 := make([]byte, v.Size())
	if err := run(f, client.Request{Arena: got2, Mem: mem, File: file, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, arena) {
		t.Fatal("list read of datatype regions mismatch")
	}
}

func TestReadWriteTypeSubarray(t *testing.T) {
	_, fs := startCluster(t, 4)
	f, err := fs.Create("dtype2.dat", striping.Config{PCount: 4, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Non-uniform: a 2-D subarray goes through list I/O.
	sub, err := datatype.Subarray([]int64{32, 64}, []int64{8, 24}, []int64{4, 10}, datatype.Bytes(1))
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]byte, sub.Size())
	rand.New(rand.NewSource(5)).Read(arena)
	if err := run(f, client.Request{Write: true, Arena: arena, Type: sub}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, sub.Size())
	if err := run(f, client.Request{Arena: got, Type: sub}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, arena) {
		t.Fatal("subarray datatype round trip mismatch")
	}
}
