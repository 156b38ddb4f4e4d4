package trace_test

import (
	"bytes"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/trace"
)

func startCluster(t *testing.T) (*cluster.Cluster, *client.FS) {
	t.Helper()
	c, err := cluster.Start(cluster.Options{NumIOD: 4})
	if err != nil {
		t.Fatalf("cluster start: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	fs, err := client.Connect(c.MgrAddr())
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(func() { fs.Close() })
	return c, fs
}

func cyclicOps(t *testing.T, ranks, accesses int, total int64, write bool, chunk int) []trace.Op {
	t.Helper()
	pat, err := patterns.NewCyclic1D(ranks, accesses, total)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := trace.PatternOps(pat, write, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestReplayWriteThenReadVerify writes a cyclic trace with list I/O,
// then replays the matching read trace with every method, verifying
// the bytes that arrive.
func TestReplayWriteThenReadVerify(t *testing.T) {
	_, fs := startCluster(t)
	const seed = 42
	writeOps := cyclicOps(t, 4, 16, 64<<10, true, 0)
	res, err := trace.Replay(fs, "replay.bin", writeOps, trace.ReplayOptions{
		Method: client.AccessList,
		Create: true,
		Seed:   seed,
		Verify: true,
	})
	if err != nil {
		t.Fatalf("write replay: %v", err)
	}
	if res.Ops != 4 {
		t.Errorf("write replay ops = %d, want 4", res.Ops)
	}
	if res.Bytes != 64<<10 {
		t.Errorf("write replay bytes = %d, want %d", res.Bytes, 64<<10)
	}
	if res.Requests.Requests == 0 {
		t.Error("write replay issued no requests")
	}

	readOps := cyclicOps(t, 4, 16, 64<<10, false, 0)
	for _, m := range []client.AccessMethod{
		client.AccessMultiple, client.AccessSieve, client.AccessList, client.AccessHybrid, client.AccessAuto,
	} {
		res, err := trace.Replay(fs, "replay.bin", readOps, trace.ReplayOptions{
			Method: m,
			Seed:   seed,
			Verify: true,
		})
		if err != nil {
			t.Fatalf("read replay with %v: %v", m, err)
		}
		if res.Bytes != 64<<10 {
			t.Errorf("%v: read replay bytes = %d", m, res.Bytes)
		}
	}
}

// TestReplaySieveWritesSerializeRanks replays a 2-rank cyclic write
// trace under data sieving. Each rank's sieve window spans the other
// rank's blocks, so unserialized read-modify-write writers overwrite
// each other's data; Replay must serialize them.
func TestReplaySieveWritesSerializeRanks(t *testing.T) {
	_, fs := startCluster(t)
	ops := cyclicOps(t, 2, 256, 4<<20, true, 0)
	if _, err := trace.Replay(fs, "sieve.bin", ops, trace.ReplayOptions{
		Method: client.AccessSieve,
		Create: true,
		Seed:   3,
		Verify: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayMethodsProduceIdenticalFiles writes the same trace under
// multiple I/O and list I/O into two files and compares the images.
func TestReplayMethodsProduceIdenticalFiles(t *testing.T) {
	_, fs := startCluster(t)
	ops := cyclicOps(t, 3, 9, 27<<10, true, 4)
	for _, tc := range []struct {
		name   string
		method client.AccessMethod
	}{
		{"via-multiple.bin", client.AccessMultiple},
		{"via-list.bin", client.AccessList},
	} {
		if _, err := trace.Replay(fs, tc.name, ops, trace.ReplayOptions{
			Method: tc.method,
			Create: true,
			Seed:   7,
		}); err != nil {
			t.Fatalf("replay %s: %v", tc.name, err)
		}
	}
	read := func(name string) []byte {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := read("via-multiple.bin"), read("via-list.bin")
	if !bytes.Equal(a, b) {
		t.Error("multiple I/O and list I/O replays left different file images")
	}
}

// TestReplayIntersectGranularity replays a FLASH-like op (noncontiguous
// memory) under both list granularities.
func TestReplayIntersectGranularity(t *testing.T) {
	_, fs := startCluster(t)
	pat := patterns.DefaultFlash(2)
	pat.Blocks = 2 // shrink: 2 blocks × 24 vars = 48 regions/rank
	ops, err := trace.PatternOps(pat, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []client.Granularity{client.GranularityFileRegions, client.GranularityIntersect} {
		name := "flash-" + g.String() + ".bin"
		if _, err := trace.Replay(fs, name, ops, trace.ReplayOptions{
			Method: client.AccessList,
			List:   client.ListOptions{Granularity: g},
			Create: true,
			Seed:   11,
			Verify: true,
		}); err != nil {
			t.Fatalf("granularity %v: %v", g, err)
		}
	}
}

// TestReplayReadMissingFileFails ensures a read replay against a
// missing file surfaces an error rather than fabricating data.
func TestReplayReadMissingFileFails(t *testing.T) {
	_, fs := startCluster(t)
	ops := []trace.Op{{
		Mem:  ioseg.List{{Offset: 0, Length: 8}},
		File: ioseg.List{{Offset: 0, Length: 8}},
	}}
	if _, err := trace.Replay(fs, "no-such-file.bin", ops, trace.ReplayOptions{
		Method: client.AccessList,
	}); err == nil {
		t.Fatal("replay against missing file succeeded")
	}
}

// TestReplayEmptyOps is a no-op replay.
func TestReplayEmptyOps(t *testing.T) {
	_, fs := startCluster(t)
	res, err := trace.Replay(fs, "empty.bin", nil, trace.ReplayOptions{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 0 || res.Bytes != 0 {
		t.Errorf("empty replay moved ops=%d bytes=%d", res.Ops, res.Bytes)
	}
}
