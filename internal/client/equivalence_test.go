package client_test

import (
	"bytes"
	"fmt"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
)

// Cross-method equivalence on unstructured input: every noncontiguous
// method must produce byte-identical file and memory images on the
// seeded random pattern, which has no regularity for any method to
// exploit. This is the library's core correctness contract (§3: the
// methods differ only in cost).

// fullImage reads the whole file contiguously.
func fullImage(t *testing.T, fs *client.FS, name string) []byte {
	t.Helper()
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
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func TestCrossMethodEquivalenceRandom(t *testing.T) {
	for _, seed := range []int64{1, 7, 4242} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, err := cluster.Start(cluster.Options{NumIOD: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fs, err := c.Connect()
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()

			pat, err := patterns.NewRandom(3, seed, patterns.RandomOptions{
				RegionsPerRank: 80, MinSize: 1, MaxSize: 700, MaxGap: 500,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := striping.Config{PCount: 4, StripeSize: 512}

			// Reference image computed in memory.
			ref := make([]byte, pat.FileBytes())
			arenas := make([][]byte, pat.Ranks())
			for r := 0; r < pat.Ranks(); r++ {
				arenas[r] = make([]byte, pat.TotalBytes(r))
				for i := range arenas[r] {
					arenas[r][i] = byte(int(seed) + r*31 + i)
				}
				var pos int64
				for i := 0; i < pat.FileRegions(r); i++ {
					seg := pat.FileRegion(r, i)
					copy(ref[seg.Offset:seg.End()], arenas[r][pos:pos+seg.Length])
					pos += seg.Length
				}
			}

			// Write the same data under each method into its own file.
			// Ranks run sequentially so data sieving's read-modify-write
			// is safe (the paper serializes sieving writes, §4.2.1).
			// Hybrid coalesces across gaps up to 256 bytes, so its writes
			// take the read-modify-write arm.
			methods := []client.AccessMethod{
				client.AccessMultiple, client.AccessSieve, client.AccessList,
				client.AccessHybrid, client.AccessAuto,
			}
			for _, m := range methods {
				name := "equiv-" + m.String()
				f, err := fs.Create(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < pat.Ranks(); r++ {
					mem := patterns.MemList(pat, r)
					file := patterns.FileList(pat, r)
					if err := run(f, client.Request{
						Write: true, Arena: arenas[r], Mem: mem, File: file, Method: m, CoalesceGap: 256,
					}); err != nil {
						t.Fatalf("%v write rank %d: %v", m, r, err)
					}
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				img := fullImage(t, fs, name)
				if len(img) < len(ref) {
					t.Fatalf("%v: image %d bytes, want ≥ %d", m, len(img), len(ref))
				}
				if !bytes.Equal(img[:len(ref)], ref) {
					t.Fatalf("%v: file image differs from reference", m)
				}
			}

			// Read back under every method from the list-written file
			// and compare the arenas.
			for _, m := range methods {
				f, err := fs.Open("equiv-list")
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < pat.Ranks(); r++ {
					mem := patterns.MemList(pat, r)
					file := patterns.FileList(pat, r)
					got := make([]byte, pat.TotalBytes(r))
					if err := run(f, client.Request{
						Arena: got, Mem: mem, File: file, Method: m, CoalesceGap: 256,
					}); err != nil {
						t.Fatalf("%v read rank %d: %v", m, r, err)
					}
					if !bytes.Equal(got, arenas[r]) {
						t.Fatalf("%v: rank %d arena differs after read-back", m, r)
					}
				}
				f.Close()
			}
		})
	}
}

// TestStridedEquivalenceOnVector checks the descriptor extension
// against list I/O on a uniform vector (its applicable domain).
func TestStridedEquivalenceOnVector(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	const (
		count    = int64(200)
		blockLen = int64(48)
		stride   = int64(160)
	)
	arena := make([]byte, count*blockLen)
	for i := range arena {
		arena[i] = byte(i * 3)
	}
	mem := ioseg.List{{Offset: 0, Length: int64(len(arena))}}
	vec := datatype.Vector(count, blockLen, stride, datatype.Bytes(1))
	flist := make(ioseg.List, count)
	for i := int64(0); i < count; i++ {
		flist[i] = ioseg.Segment{Offset: i * stride, Length: blockLen}
	}

	fList, err := fs.Create("vec-list", striping.Config{PCount: 4, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(fList, client.Request{Write: true, Arena: arena, Mem: mem, File: flist, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	fList.Close()

	fStr, err := fs.Create("vec-strided", striping.Config{PCount: 4, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(fStr, client.Request{Write: true, Arena: arena, Mem: mem, Type: vec}); err != nil {
		t.Fatal(err)
	}
	fStr.Close()

	a := fullImage(t, fs, "vec-list")
	b := fullImage(t, fs, "vec-strided")
	if !bytes.Equal(a, b) {
		t.Fatal("list and strided writes left different images")
	}

	// Read back via strided and compare to the arena.
	fr, err := fs.Open("vec-list")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	got := make([]byte, len(arena))
	if err := run(fr, client.Request{Arena: got, Mem: mem, Type: vec}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, arena) {
		t.Fatal("strided read-back differs from source arena")
	}
}

// TestListWindowEquivalence pins the pipelining contract: list reads
// and writes must produce byte-identical results whether requests are
// serialized (Window=1, the original PVFS discipline) or pipelined
// (Window=8), across granularities and an unstructured random pattern.
func TestListWindowEquivalence(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	pat, err := patterns.NewRandom(2, 99, patterns.RandomOptions{
		RegionsPerRank: 300, MinSize: 1, MaxSize: 400, MaxGap: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := striping.Config{PCount: 4, StripeSize: 512}

	for _, g := range []client.Granularity{client.GranularityFileRegions, client.GranularityIntersect} {
		for r := 0; r < pat.Ranks(); r++ {
			mem := patterns.MemList(pat, r)
			file := patterns.FileList(pat, r)
			arena := make([]byte, pat.TotalBytes(r))
			for i := range arena {
				arena[i] = byte(r*89 + i*13)
			}
			names := [2]string{}
			for wi, window := range []int{1, 8} {
				name := fmt.Sprintf("win-%v-r%d-w%d", g, r, window)
				names[wi] = name
				f, err := fs.Create(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				opts := client.ListOptions{Granularity: g}
				if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList, List: opts, Window: window}); err != nil {
					t.Fatalf("write window=%d: %v", window, err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			a := fullImage(t, fs, names[0])
			b := fullImage(t, fs, names[1])
			if !bytes.Equal(a, b) {
				t.Fatalf("granularity %v rank %d: window=1 and window=8 images differ", g, r)
			}

			// Read the serialized-written file back under both windows.
			f, err := fs.Open(names[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, window := range []int{1, 8} {
				got := make([]byte, pat.TotalBytes(r))
				opts := client.ListOptions{Granularity: g}
				if err := run(f, client.Request{Arena: got, Mem: mem, File: file, Method: client.AccessList, List: opts, Window: window}); err != nil {
					t.Fatalf("read window=%d: %v", window, err)
				}
				if !bytes.Equal(got, arena) {
					t.Fatalf("granularity %v rank %d window=%d: read-back differs", g, r, window)
				}
			}
			f.Close()
		}
	}
}
