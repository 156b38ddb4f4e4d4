package store

// Benchmarks for the storage-cache sweep: a FLASH-like small-block workload (4 KiB chunks, the paper's
// checkpoint fragment size) against the Dir and Mem backends with the
// write-back cache on and off, plus a parallel Dir benchmark pinning
// the per-handle locking win (the old store-wide mutex serialized
// every syscall). BenchmarkCacheTiledRequest replays one daemon's
// tiled-visualisation request through the cache.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const (
	benchChunk   = 4096    // FLASH-like fragment size
	benchWorkSet = 8 << 20 // bytes touched per pass
)

// benchBackends constructs each backend variant fresh per sub-bench.
func benchBackends(b *testing.B) map[string]func() Store {
	b.Helper()
	return map[string]func() Store{
		"dir": func() Store {
			d, err := NewDir(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return d
		},
		"dir-cached": func() Store {
			d, err := NewDir(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return Cached(d, CacheOptions{})
		},
		"mem":        func() Store { return NewMem() },
		"mem-cached": func() Store { return Cached(NewMem(), CacheOptions{}) },
	}
}

// BenchmarkSmallBlockCacheSweep measures one 4 KiB access per op,
// cycling sequentially over an 8 MiB working set — the access shape
// the FLASH workload presents to each daemon after striping.
func BenchmarkSmallBlockCacheSweep(b *testing.B) {
	for _, dir := range []string{"write", "read"} {
		for name, mk := range benchBackends(b) {
			b.Run(fmt.Sprintf("%s/%s", dir, name), func(b *testing.B) {
				s := mk()
				defer s.Close()
				chunk := make([]byte, benchChunk)
				for i := range chunk {
					chunk[i] = byte(i)
				}
				if dir == "read" {
					// Populate the working set, flushed down.
					for off := int64(0); off < benchWorkSet; off += benchChunk {
						if _, err := s.WriteAt(1, chunk, off); err != nil {
							b.Fatal(err)
						}
					}
					if sy, ok := s.(Syncer); ok {
						if err := sy.SyncAll(); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.SetBytes(benchChunk)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := (int64(i) * benchChunk) % benchWorkSet
					var err error
					if dir == "write" {
						_, err = s.WriteAt(1, chunk, off)
					} else {
						_, err = s.ReadAt(1, chunk, off)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
			})
		}
	}
}

// BenchmarkCacheTiledRequest replays one daemon's share of a tiled_cache
// request (paper §4.4) over Cached(Dir): 19 pieces of a 3 KiB tile row at
// the merged display's 7 596 B row stride, one span each — the gapped
// batch a list window leaves on a daemon's stripe file. The write side
// lands them and Syncs, as the workload pushes each rendered tile
// through the write-back cache; the read side reads them back. Each op
// moves on by one request over a file 4× the cache, so ops miss, evict
// and recycle buffers the way the daemon's do. It reports allocs/op.
func BenchmarkCacheTiledRequest(b *testing.B) {
	const (
		pieces   = 19
		row      = 3 << 10
		stride   = 7596
		cacheMax = 4 << 20
		fileSize = 4 * cacheMax
		reqSpan  = pieces * stride
	)
	for _, dir := range []string{"write", "read"} {
		b.Run(dir, func(b *testing.B) {
			d, err := NewDir(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			img := make([]byte, fileSize)
			for i := range img {
				img[i] = byte(i * 7)
			}
			if _, err := d.WriteAt(1, img, 0); err != nil {
				b.Fatal(err)
			}
			c := Cached(d, CacheOptions{MaxBytes: cacheMax})
			defer c.Close()
			data := img[:pieces*row]
			spans := make([]Span, pieces)
			for j := range spans {
				spans[j].Bufs = [][]byte{data[j*row : (j+1)*row]}
			}
			b.SetBytes(pieces * row)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := int64(i%(fileSize/reqSpan)) * reqSpan
				for j := range spans {
					spans[j].Off = base + int64(j)*stride
				}
				if dir == "read" {
					if _, err := c.ReadBatch(1, spans); err != nil {
						b.Fatal(err)
					}
					continue
				}
				if _, err := c.WriteBatch(1, spans); err != nil {
					b.Fatal(err)
				}
				if err := c.Sync(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// serializedStore reproduces the pre-fix Dir locking for comparison:
// one store-wide mutex held across every data syscall.
type serializedStore struct {
	mu sync.Mutex
	Store
}

func (s *serializedStore) ReadAt(h uint64, p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Store.ReadAt(h, p, off)
}

func (s *serializedStore) WriteAt(h uint64, p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Store.WriteAt(h, p, off)
}

// slowStore adds a fixed device latency to every data access, standing
// in for a spinning disk behind the page cache (the paper's iods used
// IDE disks). The sleep happens inside the store call, so whichever
// lock the caller holds across the call also covers the device wait —
// exactly how the old store-wide mutex turned one slow access into a
// convoy.
type slowStore struct {
	delay time.Duration
	Store
}

func (s *slowStore) ReadAt(h uint64, p []byte, off int64) (int, error) {
	time.Sleep(s.delay)
	return s.Store.ReadAt(h, p, off)
}

func (s *slowStore) WriteAt(h uint64, p []byte, off int64) (int, error) {
	time.Sleep(s.delay)
	return s.Store.WriteAt(h, p, off)
}

// BenchmarkDirParallelSmallBlock drives one Dir store from 8
// concurrent workers, the contention shape of the daemon's tagged
// pipelining (up to 64 concurrent requests per connection). The
// "serialized" variants reproduce the old store-wide mutex held
// across every data access; the "disk200us" variants inject a 200 µs
// device latency per access, which the per-handle scheme overlaps
// across requests and the store-wide mutex turns into a convoy.
func BenchmarkDirParallelSmallBlock(b *testing.B) {
	for _, locking := range []string{"perhandle", "serialized"} {
		for _, media := range []string{"pagecache", "disk200us"} {
			b.Run(fmt.Sprintf("%s/%s", locking, media), func(b *testing.B) {
				const handles = 8
				dir, err := NewDir(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				var d Store = dir
				if media == "disk200us" {
					d = &slowStore{delay: 200 * time.Microsecond, Store: d}
				}
				if locking == "serialized" {
					d = &serializedStore{Store: d}
				}
				defer d.Close()
				b.SetParallelism(8) // 8 workers regardless of GOMAXPROCS
				chunk := make([]byte, benchChunk)
				for h := 0; h < handles; h++ {
					if _, err := d.WriteAt(uint64(h+1), chunk, benchWorkSet); err != nil {
						b.Fatal(err)
					}
				}
				var worker atomic.Int64
				b.SetBytes(benchChunk)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					// Workers spread across handles round-robin,
					// hitting distinct stripe files (distinct inodes)
					// like distinct PVFS handles do.
					h := uint64(worker.Add(1)-1) % uint64(handles)
					i := 0
					for pb.Next() {
						off := (int64(i) * benchChunk) % benchWorkSet
						var err error
						if i%2 == 0 {
							_, err = d.WriteAt(h+1, chunk, off)
						} else {
							_, err = d.ReadAt(h+1, chunk, off)
						}
						if err != nil {
							b.Fatal(err)
						}
						i++
					}
				})
			})
		}
	}
}
