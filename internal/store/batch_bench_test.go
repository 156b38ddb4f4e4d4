package store

// Benchmarks for the batch-submission datapath (DESIGN.md §11): one
// GAPPED N-fragment 4 KiB window — every fragment its own run, the
// shape interleaved ranks leave on a daemon's stripe file — submitted
// as one scalar pread/pwrite per fragment (perfrag, the path of an
// unsorted list) and as one ReadBatch/WriteBatch (batch: one
// preadv/pwritev per run, since gaps break the iovec chain, so N runs
// still cost N syscalls but one store call); and the cache's
// write-back flush of adjacent and of gapped dirty runs.

import (
	"fmt"
	"testing"
)

// benchGappedSpans builds n single-buffer spans of width bytes with a
// width-sized hole between consecutive spans.
func benchGappedSpans(n int, width int64) ([]Span, int64) {
	spans := make([]Span, n)
	var total int64
	for i := range spans {
		buf := make([]byte, width)
		for j := range buf {
			buf[j] = byte(i*31 + j)
		}
		spans[i] = Span{Off: int64(i) * 2 * width, Bufs: [][]byte{buf}}
		total += width
	}
	return spans, total
}

// BenchmarkDirGappedSubmission sweeps fragment count over the batch
// and per-fragment paths against store.Dir, in both directions.
func BenchmarkDirGappedSubmission(b *testing.B) {
	const width = 4096
	for _, nfrag := range []int{16, 64, 256} {
		spans, total := benchGappedSpans(nfrag, width)
		for _, dir := range []string{"write", "read"} {
			newDir := func(b *testing.B) *Dir {
				d, err := NewDir(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { d.Close() })
				if _, err := d.WriteBatch(1, spans); err != nil {
					b.Fatal(err)
				}
				return d
			}
			b.Run(fmt.Sprintf("perfrag/%s/frags=%d", dir, nfrag), func(b *testing.B) {
				d := newDir(b)
				b.SetBytes(total)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, s := range spans {
						var err error
						if dir == "write" {
							_, err = d.WriteAt(1, s.Bufs[0], s.Off)
						} else {
							_, err = d.ReadAt(1, s.Bufs[0], s.Off)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(fmt.Sprintf("batch/%s/frags=%d", dir, nfrag), func(b *testing.B) {
				d := newDir(b)
				b.SetBytes(total)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if dir == "write" {
						_, err = d.WriteBatch(1, spans)
					} else {
						_, err = d.ReadBatch(1, spans)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCacheFlushSubmission measures write-back flushing of 16
// adjacent dirty 4 KiB blocks: one WriteBatch of one span, which Dir
// takes as one gathered pwritev.
func BenchmarkCacheFlushSubmission(b *testing.B) {
	const blocks = 16
	data := make([]byte, blocks*4096)
	for i := range data {
		data[i] = byte(i * 11)
	}
	d, err := NewDir(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c := Cached(d, CacheOptions{BlockSize: 4096, Readahead: -1, FlushInterval: -1})
	defer c.Close()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteAt(1, data, 0); err != nil {
			b.Fatal(err)
		}
		if err := c.Sync(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheGappedFlush measures write-back flushing of 8 dirty
// two-block runs separated by clean gaps: one WriteBatch, which Dir
// takes as one pwritev per run.
func BenchmarkCacheGappedFlush(b *testing.B) {
	const bs = 4096
	block := make([]byte, 2*bs)
	for i := range block {
		block[i] = byte(i * 11)
	}
	d, err := NewDir(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c := Cached(d, CacheOptions{BlockSize: bs, Readahead: -1, FlushInterval: -1})
	defer c.Close()
	b.SetBytes(int64(8 * len(block)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := int64(0); r < 8; r++ {
			if _, err := c.WriteAt(1, block, r*4*bs); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Sync(1); err != nil {
			b.Fatal(err)
		}
	}
}
