package client_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/ioseg"
)

// BenchmarkStartAsyncOverlap measures the overlap win of the
// nonblocking API (DESIGN.md §8): one rank's fragmented transfer is
// split into N stream-contiguous chunks started as N concurrent Ops
// against daemons with a 200µs injected per-message service delay.
// Each Op runs its requests serialized (Window=1), so the speedup
// from async=1 to async=N is purely Start-level concurrency — the
// MPI_File_iwrite/iread overlap the blocking method matrix could not
// express.
func BenchmarkStartAsyncOverlap(b *testing.B) {
	for _, async := range []int{1, 2, 4, 8} {
		for _, dir := range []string{"write", "read"} {
			b.Run(fmt.Sprintf("%s/async%d", dir, async), func(b *testing.B) {
				f, mem, file, cleanup := startListBench(b, 200*time.Microsecond)
				defer cleanup()
				arena := make([]byte, mem.TotalLength())
				write := dir == "write"
				if !write {
					if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
						b.Fatal(err)
					}
				}
				chunks := splitStream(mem, file, async)
				ctx := context.Background()
				b.SetBytes(mem.TotalLength())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ops := make([]*client.Op, 0, async)
					for _, ch := range chunks {
						ops = append(ops, f.Start(ctx, client.Request{
							Write: write, Arena: arena, Mem: ch.mem, File: ch.file,
							Method: client.AccessList, Window: 1,
						}))
					}
					for _, op := range ops {
						if _, err := op.Wait(); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

type streamChunk struct{ mem, file ioseg.List }

// splitStream cuts a (mem, file) pair into n stream-contiguous chunks
// of near-equal bytes at file-region boundaries.
func splitStream(mem, file ioseg.List, n int) []streamChunk {
	total := file.TotalLength()
	if n <= 1 || total == 0 || len(file) < 2 {
		return []streamChunk{{mem: mem, file: file}}
	}
	per := (total + int64(n) - 1) / int64(n)
	var chunks []streamChunk
	var cur streamChunk
	var curBytes int64
	memIdx, memUsed := 0, int64(0)
	takeMem := func(want int64) ioseg.List {
		var out ioseg.List
		for want > 0 && memIdx < len(mem) {
			m := mem[memIdx]
			take := m.Length - memUsed
			if take > want {
				take = want
			}
			out = append(out, ioseg.Segment{Offset: m.Offset + memUsed, Length: take})
			memUsed += take
			want -= take
			if memUsed == m.Length {
				memIdx, memUsed = memIdx+1, 0
			}
		}
		return out
	}
	for _, s := range file {
		cur.file = append(cur.file, s)
		curBytes += s.Length
		if curBytes >= per && len(chunks) < n-1 {
			cur.mem = takeMem(curBytes)
			chunks = append(chunks, cur)
			cur, curBytes = streamChunk{}, 0
		}
	}
	if len(cur.file) > 0 {
		cur.mem = takeMem(curBytes)
		chunks = append(chunks, cur)
	}
	return chunks
}
