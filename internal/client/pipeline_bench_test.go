package client_test

import (
	"fmt"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
)

// Benchmarks for the pipelined list I/O datapath (DESIGN.md §2, §4).
//
// The latency benches inject a per-message service delay into every
// I/O daemon (pvfsnet.Faults.SetDelay), standing in for the network
// and disk time of a real deployment; Window=1 reproduces the original
// serialized client, larger windows overlap the delays. The alloc
// benches run without delay and report allocs/op for the zero-copy
// accounting in DESIGN.md §4.

// pipelinePattern builds a FLASH-like fragmented pattern: n small
// pieces, contiguous in memory every 64 bytes, scattered in the file
// every 256 bytes.
func pipelinePattern(n int64) (mem, file ioseg.List) {
	for i := int64(0); i < n; i++ {
		mem = append(mem, ioseg.Segment{Offset: i * 64, Length: 64})
		file = append(file, ioseg.Segment{Offset: i * 256, Length: 64})
	}
	return
}

// startListBench boots a 4-daemon cluster, optionally installing a
// per-message delay, and creates a striped file plus its pattern.
func startListBench(b *testing.B, delay time.Duration) (*client.File, ioseg.List, ioseg.List, func()) {
	b.Helper()
	c, err := cluster.Start(cluster.Options{NumIOD: 4})
	if err != nil {
		b.Fatal(err)
	}
	if delay > 0 {
		for _, iod := range c.IODs {
			var f pvfsnet.Faults
			f.SetDelay(delay)
			iod.Net().SetFaults(&f)
		}
	}
	fs, err := c.Connect()
	if err != nil {
		c.Close()
		b.Fatal(err)
	}
	f, err := fs.Create("bench.dat", striping.Config{PCount: 4, StripeSize: 4096})
	if err != nil {
		fs.Close()
		c.Close()
		b.Fatal(err)
	}
	mem, file := pipelinePattern(2048) // 32 batches of 64 entries
	return f, mem, file, func() {
		fs.Close()
		c.Close()
	}
}

// BenchmarkListLatencyWindow sweeps the in-flight window against a
// 200µs per-message service delay: the win of pipelining over the
// serialized (window=1) client is the ratio of the ns/op values.
func BenchmarkListLatencyWindow(b *testing.B) {
	for _, window := range []int{1, 2, 4, 8, 16} {
		for _, dir := range []string{"read", "write"} {
			b.Run(fmt.Sprintf("%s/window%d", dir, window), func(b *testing.B) {
				f, mem, file, cleanup := startListBench(b, 200*time.Microsecond)
				defer cleanup()
				arena := make([]byte, mem.TotalLength())
				if dir == "write" {
					b.SetBytes(mem.TotalLength())
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList, Window: window}); err != nil {
							b.Fatal(err)
						}
					}
					return
				}
				if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList, Window: window}); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(mem.TotalLength())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(f, client.Request{Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkListAllocs measures steady-state allocation on the list
// datapath with no injected delay (loopback round trips only): the
// buffer pool and direct arena scatter/gather keep allocs/op flat in
// transfer size.
func BenchmarkListAllocs(b *testing.B) {
	for _, dir := range []string{"read", "write"} {
		b.Run(dir, func(b *testing.B) {
			f, mem, file, cleanup := startListBench(b, 0)
			defer cleanup()
			arena := make([]byte, mem.TotalLength())
			if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(mem.TotalLength())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dir == "write" {
					err = run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList})
				} else {
					err = run(f, client.Request{Arena: arena, Mem: mem, File: file, Method: client.AccessList})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
