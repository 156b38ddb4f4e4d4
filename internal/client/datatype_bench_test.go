package client_test

import (
	"fmt"
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
)

// Benchmarks for the datatype datapath (DESIGN.md §6): the FLASH-like
// worst case — 100,000 contiguous
// 8-byte fragments, the paper's §4.3.1 shape — under a 200µs
// per-message service delay at every I/O daemon. List I/O needs
// fragments/64 requests (~1563); datatype I/O needs one request per
// server per response window, so the ratio is the request-count
// collapse the tentpole claims.

const (
	flashFrags   = 100_000
	flashFragLen = 8
	flashStride  = 32
)

// startFlashBench boots a 4-daemon cluster with an optional injected
// delay and a file pre-seeded with the FLASH pattern's span.
func startFlashBench(b *testing.B, delay time.Duration) (*client.File, func()) {
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
	f, err := fs.Create("flashbench.dat", striping.Config{PCount: 4, StripeSize: 4096})
	if err != nil {
		fs.Close()
		c.Close()
		b.Fatal(err)
	}
	return f, func() {
		fs.Close()
		c.Close()
	}
}

func flashType() (datatype.Type, ioseg.List, int64) {
	t := datatype.Vector(flashFrags, flashFragLen, flashStride, datatype.Bytes(1))
	dataLen := int64(flashFrags * flashFragLen)
	return t, ioseg.List{{Offset: 0, Length: dataLen}}, dataLen
}

// BenchmarkFlashLatencyDatatypeVsList sweeps both datapaths over the
// FLASH-like pattern with a 200µs injected per-message delay.
func BenchmarkFlashLatencyDatatypeVsList(b *testing.B) {
	typ, mem, dataLen := flashType()
	for _, dir := range []string{"read", "write"} {
		bench := func(name string, op func(f *client.File, arena []byte) error) {
			b.Run(fmt.Sprintf("%s/%s", dir, name), func(b *testing.B) {
				f, cleanup := startFlashBench(b, 200*time.Microsecond)
				defer cleanup()
				arena := make([]byte, dataLen)
				// Seed the file so reads have data.
				if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, Type: typ, Method: client.AccessDatatype}); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(dataLen)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op(f, arena); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		flat := datatype.Flatten(typ, 0)
		if dir == "read" {
			bench("list", func(f *client.File, arena []byte) error {
				return run(f, client.Request{Arena: arena, Mem: mem, File: flat, Method: client.AccessList})
			})
			for _, win := range []int64{64 << 10, 512 << 10} {
				win := win
				bench(fmt.Sprintf("datatype-win%dk", win>>10), func(f *client.File, arena []byte) error {
					return run(f, client.Request{Arena: arena, Mem: mem, Type: typ, Method: client.AccessDatatype, Datatype: client.DatatypeOptions{WindowBytes: win}})
				})
			}
			continue
		}
		bench("list", func(f *client.File, arena []byte) error {
			return run(f, client.Request{Write: true, Arena: arena, Mem: mem, File: flat, Method: client.AccessList})
		})
		for _, win := range []int64{64 << 10, 512 << 10} {
			win := win
			bench(fmt.Sprintf("datatype-win%dk", win>>10), func(f *client.File, arena []byte) error {
				return run(f, client.Request{Write: true, Arena: arena, Mem: mem, Type: typ, Method: client.AccessDatatype, Datatype: client.DatatypeOptions{WindowBytes: win}})
			})
		}
	}
}

// BenchmarkFlashDatatypeAllocs measures steady-state allocation on the
// datatype path with no injected delay: allocations scale with windows
// (a handful), not fragments (100k).
func BenchmarkFlashDatatypeAllocs(b *testing.B) {
	typ, mem, dataLen := flashType()
	for _, dir := range []string{"read", "write"} {
		b.Run(dir, func(b *testing.B) {
			f, cleanup := startFlashBench(b, 0)
			defer cleanup()
			arena := make([]byte, dataLen)
			if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, Type: typ, Method: client.AccessDatatype}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(dataLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dir == "write" {
					err = run(f, client.Request{Write: true, Arena: arena, Mem: mem, Type: typ, Method: client.AccessDatatype})
				} else {
					err = run(f, client.Request{Arena: arena, Mem: mem, Type: typ, Method: client.AccessDatatype})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
