package memio

import (
	"fmt"
	"math/rand"
	"testing"

	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
)

// The benchmarks iterate on the map without the harness, over three
// kinds of memory list, each moved in the datatype path's 512 KiB
// windows like the harness's replayPlan:
//
//   - flash: what the flash_dtype workload hands the client
//     (bench/workloads.go flashShape) — 196 608 eight-byte pieces 192
//     bytes apart, eight to a row; 3 072 strided runs.
//   - irregular: 200 000 regions of random length 1–64 at random gaps,
//     the list no run can fold; it is listed, 64 regions to a run.
//   - elem=N: one strided run of N-byte elements, eight to a row, three
//     widths apart. 8 takes the fixed-width kernel, whose ns/piece the
//     generic copy loop that 4, 12 and 16 take must be measured against.
//
// BenchmarkStreamMapPieces moves the flash list's bytes the way one
// flash_dtype op does instead: one body per server, each the pieces
// calls' list of that server's 16 KiB stripe unit of every variable.

const benchWindow = 512 << 10

func flashMem() (ioseg.List, []byte) {
	pat := &patterns.Flash{NumRanks: 4, Blocks: 16, Elems: 8, Guard: 1, Vars: 24}
	return patterns.MemList(pat, 0), make([]byte, pat.ArenaBytes(0))
}

func irregularMem() (ioseg.List, []byte) {
	rng := rand.New(rand.NewSource(1))
	l := make(ioseg.List, 200_000)
	var off int64
	for i := range l {
		off += rng.Int63n(64)
		l[i] = ioseg.Segment{Offset: off, Length: 1 + rng.Int63n(64)}
		off += l[i].Length
	}
	return l, make([]byte, off)
}

func stridedMem(elem int64) (ioseg.List, []byte) {
	const perRow, rows = 8, 24576
	return block(nil, 0, elem, perRow, 3*elem, rows, perRow*3*elem), make([]byte, rows*perRow*3*elem)
}

// benchShapes runs fn on each list; widths adds the one-run lists.
func benchShapes(b *testing.B, widths bool, fn func(b *testing.B, mem ioseg.List, arena []byte)) {
	run := func(name string, mem ioseg.List, arena []byte) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(mem.TotalLength())
			b.ReportAllocs()
			fn(b, mem, arena)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(mem)), "ns/piece")
		})
	}
	mem, arena := flashMem()
	run("flash", mem, arena)
	mem, arena = irregularMem()
	run("irregular", mem, arena)
	if !widths {
		return
	}
	for _, elem := range []int64{4, 8, 12, 16} {
		mem, arena = stridedMem(elem)
		run(fmt.Sprintf("elem=%d", elem), mem, arena)
	}
}

var benchMap *StreamMap

func BenchmarkStreamMapBuild(b *testing.B) {
	benchShapes(b, false, func(b *testing.B, mem ioseg.List, _ []byte) {
		for b.Loop() {
			benchMap = NewStreamMap(mem)
		}
		b.ReportMetric(float64(len(benchMap.runs)), "runs")
	})
}

func BenchmarkStreamMapGather(b *testing.B) {
	benchShapes(b, true, func(b *testing.B, mem ioseg.List, arena []byte) {
		m := NewStreamMap(mem)
		buf := make([]byte, 0, benchWindow)
		for b.Loop() {
			for pos := int64(0); pos < m.Total(); pos += benchWindow {
				var err error
				if buf, err = m.AppendOut(buf[:0], arena, pos, min(benchWindow, m.Total()-pos)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkStreamMapScatter(b *testing.B) {
	benchShapes(b, true, func(b *testing.B, mem ioseg.List, arena []byte) {
		m := NewStreamMap(mem)
		buf := make([]byte, benchWindow)
		for b.Loop() {
			for pos := int64(0); pos < m.Total(); pos += benchWindow {
				if err := m.CopyIn(arena, pos, buf[:min(benchWindow, m.Total()-pos)]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// flashBodies returns the pieces of one flash_dtype op's bodies: for each
// of 4 servers, its 16 KiB of each of the 24 variables' 64 KiB runs, in
// variable order, as the datatype path's window walk emits them.
func flashBodies() [][]Piece {
	const servers, vars, unit = 4, 24, 16 << 10
	bodies := make([][]Piece, servers)
	for rel := range bodies {
		for v := int64(0); v < vars; v++ {
			bodies[rel] = append(bodies[rel], Piece{Pos: v*servers*unit + int64(rel)*unit, Len: unit})
		}
	}
	return bodies
}

func BenchmarkStreamMapPieces(b *testing.B) {
	mem, arena := flashMem()
	m := NewStreamMap(mem)
	bodies := flashBodies()
	body := make([]byte, 0, 24*16<<10)
	for _, dir := range []string{"gather", "scatter"} {
		b.Run("flash/"+dir, func(b *testing.B) {
			b.SetBytes(m.Total())
			b.ReportAllocs()
			for b.Loop() {
				for _, pieces := range bodies {
					var err error
					if dir == "gather" {
						body, err = m.GatherPieces(body[:0], arena, pieces)
					} else {
						err = m.ScatterPieces(arena, body[:cap(body)], pieces)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(mem)), "ns/piece")
		})
	}
}
