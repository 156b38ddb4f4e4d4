package mpiio_test

import (
	"bytes"
	"math/rand"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/mpiio"
	"pvfs/internal/striping"
)

func newFile(t *testing.T, hints mpiio.Hints) (*cluster.Cluster, *client.FS, *mpiio.File) {
	t.Helper()
	c, err := cluster.Start(cluster.Options{NumIOD: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	f, err := fs.Create("view.dat", striping.Config{PCount: 4, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	return c, fs, mpiio.Open(f, hints)
}

func TestDefaultViewIsLinear(t *testing.T) {
	_, _, m := newFile(t, mpiio.Hints{})
	data := []byte("linear bytes through the default view")
	if err := m.WriteAtEtype(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.ReadAtEtype(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	// Etype offsets are bytes in the default view.
	tail := make([]byte, 5)
	if err := m.ReadAtEtype(tail, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, data[7:12]) {
		t.Fatalf("tail = %q", tail)
	}
}

func TestVectorViewInterleavesRanks(t *testing.T) {
	// The 1-D cyclic pattern as MPI views: rank r sees every 4th
	// block of 64 bytes starting at block r. Two "ranks" write
	// through their views; the underlying file must interleave.
	_, fs, _ := newFile(t, mpiio.Hints{})
	const (
		blockLen = 64
		ranks    = 4
		blocks   = 8
	)
	for r := 0; r < ranks; r++ {
		f, err := fs.Open("view.dat")
		if err != nil {
			t.Fatal(err)
		}
		m := mpiio.Open(f, mpiio.Hints{})
		ftype := datatype.Vector(blocks, blockLen, ranks*blockLen, datatype.Bytes(1))
		if err := m.SetView(int64(r*blockLen), datatype.Bytes(1), ftype); err != nil {
			t.Fatal(err)
		}
		buf := bytes.Repeat([]byte{byte('A' + r)}, blocks*blockLen)
		if err := m.WriteAtEtype(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Verify the interleave with a plain contiguous read.
	f, err := fs.Open("view.dat")
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, ranks*blocks*blockLen)
	if _, err := f.ReadAt(whole, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range whole {
		want := byte('A' + (i/blockLen)%ranks)
		if b != want {
			t.Fatalf("byte %d = %c, want %c", i, b, want)
		}
	}
}

func TestViewOffsetsCrossTiles(t *testing.T) {
	// Reading at an etype offset that starts mid-tile and spans
	// several filetype tiles.
	_, fs, _ := newFile(t, mpiio.Hints{})
	f, err := fs.Open("view.dat")
	if err != nil {
		t.Fatal(err)
	}
	// Underlying file: 0..2047 patterned.
	raw := make([]byte, 2048)
	for i := range raw {
		raw[i] = byte(i % 251)
	}
	if _, err := f.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	m := mpiio.Open(f, mpiio.Hints{})
	// View: 16-byte doubles... etype 8, filetype = vector of 2 blocks
	// of 1 etype every 4 etypes (data 16 B per 32 B extent).
	ft := datatype.Vector(2, 1, 4, datatype.Bytes(8))
	if err := m.SetView(100, datatype.Bytes(8), ft); err != nil {
		t.Fatal(err)
	}
	// View data space: tile k holds file bytes [100+32k,100+32k+8) and
	// [100+32k+32... wait: vector(2,1,4) of 8-byte elems: blocks at
	// elem 0 and elem 4 → file offsets 0 and 32, extent 40.
	// Read 6 etypes (48 bytes) starting at etype 1.
	got := make([]byte, 48)
	if err := m.ReadAtEtype(got, 1); err != nil {
		t.Fatal(err)
	}
	// Expected: walk the view mapping by hand.
	tileExtent := ft.Extent()
	dataPerTile := ft.Size()
	var want []byte
	for e := int64(1); e < 7; e++ {
		tile := e * 8 / dataPerTile
		inTile := e * 8 % dataPerTile
		var fileOff int64
		if inTile < 8 {
			fileOff = 100 + tile*tileExtent + inTile
		} else {
			fileOff = 100 + tile*tileExtent + 32 + (inTile - 8)
		}
		want = append(want, raw[fileOff:fileOff+8]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cross-tile read mismatch\ngot  % x\nwant % x", got[:16], want[:16])
	}
}

func TestHintsSelectMethod(t *testing.T) {
	// The same access via every hint setting must produce
	// identical data but different request profiles.
	_, fs, m := newFile(t, mpiio.Hints{})
	ft := datatype.Vector(128, 16, 64, datatype.Bytes(1))
	if err := m.SetView(0, datatype.Bytes(1), ft); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, ft.Size())
	rand.New(rand.NewSource(2)).Read(data)
	if err := m.WriteAtEtype(data, 0); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		hints mpiio.Hints
		// maxRequests bounds the expected request count.
		maxRequests int64
	}{
		{"auto", mpiio.Hints{}, 16},
		{"list", mpiio.Hints{Method: client.AccessList}, 16},
		{"sieve", mpiio.Hints{Method: client.AccessSieve, SieveBufferBytes: 1 << 20}, 8},
		{"multiple", mpiio.Hints{Method: client.AccessMultiple}, 256},
		{"hybrid", mpiio.Hints{Method: client.AccessHybrid, CoalesceGapBytes: 64}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f2, err := fs.Open("view.dat")
			if err != nil {
				t.Fatal(err)
			}
			mm := mpiio.Open(f2, tc.hints)
			if err := mm.SetView(0, datatype.Bytes(1), ft); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, ft.Size())
			before := fs.Counters().Snapshot()
			if err := mm.ReadAtEtype(got, 0); err != nil {
				t.Fatal(err)
			}
			after := fs.Counters().Snapshot()
			if !bytes.Equal(got, data) {
				t.Fatal("data mismatch")
			}
			if got := after.Requests - before.Requests; got > tc.maxRequests {
				t.Fatalf("requests = %d, want <= %d", got, tc.maxRequests)
			}
		})
	}
}

func TestSequentialViewIO(t *testing.T) {
	_, _, m := newFile(t, mpiio.Hints{})
	ft := datatype.Vector(4, 8, 16, datatype.Bytes(1)) // 32 data bytes per 56-byte extent
	if err := m.SetView(8, datatype.Bytes(8), ft); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		chunk := bytes.Repeat([]byte{byte('a' + i)}, 16)
		if err := m.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SeekEtype(0); err != nil {
		t.Fatal(err)
	}
	all := make([]byte, 64)
	if err := m.Read(all); err != nil {
		t.Fatal(err)
	}
	want := bytes.Join([][]byte{
		bytes.Repeat([]byte{'a'}, 16), bytes.Repeat([]byte{'b'}, 16),
		bytes.Repeat([]byte{'c'}, 16), bytes.Repeat([]byte{'d'}, 16),
	}, nil)
	if !bytes.Equal(all, want) {
		t.Fatalf("sequential view read mismatch: %q", all)
	}
}

func TestSetViewValidation(t *testing.T) {
	_, _, m := newFile(t, mpiio.Hints{})
	if err := m.SetView(-1, datatype.Bytes(1), datatype.Bytes(1)); err == nil {
		t.Error("negative disp accepted")
	}
	if err := m.SetView(0, datatype.Bytes(8), datatype.Bytes(12)); err == nil {
		t.Error("filetype not multiple of etype accepted")
	}
	if err := m.SetView(0, datatype.Bytes(0), datatype.Bytes(8)); err == nil {
		t.Error("zero-size etype accepted")
	}
	if err := m.SetView(0, nil, datatype.Bytes(8)); err == nil {
		t.Error("nil etype accepted")
	}
	// Buffer not a whole number of etypes.
	if err := m.SetView(0, datatype.Bytes(8), datatype.Bytes(8)); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadAtEtype(make([]byte, 12), 0); err == nil {
		t.Error("fractional etype buffer accepted")
	}
}

func TestFlashAsView(t *testing.T) {
	// The FLASH file layout for one rank expressed as a view:
	// filetype = one 4 KiB chunk every ranks*4 KiB.
	_, fs, _ := newFile(t, mpiio.Hints{})
	const ranks = 2
	chunk := int64(512) // scaled-down chunk
	for r := 0; r < ranks; r++ {
		f, err := fs.Open("view.dat")
		if err != nil {
			t.Fatal(err)
		}
		m := mpiio.Open(f, mpiio.Hints{})
		ft := datatype.HVector(6, chunk, ranks*chunk, datatype.Bytes(1))
		if err := m.SetView(int64(r)*chunk, datatype.Bytes(1), ft); err != nil {
			t.Fatal(err)
		}
		buf := bytes.Repeat([]byte{byte('0' + r)}, int(6*chunk))
		if err := m.WriteAtEtype(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.Open("view.dat")
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, ranks*6*chunk)
	if _, err := f.ReadAt(whole, 0); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < int64(len(whole)); i++ {
		want := byte('0' + (i/chunk)%ranks)
		if whole[i] != want {
			t.Fatalf("byte %d = %c, want %c", i, whole[i], want)
		}
	}
}

// TestDatatypeRouting pins the selection function of the datatype
// path (DESIGN.md §6): whole-tile accesses under the default (auto)
// hints ship the view type itself (Datatype path counters move, List
// stays flat); unaligned accesses fall back to list I/O, an AccessList
// hint forces it; and both routes produce identical bytes.
func TestDatatypeRouting(t *testing.T) {
	_, fs, m := newFile(t, mpiio.Hints{})
	// Rank-0 view of a 4-rank cyclic pattern: eight 64-byte blocks,
	// one per 256-byte stripe cycle, as a single filetype tile.
	filetype := datatype.Vector(8, 64, 256, datatype.Bytes(1))
	if err := m.SetView(0, datatype.Bytes(1), filetype); err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 8*64) // exactly one tile of view data
	rand.New(rand.NewSource(21)).Read(data)

	before := fs.Counters().Snapshot()
	if err := m.WriteAtEtype(data, 0); err != nil {
		t.Fatal(err)
	}
	d := fs.Counters().Snapshot().Sub(before)
	if d.Datatype.Requests == 0 {
		t.Fatalf("whole-tile write did not take the datatype path: %+v", d)
	}
	if d.List.Requests != 0 {
		t.Fatalf("whole-tile write also used list I/O: %+v", d.List)
	}

	// Read back through the datatype route and verify.
	got := make([]byte, len(data))
	if err := m.ReadAtEtype(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("datatype-routed read-back differs")
	}

	// An access that does not cover whole tiles falls back to list I/O.
	before = fs.Counters().Snapshot()
	part := make([]byte, 32)
	if err := m.ReadAtEtype(part, 16); err != nil {
		t.Fatal(err)
	}
	d = fs.Counters().Snapshot().Sub(before)
	if d.Datatype.Requests != 0 || d.List.Requests == 0 {
		t.Fatalf("partial-tile access routing: %+v", d)
	}
	if !bytes.Equal(part, data[16:48]) {
		t.Fatal("fallback read-back differs")
	}

	// An AccessList hint forces the flattened path even for whole
	// tiles, and the results stay identical.
	f2, err := fs.Create("view-nodt.dat", striping.Config{PCount: 4, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	m2 := mpiio.Open(f2, mpiio.Hints{Method: client.AccessList})
	if err := m2.SetView(0, datatype.Bytes(1), filetype); err != nil {
		t.Fatal(err)
	}
	before = fs.Counters().Snapshot()
	if err := m2.WriteAtEtype(data, 0); err != nil {
		t.Fatal(err)
	}
	d = fs.Counters().Snapshot().Sub(before)
	if d.Datatype.Requests != 0 || d.List.Requests == 0 {
		t.Fatalf("AccessList routing: %+v", d)
	}
	got2 := make([]byte, len(data))
	if err := m2.ReadAtEtype(got2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatal("AccessList read-back differs")
	}
}

// TestDefaultHintsShipDatatype pins the zero Hints to their documented
// default: a whole-tile access through mpiio.Open(f, mpiio.Hints{})
// ships the view type as a datatype, never one request per piece.
func TestDefaultHintsShipDatatype(t *testing.T) {
	_, fs, m := newFile(t, mpiio.Hints{})
	filetype := datatype.Vector(16, 32, 128, datatype.Bytes(1))
	if err := m.SetView(0, datatype.Bytes(1), filetype); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*filetype.Size()) // two whole tiles
	rand.New(rand.NewSource(3)).Read(data)
	before := fs.Counters().Snapshot()
	if err := m.WriteAtEtype(data, 0); err != nil {
		t.Fatal(err)
	}
	d := fs.Counters().Snapshot().Sub(before)
	if d.Datatype.Requests == 0 || d.Multiple.Requests != 0 {
		t.Fatalf("default hints: datatype %+v, multiple %+v; want datatype requests and no multiple I/O", d.Datatype, d.Multiple)
	}
	got := make([]byte, len(data))
	if err := m.ReadAtEtype(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("default-hint read-back differs")
	}
}

// TestInterleavedViewPartialTiles holds the flattened fallbacks to the
// datatype path on a filetype whose data order is not ascending offset
// order: a struct whose second field sits inside the first's holes.
// A partial-tile write through the view must land where a whole-tile
// datatype read of the same view finds it, and disturb nothing else.
func TestInterleavedViewPartialTiles(t *testing.T) {
	_, fs, _ := newFile(t, mpiio.Hints{})
	// Data order [0,8) [24,8) [48,8) [72,8) [8,16): 48 data bytes in an
	// 80-byte extent.
	filetype, err := datatype.Struct(
		datatype.Field{Displ: 0, Type: datatype.Vector(4, 8, 24, datatype.Bytes(1))},
		datatype.Field{Displ: 8, Type: datatype.Bytes(16)},
	)
	if err != nil {
		t.Fatal(err)
	}
	const (
		disp  = 100
		tiles = 5
		off   = 7   // mid-tile start
		n     = 154 // ends mid-tile three tiles on
	)
	whole := tiles * filetype.Size()
	for _, method := range []client.AccessMethod{client.AccessList, client.AccessSieve, client.AccessMultiple, client.AccessHybrid} {
		t.Run(method.String(), func(t *testing.T) {
			f, err := fs.Create("interleaved-"+method.String(), striping.Config{PCount: 4, StripeSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			open := func(m client.AccessMethod) *mpiio.File {
				v := mpiio.Open(f, mpiio.Hints{Method: m, CoalesceGapBytes: 16})
				if err := v.SetView(disp, datatype.Bytes(1), filetype); err != nil {
					t.Fatal(err)
				}
				return v
			}
			dt, flat := open(client.AccessDatatype), open(method)

			want := make([]byte, whole)
			rand.New(rand.NewSource(31)).Read(want)
			if err := dt.WriteAtEtype(want, 0); err != nil {
				t.Fatal(err)
			}
			part := make([]byte, n)
			rand.New(rand.NewSource(32)).Read(part)
			before := fs.Counters().Snapshot()
			if err := flat.WriteAtEtype(part, off); err != nil {
				t.Fatal(err)
			}
			if d := fs.Counters().Snapshot().Sub(before); d.Datatype.Requests != 0 {
				t.Fatalf("partial-tile %v write took the datatype path: %+v", method, d.Datatype)
			}
			copy(want[off:], part)

			got := make([]byte, whole)
			if err := dt.ReadAtEtype(got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("whole-tile datatype read differs from the %v write at view byte %d", method, firstDiff(got, want))
			}
			// The flattened read of the same partial range agrees too.
			back := make([]byte, n)
			if err := flat.ReadAtEtype(back, off); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, part) {
				t.Fatalf("%v read-back differs at byte %d", method, firstDiff(back, part))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
