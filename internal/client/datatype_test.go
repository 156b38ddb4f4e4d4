package client_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/patterns"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
)

// Tests for the datatype I/O datapath (DESIGN.md §6): the pattern
// crosses the wire as an encoded constructor tree, the daemons
// evaluate their own shares, and the client windows + pipelines the
// transfer. The equivalence contract is the acceptance bar: datatype
// read/write of any pattern must be byte-identical to list I/O of the
// flattened pattern.

// fragmentedMem splits [0, total) into memory regions of the given
// size with gaps, exercising the StreamMap scatter/gather (the arena
// is sized to hold the gaps).
func fragmentedMem(total, piece, gap int64) (ioseg.List, int64) {
	var mem ioseg.List
	var off int64
	for covered := int64(0); covered < total; covered += piece {
		n := piece
		if r := total - covered; r < n {
			n = r
		}
		mem = append(mem, ioseg.Segment{Offset: off, Length: n})
		off += n + gap
	}
	return mem, off
}

// shapelessMem splits [0, total) into memory regions no two neighbours
// of which share a length, at varying gaps: the list the stream map can
// fold nothing of and keeps as listed regions.
func shapelessMem(total int64) (ioseg.List, int64) {
	var mem ioseg.List
	var off int64
	for i, covered := int64(0), int64(0); covered < total; i++ {
		n := min(1+(i*5)%11+i%2, total-covered)
		mem = append(mem, ioseg.Segment{Offset: off, Length: n})
		off += n + i%4
		covered += n
	}
	return mem, off
}

// datatypeCase is one row of the datatype/list equivalence matrix. A nil
// mem selects fragmentedMem over the pattern's size.
type datatypeCase struct {
	typ      datatype.Type
	base     int64
	count    int64
	mem      ioseg.List
	arenaLen int64
}

// flashCase is one rank's FLASH checkpoint (paper §4.3) the way the
// benchmark harness drives it: element-major memory with guard cells —
// 8-byte pieces that the stream map folds into strided runs — onto a
// variable-major file where the rank's blocks of a variable are one
// dense run.
func flashCase(pat *patterns.Flash, rank int) datatypeCase {
	run := int64(pat.Blocks*pat.Elems*pat.Elems*pat.Elems) * 8
	return datatypeCase{
		typ:      datatype.Vector(int64(pat.Vars), run, int64(pat.NumRanks)*run, datatype.Bytes(1)),
		base:     int64(rank) * run,
		count:    1,
		mem:      patterns.MemList(pat, rank),
		arenaLen: pat.ArenaBytes(rank),
	}
}

// datatypeCases are the pattern shapes: vector, indexed, 2-D subarray,
// a nested constructor for depth, a struct whose fields interleave, and
// the FLASH shape at sizes that are no power of two, so that window
// cuts fall inside rows and runs.
func datatypeCases(t *testing.T) map[string]datatypeCase {
	t.Helper()
	idx, err := datatype.Indexed(
		[]int64{3, 1, 5, 2, 4},
		[]int64{0, 7, 11, 20, 26},
		datatype.Double(),
	)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := datatype.Subarray(
		[]int64{24, 40}, // full 2-D array
		[]int64{9, 13},  // sub-block
		[]int64{5, 17},  // start corner
		datatype.Bytes(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved fields: the second field's blocks sit in the first's
	// holes, so data order is not ascending offset order.
	interleaved, err := datatype.Struct(
		datatype.Field{Displ: 0, Type: datatype.Vector(20, 8, 32, datatype.Bytes(1))},
		datatype.Field{Displ: 8, Type: datatype.Vector(20, 8, 32, datatype.Bytes(1))},
	)
	if err != nil {
		t.Fatal(err)
	}
	vec := datatype.Vector(37, 24, 100, datatype.Bytes(1))
	shapeless, shapelessLen := shapelessMem(3 * vec.Size()) // 400-odd regions: several listed runs
	return map[string]datatypeCase{
		"vector":      {typ: vec, base: 40, count: 3},
		"shapeless":   {typ: vec, base: 40, count: 3, mem: shapeless, arenaLen: shapelessLen},
		"indexed":     {typ: idx, base: 128, count: 5},
		"subarray":    {typ: sub, base: 64, count: 2},
		"nested":      {typ: datatype.Contiguous(4, datatype.Vector(6, 2, 5, datatype.Bytes(9))), base: 10, count: 7},
		"interleaved": {typ: interleaved, base: 24, count: 3},
		"flash-3-1-5": flashCase(&patterns.Flash{NumRanks: 2, Blocks: 3, Elems: 3, Guard: 1, Vars: 5}, 1),
		"flash-5-2-7": flashCase(&patterns.Flash{NumRanks: 3, Blocks: 2, Elems: 5, Guard: 2, Vars: 7}, 2),
		"flash-7-0-3": flashCase(&patterns.Flash{NumRanks: 1, Blocks: 1, Elems: 7, Guard: 0, Vars: 3}, 0),
	}
}

func TestDatatypeEquivalenceWithList(t *testing.T) {
	_, fs := startCluster(t, 4)
	cfg := striping.Config{PCount: 4, StripeSize: 256}
	for name, tc := range datatypeCases(t) {
		t.Run(name, func(t *testing.T) {
			dataLen, _, err := datatype.CheckPattern(tc.typ, tc.base, tc.count)
			if err != nil {
				t.Fatal(err)
			}
			// The list-I/O reference: the repeated pattern's raw regions
			// in data order, the order the memory stream fills them.
			var file ioseg.List
			ext := tc.typ.Extent()
			for i := int64(0); i < tc.count; i++ {
				file = tc.typ.AppendRegions(file, tc.base+i*ext)
			}

			mem, arenaLen := tc.mem, tc.arenaLen
			if mem == nil {
				mem, arenaLen = fragmentedMem(dataLen, 47, 9)
			}
			arena := make([]byte, arenaLen)
			rand.New(rand.NewSource(11)).Read(arena)

			// Small windows + pipelining so one transfer exercises many
			// concurrent in-flight requests (meaningful under -race).
			opts := client.DatatypeOptions{WindowBytes: 96}

			fDT, err := fs.Create("dt-"+name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(fDT, client.Request{Write: true, Arena: arena, Mem: mem, Type: tc.typ, Base: tc.base, Count: tc.count, Method: client.AccessDatatype, Datatype: opts, Window: 4}); err != nil {
				t.Fatal(err)
			}
			fDT.Close()
			fList, err := fs.Create("list-"+name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(fList, client.Request{Write: true, Arena: arena, Mem: mem, File: file, Method: client.AccessList}); err != nil {
				t.Fatal(err)
			}
			fList.Close()

			// The same Type layout under AccessList: the client collects
			// the walk instead of shipping the type.
			fWalk, err := fs.Create("walk-"+name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(fWalk, client.Request{Write: true, Arena: arena, Mem: mem, Type: tc.typ, Base: tc.base, Count: tc.count, Method: client.AccessList}); err != nil {
				t.Fatal(err)
			}
			fWalk.Close()

			img := fullImage(t, fs, "dt-"+name)
			if !bytes.Equal(img, fullImage(t, fs, "list-"+name)) {
				t.Fatal("datatype and list writes left different images")
			}
			if !bytes.Equal(img, fullImage(t, fs, "walk-"+name)) {
				t.Fatal("datatype and flattened-Type list writes left different images")
			}
			// Both paths gather through the stream map; hold the image to
			// the flat-list reference gather as well.
			stream, err := memio.Gather(arena, mem)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range file {
				if !bytes.Equal(img[s.Offset:s.End()], stream[:s.Length]) {
					t.Fatalf("file region %v differs from the reference stream", s)
				}
				stream = stream[s.Length:]
			}

			// Read back through both paths from the list-written file.
			fr, err := fs.Open("list-" + name)
			if err != nil {
				t.Fatal(err)
			}
			defer fr.Close()
			gotDT := make([]byte, arenaLen)
			if err := run(fr, client.Request{Arena: gotDT, Mem: mem, Type: tc.typ, Base: tc.base, Count: tc.count, Method: client.AccessDatatype, Datatype: opts, Window: 4}); err != nil {
				t.Fatal(err)
			}
			gotList := make([]byte, arenaLen)
			if err := run(fr, client.Request{Arena: gotList, Mem: mem, File: file, Method: client.AccessList}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotDT, gotList) {
				t.Fatal("datatype and list reads differ")
			}
			for _, s := range mem {
				if !bytes.Equal(gotDT[s.Offset:s.End()], arena[s.Offset:s.End()]) {
					t.Fatalf("read-back differs from source in region %v", s)
				}
			}
		})
	}
}

// TestDatatypeWindowSerializedEquivalence pins the window discipline:
// serialized (Window=1) and deeply pipelined transfers with tiny
// window payloads must be byte-identical.
func TestDatatypeWindowSerializedEquivalence(t *testing.T) {
	_, fs := startCluster(t, 3)
	typ := datatype.Vector(500, 16, 48, datatype.Bytes(1))
	const base = 8
	dataLen, _, err := datatype.CheckPattern(typ, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]byte, dataLen)
	rand.New(rand.NewSource(5)).Read(arena)
	mem := ioseg.List{{Offset: 0, Length: dataLen}}
	for _, tc := range []struct {
		winBytes int64
		window   int
	}{
		{64, 1},
		{64, 8},
		{0, 0},
	} {
		name := fmt.Sprintf("win%d-depth%d", tc.winBytes, tc.window)
		f, err := fs.Create(name, striping.Config{PCount: 3, StripeSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		req := client.Request{
			Write: true, Arena: arena, Mem: mem, Type: typ, Base: base,
			Method: client.AccessDatatype, Datatype: client.DatatypeOptions{WindowBytes: tc.winBytes}, Window: tc.window,
		}
		if err := run(f, req); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		got := make([]byte, dataLen)
		req.Write, req.Arena = false, got
		if err := run(f, req); err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if !bytes.Equal(got, arena) {
			t.Fatalf("%s round trip differs", name)
		}
		f.Close()
	}
	ref := fullImage(t, fs, "win64-depth1")
	for _, name := range []string{"win64-depth8", "win0-depth0"} {
		if !bytes.Equal(ref, fullImage(t, fs, name)) {
			t.Fatalf("image of %s differs from serialized reference", name)
		}
	}

	// FLASH memory, 24 variables interleaved per cell, moved by the stream
	// map's pieces calls: datatype windows that cut elements (1004 bytes),
	// serialized and pipelined, and the list path's scatter/gather arm.
	// Every run must leave the image Multiple I/O leaves and read back
	// what it reads. Pieces of 3000 bytes outgrow the map's slice of a
	// piece, so cursors resume mid-row and mid-run.
	fc := flashCase(&patterns.Flash{NumRanks: 2, Blocks: 3, Elems: 5, Guard: 1, Vars: 24}, 1)
	var file ioseg.List
	file = fc.typ.AppendRegions(file, fc.base).Normalize()
	arena = make([]byte, fc.arenaLen)
	rand.New(rand.NewSource(6)).Read(arena)
	cfg := striping.Config{PCount: 3, StripeSize: 4096}
	multiple := client.Request{Write: true, Arena: arena, Mem: fc.mem, File: file, Method: client.AccessMultiple}
	for _, tc := range []struct {
		name string
		req  client.Request
	}{
		{"flash-multiple", multiple},
		{"flash-win1004-depth1", client.Request{Type: fc.typ, Base: fc.base, Method: client.AccessDatatype, Datatype: client.DatatypeOptions{WindowBytes: 1004}, Window: 1}},
		{"flash-win1004-depth4", client.Request{Type: fc.typ, Base: fc.base, Method: client.AccessDatatype, Datatype: client.DatatypeOptions{WindowBytes: 1004}, Window: 4}},
		{"flash-win0-depth4", client.Request{Type: fc.typ, Base: fc.base, Method: client.AccessDatatype, Window: 4}},
		{"flash-list-depth4", client.Request{File: file, Method: client.AccessList, Window: 4}},
	} {
		f, err := fs.Create(tc.name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		req := tc.req
		req.Write, req.Arena, req.Mem = true, arena, fc.mem
		if err := run(f, req); err != nil {
			t.Fatalf("%s write: %v", tc.name, err)
		}
		if img := fullImage(t, fs, tc.name); !bytes.Equal(img, fullImage(t, fs, "flash-multiple")) {
			t.Fatalf("%s leaves an image Multiple does not", tc.name)
		}
		// Read the file back, against Multiple's read of it.
		got, want := make([]byte, len(arena)), make([]byte, len(arena))
		req.Write, req.Arena = false, got
		if err := run(f, req); err != nil {
			t.Fatalf("%s read: %v", tc.name, err)
		}
		read := multiple
		read.Write, read.Arena = false, want
		if err := run(f, read); err != nil {
			t.Fatalf("%s Multiple read: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s reads what Multiple does not", tc.name)
		}
		f.Close()
	}
}

// TestDatatypeRequestCountIndependentOfFragments is the acceptance
// criterion: a FLASH-like vector pattern with >=100k contiguous
// fragments completes in O(transfer size / window) wire requests per
// server — fragment count must not appear in the arithmetic — and
// matches list I/O byte-for-byte.
func TestDatatypeRequestCountIndependentOfFragments(t *testing.T) {
	if testing.Short() {
		t.Skip("120k-fragment pattern")
	}
	_, fs := startCluster(t, 4)
	// 120,000 fragments of 8 bytes every 32: the paper's FLASH shape
	// (8-byte doubles scattered in the file).
	const (
		frags    = 120_000
		fragLen  = 8
		stride   = 32
		winBytes = 64 << 10
	)
	typ := datatype.Vector(frags, fragLen, stride, datatype.Bytes(1))
	dataLen := int64(frags * fragLen)
	arena := make([]byte, dataLen)
	rand.New(rand.NewSource(9)).Read(arena)
	mem := ioseg.List{{Offset: 0, Length: dataLen}}
	opts := client.DatatypeOptions{WindowBytes: winBytes}

	f, err := fs.Create("flash.dat", striping.Config{PCount: 4, StripeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Counters().Snapshot()
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, Type: typ, Method: client.AccessDatatype, Datatype: opts}); err != nil {
		t.Fatal(err)
	}
	mid := fs.Counters().Snapshot()
	got := make([]byte, dataLen)
	if err := run(f, client.Request{Arena: got, Mem: mem, Type: typ, Method: client.AccessDatatype, Datatype: opts}); err != nil {
		t.Fatal(err)
	}
	after := fs.Counters().Snapshot()
	if !bytes.Equal(got, arena) {
		t.Fatal("datatype round trip differs")
	}

	// O(transfer/window): each server owns dataLen/4 bytes, so at most
	// ceil(dataLen/4/winBytes)+1 requests per server per direction.
	perServer := (dataLen/4+winBytes-1)/winBytes + 1
	bound := 4 * perServer
	if w := mid.Sub(before).Requests; w > bound {
		t.Fatalf("write used %d requests, want <= %d (fragment-independent)", w, bound)
	}
	if r := after.Sub(mid).Requests; r > bound {
		t.Fatalf("read used %d requests, want <= %d (fragment-independent)", r, bound)
	}
	// The same transfer via list I/O would need frags/64 requests;
	// make the contrast explicit.
	if listReqs := int64(frags / 64); bound*10 > listReqs {
		t.Fatalf("test misconfigured: datatype bound %d not clearly below list's %d", bound, listReqs)
	}

	// Byte-identical to list I/O of the flattened pattern.
	flat := datatype.Flatten(typ, 0)
	gotList := make([]byte, dataLen)
	if err := run(f, client.Request{Arena: gotList, Mem: mem, File: flat, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotList, arena) {
		t.Fatal("list read of flattened pattern differs")
	}
}

// TestDatatypeFaultInjectionRetries drives the datatype path through
// dropped connections with retries enabled: transfers must complete
// and stay byte-identical to list I/O.
func TestDatatypeFaultInjectionRetries(t *testing.T) {
	c, err := cluster.Start(cluster.Options{NumIOD: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.SetRetries(3)

	typ := datatype.Vector(300, 16, 40, datatype.Bytes(1))
	dataLen, _, err := datatype.CheckPattern(typ, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]byte, dataLen)
	rand.New(rand.NewSource(77)).Read(arena)
	mem := ioseg.List{{Offset: 0, Length: dataLen}}
	opts := client.DatatypeOptions{WindowBytes: 256}

	f, err := fs.Create("faulty.dat", striping.Config{PCount: 3, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	var faults pvfsnet.Faults
	c.IODs[1].Net().SetFaults(&faults)

	faults.DropConnections(2)
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, Type: typ, Count: 2, Method: client.AccessDatatype, Datatype: opts, Window: 4}); err != nil {
		t.Fatalf("write under drops: %v", err)
	}
	faults.DropConnections(2)
	got := make([]byte, dataLen)
	if err := run(f, client.Request{Arena: got, Mem: mem, Type: typ, Count: 2, Method: client.AccessDatatype, Datatype: opts, Window: 4}); err != nil {
		t.Fatalf("read under drops: %v", err)
	}
	if !bytes.Equal(got, arena) {
		t.Fatal("round trip under fault injection differs")
	}
	if fs.Counters().Retries.Load() == 0 {
		t.Fatal("no retries recorded; fault injection did not engage")
	}

	// Reference: the image matches a clean list write of the same data.
	var file ioseg.List
	ext := typ.Extent()
	for i := int64(0); i < 2; i++ {
		file = typ.AppendRegions(file, i*ext)
	}
	fRef, err := fs.Create("ref.dat", striping.Config{PCount: 3, StripeSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(fRef, client.Request{Write: true, Arena: arena, Mem: mem, File: file.Normalize(), Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	fRef.Close()
	if !bytes.Equal(fullImage(t, fs, "faulty.dat"), fullImage(t, fs, "ref.dat")) {
		t.Fatal("faulted datatype image differs from clean list image")
	}
}

// TestDatatypePathCounters checks the per-path accounting: datatype
// traffic — explicit or auto-routed, a strided vector included — lands
// on the Datatype counters and does not pollute the list path.
func TestDatatypePathCounters(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("ctr.dat", striping.Config{PCount: 2, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	typ := datatype.Vector(16, 8, 24, datatype.Bytes(1))
	arena := make([]byte, 128)
	mem := ioseg.List{{Offset: 0, Length: 128}}

	before := fs.Counters().Snapshot()
	if err := run(f, client.Request{Write: true, Arena: arena, Mem: mem, Type: typ, Method: client.AccessDatatype}); err != nil {
		t.Fatal(err)
	}
	d := fs.Counters().Snapshot().Sub(before)
	if d.Datatype.Requests == 0 || d.Datatype.Bytes != 128 {
		t.Fatalf("datatype path counters: %+v", d.Datatype)
	}
	if d.List.Requests != 0 {
		t.Fatalf("cross-path pollution: list %+v", d.List)
	}

	before = fs.Counters().Snapshot()
	res, err := f.Run(context.Background(), client.Request{Write: true, Arena: arena, Type: typ, Base: 16})
	if err != nil {
		t.Fatal(err)
	}
	d = fs.Counters().Snapshot().Sub(before)
	if res.Method != client.AccessDatatype || d.Datatype.Requests == 0 || d.Datatype.Bytes != 128 {
		t.Fatalf("auto-routed vector: method %v, datatype path counters %+v", res.Method, d.Datatype)
	}
	if d.List.Requests != 0 || d.Multiple.Requests != 0 {
		t.Fatalf("auto-routed vector polluted list %+v / multiple %+v", d.List, d.Multiple)
	}
}

// TestDatatypeRejectsBadArguments pins client-side validation.
func TestDatatypeRejectsBadArguments(t *testing.T) {
	_, fs := startCluster(t, 2)
	f, err := fs.Create("bad.dat", striping.Config{PCount: 2, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	typ := datatype.Vector(4, 8, 16, datatype.Bytes(1))
	arena := make([]byte, 32)
	if err := run(f, client.Request{Arena: arena, Mem: ioseg.List{{Offset: 0, Length: 16}}, Type: typ, Method: client.AccessDatatype}); err == nil {
		t.Fatal("memory/pattern length mismatch accepted")
	}
	if err := run(f, client.Request{Arena: arena, Mem: ioseg.List{{Offset: 0, Length: 32}}, Type: typ, Base: -8, Method: client.AccessDatatype}); err == nil {
		t.Fatal("negative base accepted")
	}
	if err := run(f, client.Request{Arena: arena[:16], Mem: ioseg.List{{Offset: 0, Length: 32}}, Type: typ, Method: client.AccessDatatype}); err == nil {
		t.Fatal("memory region outside arena accepted")
	}
	if err := run(f, client.Request{Arena: arena, Mem: ioseg.List{{Offset: 0, Length: 32}}, Type: typ, Count: -1, Method: client.AccessDatatype}); err == nil {
		t.Fatal("negative count accepted")
	}
}

// TestFlattenedTypeMergesRepetitions: the flattened methods enumerate a
// Type layout as the walk does, so repetitions of a dense type that
// touch end to end travel as one region, not one per repetition.
func TestFlattenedTypeMergesRepetitions(t *testing.T) {
	c, fs := startCluster(t, 1)
	f, err := fs.Create("merge.dat", striping.Config{PCount: 1, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	arena := []byte("abcdefghijkl")
	before := c.IODs[0].Stats()
	if err := run(f, client.Request{Write: true, Arena: arena, Type: datatype.Bytes(4), Count: 3, Method: client.AccessList}); err != nil {
		t.Fatal(err)
	}
	after := c.IODs[0].Stats()
	if lr, r := after.ListRequests-before.ListRequests, after.Regions-before.Regions; lr != 1 || r != 1 {
		t.Fatalf("Bytes(4) x 3 under AccessList: %d list requests carrying %d regions, want 1 and 1", lr, r)
	}
	if img := fullImage(t, fs, "merge.dat"); !bytes.Equal(img, arena) {
		t.Fatalf("image %q, want %q", img, arena)
	}
}
