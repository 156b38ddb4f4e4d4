package simcluster

import (
	"testing"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
)

func testParams(servers int) Params {
	p := ChibaCity()
	p.Servers = servers
	p.Striping = striping.Config{PCount: servers, StripeSize: striping.DefaultStripeSize}
	return p
}

func TestFlashRequestArithmetic(t *testing.T) {
	// §4.3.1's request counts per process, reproduced exactly.
	p := testParams(8)
	flash := patterns.DefaultFlash(4)

	// Multiple I/O: 80*8*8*8*24 = 983,040 requests per process.
	c := CountWorkload(BuildWorkload(p, flash, client.Request{Write: true, Method: client.AccessMultiple}))
	if perProc := c.Requests / 4; perProc != 983040 {
		t.Fatalf("multiple I/O = %d req/proc, want 983,040", perProc)
	}

	// List I/O at file granularity: (80 blocks * 24 vars)/64 = 30
	// list requests per process.
	c = CountWorkload(BuildWorkload(p, flash, client.Request{Write: true, Method: client.AccessList, List: client.ListOptions{Granularity: client.GranularityFileRegions}}))
	if perProc := c.Batches / 4; perProc != 30 {
		t.Fatalf("list I/O = %d batches/proc, want 30", perProc)
	}
	if c.Regions != 4*1920 {
		t.Fatalf("regions = %d, want %d", c.Regions, 4*1920)
	}
	if c.Payload != 4*7864320 {
		t.Fatalf("payload = %d, want %d", c.Payload, 4*7864320)
	}

	// List I/O at intersect granularity: 983,040/64 = 15,360 per proc.
	c = CountWorkload(BuildWorkload(p, flash, client.Request{Write: true, Method: client.AccessList, List: client.ListOptions{Granularity: client.GranularityIntersect}}))
	if perProc := c.Batches / 4; perProc != 15360 {
		t.Fatalf("intersect list I/O = %d batches/proc, want 15,360", perProc)
	}

	// Data sieving: with a 32 MB buffer and a 4-rank file (30 MB), one
	// window per process: read+write = one batch each.
	c = CountWorkload(BuildWorkload(p, flash, client.Request{Write: true, Method: client.AccessSieve}))
	if perProc := c.Batches / 4; perProc != 2 {
		t.Fatalf("sieve = %d batches/proc, want 2 (read + write-back)", perProc)
	}
}

func TestTiledRequestArithmetic(t *testing.T) {
	// §4.4.1: multiple I/O = 768 requests, list I/O = 768/64 = 12.
	p := testParams(8)
	tiled := patterns.DefaultTiled()

	c := CountWorkload(BuildWorkload(p, tiled, client.Request{Method: client.AccessMultiple}))
	if perRank := c.Batches / int64(tiled.Ranks()); perRank != 768 {
		t.Fatalf("multiple I/O = %d calls/rank, want 768", perRank)
	}

	c = CountWorkload(BuildWorkload(p, tiled, client.Request{Method: client.AccessList}))
	if perRank := c.Batches / int64(tiled.Ranks()); perRank != 12 {
		t.Fatalf("list I/O = %d calls/rank, want 12", perRank)
	}
	if c.Regions/int64(tiled.Ranks()) < 768 {
		t.Fatalf("regions/rank = %d, want >= 768", c.Regions/int64(tiled.Ranks()))
	}
}

func TestCyclicListBatchingMath(t *testing.T) {
	// 8192 accesses over 8 ranks on 1 GiB: blocks of exactly one
	// 16 KiB stripe unit, so rank r's blocks all live on server r.
	// 8192/64 = 128 batches per rank, one message each.
	p := testParams(8)
	cyc, err := patterns.NewCyclic1D(8, 8192, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if cyc.BlockSize() != 16384 {
		t.Fatalf("block size = %d", cyc.BlockSize())
	}
	c := CountWorkload(BuildWorkload(p, cyc, client.Request{Method: client.AccessList}))
	if got, want := c.Regions, int64(8*8192); got != want {
		t.Fatalf("regions = %d, want %d", got, want)
	}
	if c.Payload != 1<<30 {
		t.Fatalf("payload = %d, want 1 GiB", c.Payload)
	}
	if got, want := c.Batches, int64(8*128); got != want {
		t.Fatalf("batches = %d, want %d", got, want)
	}
	if got, want := c.Requests, int64(8*128); got != want {
		t.Fatalf("requests = %d, want %d (single server per batch)", got, want)
	}
}

func TestRunSmallCyclicCompletes(t *testing.T) {
	p := testParams(8)
	cyc, err := patterns.NewCyclic1D(4, 1000, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for r := 0; r < 4; r++ {
		want += cyc.TotalBytes(r)
	}
	for _, m := range []client.AccessMethod{
		client.AccessMultiple, client.AccessSieve, client.AccessList, client.AccessDatatype, client.AccessHybrid,
	} {
		res := Run(BuildWorkload(p, cyc, client.Request{Method: m}))
		if res.Duration <= 0 {
			t.Fatalf("%v: duration = %v", m, res.Duration)
		}
		if res.BytesMoved < want {
			t.Fatalf("%v: bytes moved = %d, want >= %d", m, res.BytesMoved, want)
		}
		if res.Requests <= 0 {
			t.Fatalf("%v: no requests", m)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	p := testParams(8)
	cyc, _ := patterns.NewCyclic1D(4, 2000, 64<<20)
	a := Run(BuildWorkload(p, cyc, client.Request{Write: true, Method: client.AccessList}))
	b := Run(BuildWorkload(p, cyc, client.Request{Write: true, Method: client.AccessList}))
	if a.Duration != b.Duration || a.Requests != b.Requests || a.Events != b.Events {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMoreAccessesTakeLonger(t *testing.T) {
	// Monotonicity once request overhead dominates: fragmenting the
	// same bytes further slows multiple and list I/O (Figs. 9-10).
	p := testParams(8)
	cases := map[client.AccessMethod][]int{
		client.AccessMultiple: {2000, 8000, 32000},
		client.AccessList:     {8000, 32000, 128000},
	}
	for m, accessSteps := range cases {
		var prev time.Duration
		for _, accesses := range accessSteps {
			cyc, err := patterns.NewCyclic1D(4, accesses, 32<<20)
			if err != nil {
				t.Fatal(err)
			}
			res := Run(BuildWorkload(p, cyc, client.Request{Method: m}))
			if res.Duration <= prev {
				t.Fatalf("%v: %d accesses took %v, not more than %v", m, accesses, res.Duration, prev)
			}
			prev = res.Duration
		}
	}
}

func TestSieveFlatInAccesses(t *testing.T) {
	// Data sieving moves the same extent regardless of fragmentation:
	// its time must stay nearly constant as accesses grow (Fig. 9).
	p := testParams(8)
	var times []time.Duration
	for _, accesses := range []int{1000, 8000, 64000} {
		cyc, err := patterns.NewCyclic1D(8, accesses, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		res := Run(BuildWorkload(p, cyc, client.Request{Method: client.AccessSieve}))
		times = append(times, res.Duration)
	}
	lo, hi := times[0], times[0]
	for _, d := range times {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if float64(hi) > 1.05*float64(lo) {
		t.Fatalf("sieve not flat: %v", times)
	}
}

func TestSieveDoublesWithClients(t *testing.T) {
	// §4.2.2: doubling clients doubles sieving time (each client reads
	// the whole extent; useful fraction halves).
	p := testParams(8)
	run := func(clients int) time.Duration {
		cyc, err := patterns.NewCyclic1D(clients, 4000, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return Run(BuildWorkload(p, cyc, client.Request{Method: client.AccessSieve})).Duration
	}
	t8, t16 := run(8), run(16)
	ratio := float64(t16) / float64(t8)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("sieve client scaling = %.2f, want ~2 (t8=%v t16=%v)", ratio, t8, t16)
	}
}

func TestListBeatsMultipleRead(t *testing.T) {
	// The headline claim at small scale: list I/O beats multiple I/O
	// by roughly the batching factor on fragmented reads.
	p := testParams(8)
	cyc, err := patterns.NewCyclic1D(4, 20000, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	multi := Run(BuildWorkload(p, cyc, client.Request{Method: client.AccessMultiple}))
	list := Run(BuildWorkload(p, cyc, client.Request{Method: client.AccessList}))
	if ratio := float64(multi.Duration) / float64(list.Duration); ratio < 5 {
		t.Fatalf("multiple/list = %.1f, want >= 5 (multi=%v list=%v)", ratio, multi.Duration, list.Duration)
	}
}

func TestWriteGapTwoOrders(t *testing.T) {
	// Figure 10's claim: multiple I/O writes sit ~two orders of
	// magnitude above list I/O writes once accesses are sub-MSS
	// (100k accesses per client on 1 GiB / 8 clients = 1342 B each).
	p := testParams(8)
	cyc, err := patterns.NewCyclic1D(8, 100000, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	multi := Run(BuildWorkload(p, cyc, client.Request{Write: true, Method: client.AccessMultiple}))
	list := Run(BuildWorkload(p, cyc, client.Request{Write: true, Method: client.AccessList}))
	ratio := float64(multi.Duration) / float64(list.Duration)
	if ratio < 30 || ratio > 300 {
		t.Fatalf("multiple/list write gap = %.0f, want ~10^2 (multi=%v list=%v)",
			ratio, multi.Duration, list.Duration)
	}
}

func TestSerializedSieveWritesScaleQuadratically(t *testing.T) {
	// Serialized read-modify-write over a span proportional to rank
	// count: doubling ranks should roughly quadruple total time.
	p := testParams(8)
	run := func(ranks int) time.Duration {
		flash := patterns.DefaultFlash(ranks)
		return Run(BuildWorkload(p, flash, client.Request{Write: true, Method: client.AccessSieve})).Duration
	}
	t2, t4 := run(2), run(4)
	ratio := float64(t4) / float64(t2)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("sieve write scaling = %.2f, want ~4 (t2=%v t4=%v)", ratio, t2, t4)
	}
}

func TestStridedBeatsListWhenOverheadBound(t *testing.T) {
	// The §5 extension: descriptor requests remove the linear request
	// scaling, so datatype I/O wins once request overhead (not bandwidth)
	// dominates: 200k accesses of ~80 bytes.
	p := testParams(8)
	cyc, err := patterns.NewCyclic1D(4, 200000, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	list := Run(BuildWorkload(p, cyc, client.Request{Method: client.AccessList}))
	str := Run(BuildWorkload(p, cyc, client.Request{Method: client.AccessDatatype}))
	if float64(str.Duration) > 0.5*float64(list.Duration) {
		t.Fatalf("datatype (%v) not clearly faster than list (%v)", str.Duration, list.Duration)
	}
	if str.Requests*100 > list.Requests {
		t.Fatalf("datatype requests = %d, list = %d", str.Requests, list.Requests)
	}
}

func TestCoalesceGapReducesRequests(t *testing.T) {
	// Hybrid list+sieve: coalescing nearby regions cuts request count
	// at the cost of extra payload.
	p := testParams(8)
	cyc, err := patterns.NewCyclic1D(8, 8000, 16<<20) // 256 B blocks, 1792 B gaps
	if err != nil {
		t.Fatal(err)
	}
	plain := CountWorkload(BuildWorkload(p, cyc, client.Request{Method: client.AccessList}))
	hybrid := CountWorkload(BuildWorkload(p, cyc, client.Request{Method: client.AccessHybrid, CoalesceGap: 4096}))
	if hybrid.Requests >= plain.Requests {
		t.Fatalf("coalescing did not reduce requests: %d vs %d", hybrid.Requests, plain.Requests)
	}
	if hybrid.Payload <= plain.Payload {
		t.Fatalf("coalescing should read extra bytes: %d vs %d", hybrid.Payload, plain.Payload)
	}
}

func TestWithOpenClose(t *testing.T) {
	p := testParams(8)
	tiled := patterns.DefaultTiled()
	plain := Run(BuildWorkload(p, tiled, client.Request{Method: client.AccessList}))
	wrapped := Run(WithOpenClose(BuildWorkload(p, tiled, client.Request{Method: client.AccessList})))
	if wrapped.Duration <= plain.Duration {
		t.Fatalf("open/close added no time: %v vs %v", wrapped.Duration, plain.Duration)
	}
	if wrapped.Requests != plain.Requests+2*int64(tiled.Ranks()) {
		t.Fatalf("requests = %d, want %d", wrapped.Requests, plain.Requests+12)
	}
}

func TestServerBusyConservation(t *testing.T) {
	// Every request's service time must land in some server's busy
	// accounting; busy time can never exceed servers * duration.
	p := testParams(4)
	cyc, _ := patterns.NewCyclic1D(4, 1000, 16<<20)
	res := Run(BuildWorkload(p, cyc, client.Request{Method: client.AccessList}))
	var busy time.Duration
	for _, b := range res.ServerBusy {
		busy += b
	}
	if busy <= 0 {
		t.Fatal("no server busy time recorded")
	}
	if busy > res.Duration*time.Duration(p.Servers) {
		t.Fatalf("busy %v exceeds capacity %v", busy, res.Duration*time.Duration(p.Servers))
	}
}

func TestIntersectIterMatchesMemPieces(t *testing.T) {
	flash := &patterns.Flash{NumRanks: 2, Blocks: 3, Elems: 4, Guard: 1, Vars: 5}
	it := intersectIter(flash, 1)
	count := 0
	var total int64
	for {
		s, ok := it()
		if !ok {
			break
		}
		if s.Length != 8 {
			t.Fatalf("piece %d length = %d, want 8", count, s.Length)
		}
		count++
		total += s.Length
	}
	if count != flash.MemPieces(1) {
		t.Fatalf("pieces = %d, want %d", count, flash.MemPieces(1))
	}
	if total != flash.TotalBytes(1) {
		t.Fatalf("bytes = %d, want %d", total, flash.TotalBytes(1))
	}
}

func TestCoalesceIter(t *testing.T) {
	segs := ioseg.List{
		{Offset: 0, Length: 10}, {Offset: 15, Length: 5},
		{Offset: 100, Length: 10}, {Offset: 111, Length: 9},
	}
	i := 0
	inner := func() (ioseg.Segment, bool) {
		if i >= len(segs) {
			return ioseg.Segment{}, false
		}
		s := segs[i]
		i++
		return s, true
	}
	it := coalesceIter(inner, 5)
	var out ioseg.List
	for {
		s, ok := it()
		if !ok {
			break
		}
		out = append(out, s)
	}
	want := ioseg.List{{Offset: 0, Length: 20}, {Offset: 100, Length: 20}}
	if !out.Equal(want) {
		t.Fatalf("coalesced = %v, want %v", out, want)
	}
}
