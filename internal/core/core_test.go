package core_test

import (
	"sync"
	"testing"

	"pvfs/internal/bench"
	"pvfs/internal/client"
	"pvfs/internal/core"
	"pvfs/internal/patterns"
	"pvfs/internal/simcluster"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// paperCounts is bench.RequestCounts keyed "workload/method": the one
// table of the paper's per-process request numbers (§4.3.1, §4.4.1).
var paperCounts = sync.OnceValue(func() map[string]int64 {
	m := map[string]int64{}
	for _, r := range bench.RequestCounts() {
		m[r.Workload+"/"+r.Method] = r.PerProc
	}
	return m
})

// checkPaperCounts compares closed forms, keyed as in paperCounts,
// against the table.
func checkPaperCounts(t *testing.T, got map[string]int64) {
	t.Helper()
	want := paperCounts()
	for k, v := range got {
		if w, ok := want[k]; !ok || v != w {
			t.Errorf("%s: closed form %d, request table %d", k, v, w)
		}
	}
}

// TestFlashArithmeticMatchesPaper: the closed forms over one FLASH
// rank's access reproduce §4.3.1's request table.
func TestFlashArithmeticMatchesPaper(t *testing.T) {
	a := accessFromPattern(t, patterns.DefaultFlash(4), 0)
	checkPaperCounts(t, map[string]int64{
		"flash/multiple":        core.MultipleRequests(a),
		"flash/list":            core.ListRequests(a.FileRegions, 0),
		"flash/list(intersect)": core.ListRequests(a.Pieces, 0),
		"flash/datasieve":       core.SieveRequests(a, 0, true),
	})
}

// TestTiledArithmeticMatchesPaper: the same for §4.4.1's tiled
// visualization.
func TestTiledArithmeticMatchesPaper(t *testing.T) {
	a := accessFromPattern(t, patterns.DefaultTiled(), 0)
	checkPaperCounts(t, map[string]int64{
		"tiled/multiple":  core.MultipleRequests(a),
		"tiled/list":      core.ListRequests(a.FileRegions, 0),
		"tiled/datasieve": core.SieveRequests(a, 0, false),
	})
}

// TestFrameLimitIs64: the paper's single-Ethernet-frame derivation
// (§3.3) gives the wire's trailing-data limit.
func TestFrameLimitIs64(t *testing.T) {
	if wire.FrameBudget() != 64 || wire.MaxRegionsPerRequest != 64 {
		t.Fatalf("frame budget = %d, wire limit = %d, want 64", wire.FrameBudget(), wire.MaxRegionsPerRequest)
	}
}

func TestListRequestsCeil(t *testing.T) {
	cases := []struct{ entries, want int64 }{
		{1, 1}, {64, 1}, {65, 2}, {128, 2}, {1920, 30}, {983040, 15360},
	}
	for _, c := range cases {
		if got := core.ListRequests(c.entries, 0); got != c.want {
			t.Errorf("ListRequests(%d) = %d, want %d", c.entries, got, c.want)
		}
	}
}

func TestSieveArithmetic(t *testing.T) {
	a := core.Access{FileRegions: 1000, MemPieces: 1, Pieces: 1000,
		Bytes: 1 << 20, SpanBytes: 100 << 20}
	if got := core.SieveRequests(a, 32<<20, false); got != 4 {
		t.Errorf("sieve reads = %d, want 4 windows", got)
	}
	if got := core.SieveRequests(a, 32<<20, true); got != 8 {
		t.Errorf("sieve writes = %d, want 8 (RMW)", got)
	}
	if got := core.SieveBytesMoved(a, false); got != 100<<20 {
		t.Errorf("bytes moved = %d", got)
	}
	if got := core.UselessBytes(a, false); got != (100<<20)-(1<<20) {
		t.Errorf("useless = %d", got)
	}
	if d := a.Density(); d < 0.009 || d > 0.011 {
		t.Errorf("density = %f", d)
	}
}

func TestAccessValidate(t *testing.T) {
	good := core.Access{FileRegions: 10, MemPieces: 10, Pieces: 10, Bytes: 100, SpanBytes: 1000}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []core.Access{
		{FileRegions: 0, MemPieces: 1, Pieces: 1, Bytes: 1, SpanBytes: 1},
		{FileRegions: 10, MemPieces: 1, Pieces: 5, Bytes: 1, SpanBytes: 1}, // pieces < file regions
		{FileRegions: 1, MemPieces: 1, Pieces: 1, Bytes: 100, SpanBytes: 50},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad access %d accepted", i)
		}
	}
}

// accessFromPattern summarizes a pattern rank for the analytic model.
func accessFromPattern(t *testing.T, p patterns.Pattern, rank int) core.Access {
	t.Helper()
	file := patterns.FileList(p, rank)
	span, _ := file.Span()
	pieces := int64(p.MemPieces(rank))
	if fr := int64(len(file)); fr > pieces {
		pieces = fr
	}
	return core.Access{
		FileRegions: int64(len(file)),
		MemPieces:   int64(p.MemPieces(rank)),
		Pieces:      pieces,
		Bytes:       p.TotalBytes(rank),
		SpanBytes:   span.Length,
	}
}

// TestAnalyticAgreesWithExactCounts cross-checks the closed forms
// against simcluster's exact per-request counting on the paper's
// workloads.
func TestAnalyticAgreesWithExactCounts(t *testing.T) {
	p := simcluster.ChibaCity()
	p.Striping = striping.Config{PCount: 8, StripeSize: striping.DefaultStripeSize}

	flash := patterns.DefaultFlash(4)
	a := accessFromPattern(t, flash, 0)

	// Multiple I/O: analytic pieces == exact message count per proc.
	exact := simcluster.CountWorkload(simcluster.BuildWorkload(p, flash, client.Request{Write: true, Method: client.AccessMultiple}))
	if got, want := core.MultipleRequests(a), exact.Requests/4; got != want {
		t.Errorf("flash multiple: analytic %d, exact %d", got, want)
	}

	// List I/O batches at both granularities.
	exact = simcluster.CountWorkload(simcluster.BuildWorkload(p, flash, client.Request{Write: true, Method: client.AccessList}))
	if got, want := core.ListRequests(a.FileRegions, 0), exact.Batches/4; got != want {
		t.Errorf("flash list(file): analytic %d, exact %d", got, want)
	}
	exact = simcluster.CountWorkload(simcluster.BuildWorkload(p, flash, client.Request{
		Write: true, Method: client.AccessList, List: client.ListOptions{Granularity: client.GranularityIntersect},
	}))
	if got, want := core.ListRequests(a.Pieces, 0), exact.Batches/4; got != want {
		t.Errorf("flash list(intersect): analytic %d, exact %d", got, want)
	}

	// Tiled multiple/list.
	tiled := patterns.DefaultTiled()
	ta := accessFromPattern(t, tiled, 0)
	exact = simcluster.CountWorkload(simcluster.BuildWorkload(p, tiled, client.Request{Method: client.AccessMultiple}))
	if got, want := core.MultipleRequests(ta), exact.Batches/6; got != want {
		t.Errorf("tiled multiple: analytic %d, exact %d", got, want)
	}
	exact = simcluster.CountWorkload(simcluster.BuildWorkload(p, tiled, client.Request{Method: client.AccessList}))
	if got, want := core.ListRequests(ta.FileRegions, 0), exact.Batches/6; got != want {
		t.Errorf("tiled list: analytic %d, exact %d", got, want)
	}
}

// TestRecommendMatchesPaperConclusions encodes §3.4/§5's qualitative
// guidance and checks the heuristic agrees.
func TestRecommendMatchesPaperConclusions(t *testing.T) {
	model := core.DefaultCostModel()

	// Dense nearby regions (FLASH-like at low rank counts): sieving.
	flashLike := core.Access{FileRegions: 1920, MemPieces: 983040, Pieces: 983040,
		Bytes: 7864320, SpanBytes: 15 << 20}
	if got := core.Recommend(flashLike, false, model); got != client.AccessSieve {
		t.Errorf("dense pattern -> %v, want datasieve", got)
	}

	// Sparse scattered regions (1-D cyclic with many clients): list.
	cyclic := core.Access{FileRegions: 800000, MemPieces: 1, Pieces: 800000,
		Bytes: 128 << 20, SpanBytes: 1 << 30}
	if got := core.Recommend(cyclic, false, model); got != client.AccessList {
		t.Errorf("sparse pattern -> %v, want list", got)
	}

	// A couple of large regions: multiple I/O is fine (its best case,
	// §3.4: "only a few contiguous regions of data").
	fewBig := core.Access{FileRegions: 2, MemPieces: 1, Pieces: 2,
		Bytes: 64 << 20, SpanBytes: 1 << 30}
	if got := core.Recommend(fewBig, false, model); got == client.AccessSieve {
		t.Errorf("two big regions -> %v; sieving would move 16x the data", got)
	}

	// Serialized sieve writes with many ranks push writes to list.
	model.Ranks = 32
	if got := core.Recommend(flashLike, true, model); got == client.AccessSieve {
		t.Errorf("32-rank serialized sieve write recommended")
	}
}

func TestMeanGap(t *testing.T) {
	a := core.Access{FileRegions: 11, MemPieces: 11, Pieces: 11, Bytes: 110, SpanBytes: 1110}
	if got := a.MeanGap(); got != 100 {
		t.Errorf("mean gap = %d, want 100", got)
	}
	single := core.Access{FileRegions: 1, MemPieces: 1, Pieces: 1, Bytes: 10, SpanBytes: 10}
	if got := single.MeanGap(); got != 0 {
		t.Errorf("single-region gap = %d", got)
	}
}
