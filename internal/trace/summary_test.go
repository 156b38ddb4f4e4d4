package trace

import (
	"bytes"
	"strings"
	"testing"

	"pvfs/internal/client"
	"pvfs/internal/core"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
)

// sg abbreviates a segment literal.
func sg(off, length int64) ioseg.Segment { return ioseg.Segment{Offset: off, Length: length} }

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11}, {-7, 0},
	}
	for _, c := range cases {
		before := h.Buckets[c.bucket]
		h.Add(c.v)
		if h.Buckets[c.bucket] != before+1 {
			t.Errorf("Add(%d): bucket %d not incremented", c.v, c.bucket)
		}
	}
	if h.N != int64(len(cases)) {
		t.Errorf("N = %d, want %d", h.N, len(cases))
	}
	if h.Max != 1025 {
		t.Errorf("Max = %d, want 1025", h.Max)
	}
}

func TestHistogramMeanAndString(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Error("empty histogram mean != 0")
	}
	if h.String() != "(empty)" {
		t.Errorf("empty histogram String = %q", h.String())
	}
	h.Add(10)
	h.Add(20)
	if h.Mean() != 15 {
		t.Errorf("mean = %v, want 15", h.Mean())
	}
	if !strings.Contains(h.String(), ":1") {
		t.Errorf("String = %q", h.String())
	}
}

func TestCountPieces(t *testing.T) {
	cases := []struct {
		name      string
		mem, file ioseg.List
		want      int64
	}{
		{"both contiguous", ioseg.List{sg(0, 8)}, ioseg.List{sg(100, 8)}, 1},
		{"file split", ioseg.List{sg(0, 8)}, ioseg.List{sg(0, 4), sg(100, 4)}, 2},
		{"mem split", ioseg.List{sg(0, 4), sg(50, 4)}, ioseg.List{sg(0, 8)}, 2},
		{"interleaved boundaries", ioseg.List{sg(0, 3), sg(10, 5)}, ioseg.List{sg(0, 5), sg(100, 3)}, 3},
		{"aligned splits", ioseg.List{sg(0, 4), sg(8, 4)}, ioseg.List{sg(0, 4), sg(100, 4)}, 2},
		{"empty", nil, nil, 0},
	}
	for _, c := range cases {
		if got := countPieces(c.mem, c.file); got != c.want {
			t.Errorf("%s: countPieces = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSummarizeFlash checks the paper's §4.3.1 arithmetic falls out of
// a synthesized FLASH trace: 1,920 file regions of 4,096 bytes and
// 983,040 doubly-contiguous pieces per process.
func TestSummarizeFlash(t *testing.T) {
	pat := patterns.DefaultFlash(1)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Name: pat.Name(), Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePattern(w, pat, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops != 1 || s.Writes != 1 || s.Reads != 0 {
		t.Errorf("ops = %d (%d writes), want 1 write", s.Ops, s.Writes)
	}
	if s.FileRegions != 1920 {
		t.Errorf("file regions = %d, want 1920", s.FileRegions)
	}
	if s.Pieces != 983040 {
		t.Errorf("pieces = %d, want 983040 (the paper's multiple-I/O count)", s.Pieces)
	}
	if s.Bytes != 7864320 {
		t.Errorf("bytes = %d, want 7864320", s.Bytes)
	}
	if want := int64(4096); s.FileSizeHist.Max != want {
		t.Errorf("max file region = %d, want %d", s.FileSizeHist.Max, want)
	}
	// One rank: regions are adjacent (rank stride 1), so density 1.
	if d := s.Density(); d != 1 {
		t.Errorf("density = %v, want 1 for a single rank", d)
	}
}

// TestSummarizeCyclicDensity: with R ranks each taking 1/R of every
// cycle, a rank's density is ~1/R.
func TestSummarizeCyclicDensity(t *testing.T) {
	pat, err := patterns.NewCyclic1D(4, 64, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := PatternOps(pat, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Summary{MaxRank: -1}
	s.AddOp(ops[0]) // rank 0 only
	got := s.Density()
	// Rank 0 touches 1 of every 4 blocks; last cycle has no trailing
	// gap inside the op, so density is slightly above 1/4.
	if got < 0.24 || got > 0.27 {
		t.Errorf("cyclic rank density = %v, want ≈ 0.25", got)
	}
	if s.BackwardJumps != 0 {
		t.Errorf("backward jumps = %d, want 0", s.BackwardJumps)
	}
}

func TestSummaryBackwardJumps(t *testing.T) {
	s := &Summary{MaxRank: -1}
	s.AddOp(Op{
		Mem:  ioseg.List{sg(0, 12)},
		File: ioseg.List{sg(100, 4), sg(0, 4), sg(200, 4)},
	})
	if s.BackwardJumps != 1 {
		t.Errorf("backward jumps = %d, want 1", s.BackwardJumps)
	}
	if s.GapHist.N != 1 {
		t.Errorf("gap samples = %d, want 1 (forward gap 0→200 only)", s.GapHist.N)
	}
}

// TestSummaryAccessFlash: the trace summary feeds §3.4's closed forms
// (internal/core) and reproduces the FLASH arithmetic.
func TestSummaryAccessFlash(t *testing.T) {
	pat := patterns.DefaultFlash(1)
	ops, err := PatternOps(pat, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Summary{MaxRank: -1, MinOff: -1}
	for _, op := range ops {
		s.AddOp(op)
	}
	a, ok := s.Access()
	if !ok {
		t.Fatal("Access not derivable from a FLASH trace")
	}
	if got := core.MultipleRequests(a); got != 983040 {
		t.Errorf("multiple requests = %d, want 983040", got)
	}
	if got := core.ListRequests(a.Pieces, 64); got != 15360 {
		t.Errorf("list requests (intersect) = %d, want 15360", got)
	}
	if got := core.ListRequests(a.FileRegions, 64); got != 30 {
		t.Errorf("list requests (file regions) = %d, want 30 (§4.3.1)", got)
	}
	if got := core.SieveRequests(a, client.DefaultSieveBuffer, true); got != 2 {
		// One RMW window: a read request and a write-back request.
		t.Errorf("sieve requests = %d, want 2 (read+write of one window)", got)
	}
	// The paper's FLASH verdict: data sieving wins for this pattern.
	if m := core.Recommend(a, true, core.DefaultCostModel()); m != client.AccessSieve {
		t.Errorf("recommended method = %v, want datasieve (§4.3.2)", m)
	}
}

func TestSummaryAccessEmptyAndOverlapping(t *testing.T) {
	s := &Summary{MaxRank: -1, MinOff: -1}
	if _, ok := s.Access(); ok {
		t.Error("Access derived from an empty summary")
	}
	// Two ops reading the same region: bytes exceed span.
	op := Op{Mem: ioseg.List{sg(0, 100)}, File: ioseg.List{sg(0, 100)}}
	s.AddOp(op)
	s.AddOp(op)
	if _, ok := s.Access(); ok {
		t.Error("Access derived from a self-overlapping trace")
	}
}

func TestSummaryFormat(t *testing.T) {
	s := &Summary{Meta: Meta{Name: "fmt", Ranks: 2, Comment: "c"}, MaxRank: -1}
	s.AddOp(Op{Rank: 1, Write: true, Mem: ioseg.List{sg(0, 8)}, File: ioseg.List{sg(0, 8)}})
	var b strings.Builder
	s.Format(&b)
	out := b.String()
	for _, want := range []string{"fmt", "1 writes", "comment: c", "max rank seen 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}
