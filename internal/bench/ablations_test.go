package bench

import (
	"sync"
	"testing"
)

func ablationConfig() Config {
	return Config{
		TotalBytes:   128 << 20,
		Accesses:     []int{25000, 100000},
		FlashClients: []int{2, 4},
	}
}

// ablations runs the suite once per test binary; each ablation test
// asserts over its own figure of it.
var ablations = sync.OnceValues(func() ([]Figure, error) { return Ablations(ablationConfig()) })

func ablation(t *testing.T, id string) Figure {
	t.Helper()
	figs, err := ablations()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("no ablation %q", id)
	return Figure{}
}

func TestAblationMaxRegionsMonotoneReads(t *testing.T) {
	fig := ablation(t, "ablation-maxregions")
	read, ok := fig.SeriesByLabel("Read")
	if !ok {
		t.Fatal("no Read series")
	}
	// Larger limits can only help reads (fewer requests, same bytes).
	for i := 1; i < len(read.Points); i++ {
		if read.Points[i].Y > read.Points[i-1].Y*1.02 {
			t.Fatalf("read time rose with larger limit: %v", read.Points)
		}
	}
	// The paper's 64 must appear on the axis.
	found := false
	for _, p := range read.Points {
		if p.X == 64 {
			found = true
		}
	}
	if !found {
		t.Fatal("limit 64 missing from sweep")
	}
}

func TestAblationGranularityGap(t *testing.T) {
	fig := ablation(t, "ablation-granularity")
	inter, ok1 := fig.SeriesByLabel("List I/O (intersect)")
	file, ok2 := fig.SeriesByLabel("List I/O (file regions)")
	if !ok1 || !ok2 {
		t.Fatal("missing series")
	}
	for i := range inter.Points {
		ratio := inter.Points[i].Y / file.Points[i].Y
		if ratio < 20 {
			t.Fatalf("granularity gap = %.1f at %v clients, want > 20x",
				ratio, inter.Points[i].X)
		}
	}
}

func TestAblationServersSieveScales(t *testing.T) {
	fig := ablation(t, "ablation-servers")
	sieve, ok := fig.SeriesByLabel("Data Sieving I/O")
	if !ok {
		t.Fatal("missing sieve series")
	}
	// Bandwidth-bound: time at 2 servers ~2x time at 4 servers.
	if len(sieve.Points) < 2 {
		t.Fatal("too few points")
	}
	ratio := sieve.Points[0].Y / sieve.Points[1].Y
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("sieve 2->4 server speedup = %.2f, want ~2", ratio)
	}
}

func TestAblationStridedFlatInAccesses(t *testing.T) {
	fig := ablation(t, "ablation-datatype")
	str, ok := fig.SeriesByLabel("Datatype I/O")
	if !ok {
		t.Fatal("missing datatype series")
	}
	lo, hi := str.Points[0].Y, str.Points[0].Y
	for _, p := range str.Points {
		if p.Y < lo {
			lo = p.Y
		}
		if p.Y > hi {
			hi = p.Y
		}
	}
	// Descriptor requests are access-count independent; only the
	// per-region server cost grows slightly.
	if hi > 1.5*lo {
		t.Fatalf("datatype time not ~flat in accesses: [%f, %f]", lo, hi)
	}
}

func TestAblationsSuiteRuns(t *testing.T) {
	figs, err := ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 7 {
		t.Fatalf("suite produced %d figures, want 7", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) == 0 || f.ID == "" {
			t.Fatalf("figure %q malformed", f.Title)
		}
	}
}

// TestAblationNetworkCollapsesWriteGap: on Myrinet (no TCP small-write
// stall, OS-bypass request costs) multiple-I/O writes must fall far
// below their Fast Ethernet time — the pathology of Figs. 10/12 is a
// network-stack artifact on top of the request-count problem.
func TestAblationNetworkCollapsesWriteGap(t *testing.T) {
	fig := ablation(t, "ablation-network")
	eth, ok1 := fig.SeriesByLabel("Fast Ethernet")
	myr, ok2 := fig.SeriesByLabel("Myrinet")
	if !ok1 || !ok2 {
		t.Fatal("missing network series")
	}
	if len(eth.Points) != 4 || len(myr.Points) != 4 {
		t.Fatalf("points = %d/%d, want 4 each (multiple/list × read/write)",
			len(eth.Points), len(myr.Points))
	}
	// Point 1 is multiple-I/O write (see series construction order).
	ethW, myrW := eth.Points[1].Y, myr.Points[1].Y
	if ethW < 10*myrW {
		t.Fatalf("multiple-I/O write: ethernet %.1fs vs myrinet %.1fs, want ≥ 10x gap", ethW, myrW)
	}
	// List I/O still beats multiple I/O on Myrinet (request counts
	// alone preserve the ordering, §3.4).
	if myr.Points[2].Y >= myr.Points[0].Y {
		t.Fatalf("list read (%.2fs) not faster than multiple read (%.2fs) on myrinet",
			myr.Points[2].Y, myr.Points[0].Y)
	}
}

func TestAblationStripeSizeShape(t *testing.T) {
	fig := ablation(t, "ablation-stripesize")
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3 methods", len(fig.Series))
	}
	for _, s := range fig.Series {
		found16k := false
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("%s: nonpositive time at stripe %v", s.Label, p.X)
			}
			if p.X == 16384 {
				found16k = true
			}
		}
		if !found16k {
			t.Fatalf("%s: paper's 16 KiB stripe missing from sweep", s.Label)
		}
	}
}
