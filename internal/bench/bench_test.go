package bench

import (
	"strings"
	"sync"
	"testing"
)

// quick returns a reduced-scale configuration that still exhibits
// every shape claim (seconds of wall time instead of minutes): the
// aggregate size shrinks with the access range so the per-access
// block size stays in the same regime as the paper's figures
// (sub-MSS blocks in the swept range).
func quick() Config {
	return Config{
		TotalBytes:   256 << 20,
		Accesses:     []int{25000, 50000, 100000},
		FlashClients: []int{2, 4, 8},
	}
}

// quickFigure9 computes Figure 9 once per test binary: its own test
// and Figure 11's both read it.
var quickFigure9 = sync.OnceValues(func() ([]Figure, error) { return Figure9(quick()) })

func seriesY(t *testing.T, f Figure, label string) []float64 {
	t.Helper()
	s, ok := f.SeriesByLabel(label)
	if !ok {
		t.Fatalf("%s: no series %q", f.ID, label)
	}
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys[i] = p.Y
	}
	return ys
}

func increasing(ys []float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] <= ys[i-1] {
			return false
		}
	}
	return true
}

func TestFigure9Shapes(t *testing.T) {
	figs, err := quickFigure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("fig9 has %d panels, want 3 (8/16/32 clients)", len(figs))
	}
	for _, f := range figs {
		multi := seriesY(t, f, "Multiple I/O")
		sieve := seriesY(t, f, "Data Sieving I/O")
		list := seriesY(t, f, "List I/O")
		// Multiple I/O grows with accesses.
		if !increasing(multi) {
			t.Errorf("%s: multiple I/O not increasing: %v", f.ID, multi)
		}
		// Sieve is flat: max within 10%% of min.
		lo, hi := sieve[0], sieve[0]
		for _, y := range sieve {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		if hi > 1.10*lo {
			t.Errorf("%s: sieve not flat: %v", f.ID, sieve)
		}
		// List beats multiple at every point, by ≥5x at the top.
		for i := range list {
			if list[i] >= multi[i] {
				t.Errorf("%s: list (%v) not below multiple (%v) at point %d", f.ID, list[i], multi[i], i)
			}
		}
		last := len(list) - 1
		if multi[last] < 5*list[last] {
			t.Errorf("%s: multiple/list gap = %.1f at top, want >= 5", f.ID, multi[last]/list[last])
		}
	}

	// Sieve time ~doubles when clients double (8 -> 16).
	s8 := seriesY(t, figs[0], "Data Sieving I/O")
	s16 := seriesY(t, figs[1], "Data Sieving I/O")
	ratio := s16[0] / s8[0]
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("sieve 16/8 client ratio = %.2f, want ~2", ratio)
	}
}

func TestFigure10WriteGap(t *testing.T) {
	figs, err := Figure10(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		multi := seriesY(t, f, "Multiple I/O")
		list := seriesY(t, f, "List I/O")
		if !increasing(multi) || !increasing(list) {
			t.Errorf("%s: write curves must grow: %v %v", f.ID, multi, list)
		}
		// Two orders of magnitude gap (the paper's headline claim).
		for i := range multi {
			ratio := multi[i] / list[i]
			if ratio < 25 || ratio > 400 {
				t.Errorf("%s: multiple/list = %.0f at point %d, want ~10^2", f.ID, ratio, i)
			}
		}
	}
}

func TestFigure11BlockShapes(t *testing.T) {
	figs, err := Figure11(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("fig11 has %d panels, want 3 (4/9/16 clients)", len(figs))
	}
	for _, f := range figs {
		multi := seriesY(t, f, "Multiple I/O")
		list := seriesY(t, f, "List I/O")
		if !increasing(multi) {
			t.Errorf("%s: multiple not increasing: %v", f.ID, multi)
		}
		last := len(list) - 1
		if multi[last] < 3*list[last] {
			t.Errorf("%s: multiple/list = %.1f, want >= 3", f.ID, multi[last]/list[last])
		}
	}
	// §4.2.2: block-block sieving accesses less impertinent data than
	// 1-D cyclic at the same client count (16 clients).
	cyc, err := quickFigure9()
	if err != nil {
		t.Fatal(err)
	}
	cyc16 := seriesY(t, cyc[1], "Data Sieving I/O")  // fig9 16 clients
	blk16 := seriesY(t, figs[2], "Data Sieving I/O") // fig11 16 clients
	if blk16[0] >= cyc16[0] {
		t.Errorf("block-block sieve (%v) not below cyclic sieve (%v) at 16 clients", blk16[0], cyc16[0])
	}
}

func TestFigure12WriteGap(t *testing.T) {
	figs, err := Figure12(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		multi := seriesY(t, f, "Multiple I/O")
		list := seriesY(t, f, "List I/O")
		last := len(multi) - 1
		if ratio := multi[last] / list[last]; ratio < 25 {
			t.Errorf("%s: multiple/list = %.0f, want ~10^2", f.ID, ratio)
		}
	}
}

func TestFigure15Ordering(t *testing.T) {
	fig, err := Figure15(quick())
	if err != nil {
		t.Fatal(err)
	}
	multi := seriesY(t, fig, "Multiple I/O")
	sieve := seriesY(t, fig, "Data Sieving I/O")
	list := seriesY(t, fig, "List I/O")
	// The paper's FLASH ordering at its measured granularity:
	// sieve < list < multiple, with list more than an order below
	// multiple and sieve well below list (at small client counts).
	for i := range multi {
		if !(sieve[i] < list[i] && list[i] < multi[i]) {
			t.Errorf("clients=%v: ordering sieve(%.1f) < list(%.1f) < multiple(%.1f) violated",
				fig.Series[0].Points[i].X, sieve[i], list[i], multi[i])
		}
		if multi[i] < 10*list[i] {
			t.Errorf("multiple/list = %.1f at point %d, want > 10 ('a little over one order')",
				multi[i]/list[i], i)
		}
	}
	// Sieve grows with clients; multiple stays flat (§4.3.2).
	if !increasing(sieve) {
		t.Errorf("sieve not growing with clients: %v", sieve)
	}
	lastM := len(multi) - 1
	if multi[lastM] > 1.2*multi[0] || multi[0] > 1.2*multi[lastM] {
		t.Errorf("multiple I/O should be ~flat across clients: %v", multi)
	}
}

func TestFigure17ListWins(t *testing.T) {
	fig, err := Figure17(Config{})
	if err != nil {
		t.Fatal(err)
	}
	read := func(label string) float64 {
		s, ok := fig.SeriesByLabel(label)
		if !ok {
			t.Fatalf("missing series %q", label)
		}
		return s.Points[1].Y // phase 2 = read
	}
	multi, sieve, list := read("Multiple I/O"), read("Data Sieving I/O"), read("List I/O")
	// "list I/O is able to perform more than twice as well as either
	// of the other two methods" (§4.4.2).
	if multi < 2*list || sieve < 2*list {
		t.Errorf("list (%.3f) not 2x better than multiple (%.3f) and sieve (%.3f)", list, multi, sieve)
	}
}

func TestRequestCountsMatchPaper(t *testing.T) {
	rows := RequestCounts()
	want := map[string]int64{
		"flash/multiple":        983040,
		"flash/list":            30,
		"flash/list(intersect)": 15360,
		"tiled/multiple":        768,
		"tiled/list":            12,
		"tiled/datasieve":       1,
	}
	got := map[string]int64{}
	for _, r := range rows {
		got[r.Workload+"/"+r.Method] = r.PerProc
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d requests/proc, want %d", k, got[k], v)
		}
	}
}

func TestTableAndCSVRender(t *testing.T) {
	fig, err := Figure17(Config{})
	if err != nil {
		t.Fatal(err)
	}
	table := fig.Table()
	if !strings.Contains(table, "List I/O") || !strings.Contains(table, "fig17") {
		t.Errorf("table missing content:\n%s", table)
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "x,") || len(strings.Split(strings.TrimSpace(csv), "\n")) != 4 {
		t.Errorf("csv malformed:\n%s", csv)
	}
}
