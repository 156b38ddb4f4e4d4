// Package bench defines the paper's experiments (DESIGN.md §14): for
// every figure in the evaluation it builds the workload, runs the
// cluster model, and emits the series the figure plots. The real-stack
// (TCP) counterpart is the benchmark harness under bench/.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"pvfs/internal/client"
	"pvfs/internal/patterns"
	"pvfs/internal/simcluster"
)

// Point is one (x, seconds) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Config scales the experiments. The zero value is full paper scale.
type Config struct {
	// Params of the modeled cluster; zero selects ChibaCity.
	Params simcluster.Params
	// Accesses are the x-axis sample points (per-client noncontiguous
	// regions); zero selects the paper's 100k..1M range.
	Accesses []int
	// TotalBytes is the aggregate artificial-benchmark size; zero
	// selects the paper's 1 GiB.
	TotalBytes int64
	// FlashClients are the FLASH client counts; zero selects 2..32.
	FlashClients []int
}

func (c Config) params() simcluster.Params {
	if c.Params.Servers == 0 {
		return simcluster.ChibaCity()
	}
	return c.Params
}

func (c Config) accesses() []int {
	if len(c.Accesses) == 0 {
		return []int{100000, 250000, 500000, 750000, 1000000}
	}
	return c.Accesses
}

func (c Config) totalBytes() int64 {
	if c.TotalBytes == 0 {
		return 1 << 30
	}
	return c.TotalBytes
}

func (c Config) flashClients() []int {
	if len(c.FlashClients) == 0 {
		return []int{2, 4, 8, 16, 32}
	}
	return c.FlashClients
}

// runPattern simulates every rank of pat issuing req and returns
// seconds.
func runPattern(p simcluster.Params, pat patterns.Pattern, req client.Request) float64 {
	return simcluster.Run(simcluster.BuildWorkload(p, pat, req)).Duration.Seconds()
}

// artificialSeries sweeps accesses for one client count and method set.
func (c Config) artificialSeries(mkPattern func(accesses int) (patterns.Pattern, error), write bool, methods []client.AccessMethod) ([]Series, error) {
	p := c.params()
	series := make([]Series, len(methods))
	for i, m := range methods {
		series[i].Label = methodLabel(m)
	}
	for _, a := range c.accesses() {
		pat, err := mkPattern(a)
		if err != nil {
			return nil, err
		}
		for i, m := range methods {
			y := runPattern(p, pat, client.Request{Write: write, Method: m})
			series[i].Points = append(series[i].Points, Point{X: float64(a), Y: y})
		}
	}
	return series, nil
}

func methodLabel(m client.AccessMethod) string {
	switch m {
	case client.AccessMultiple:
		return "Multiple I/O"
	case client.AccessSieve:
		return "Data Sieving I/O"
	case client.AccessList:
		return "List I/O"
	case client.AccessDatatype:
		return "Datatype I/O"
	}
	return m.String()
}

// paperMethods are the three methods the paper measures (§3).
var paperMethods = []client.AccessMethod{client.AccessMultiple, client.AccessSieve, client.AccessList}

// writeMethods are the methods the paper plots for parallel writes: it
// omits data sieving, whose writers must serialize (§4.2.1).
var writeMethods = []client.AccessMethod{client.AccessMultiple, client.AccessList}

// Figure9 regenerates the one-dimensional cyclic read plots for
// 8/16/32 clients.
func Figure9(c Config) ([]Figure, error) {
	return c.cyclicFigures("fig9", "One-Dimensional Cyclic Read", false, paperMethods, []int{8, 16, 32})
}

// Figure10 regenerates the one-dimensional cyclic write plots (the
// paper omits data sieving for parallel writes, §4.2.1).
func Figure10(c Config) ([]Figure, error) {
	return c.cyclicFigures("fig10", "One-Dimensional Cyclic Write", true, writeMethods, []int{8, 16, 32})
}

func (c Config) cyclicFigures(id, title string, write bool, methods []client.AccessMethod, clients []int) ([]Figure, error) {
	var out []Figure
	for _, nc := range clients {
		nc := nc
		series, err := c.artificialSeries(func(a int) (patterns.Pattern, error) {
			return patterns.NewCyclic1D(nc, a, c.totalBytes())
		}, write, methods)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure{
			ID:     fmt.Sprintf("%s-%dclients", id, nc),
			Title:  fmt.Sprintf("%s - %d clients", title, nc),
			XLabel: "Number of Accesses (per client)",
			YLabel: "Time (seconds)",
			Series: series,
		})
	}
	return out, nil
}

// Figure11 regenerates the block-block read plots for 4/9/16 clients.
func Figure11(c Config) ([]Figure, error) {
	return c.blockFigures("fig11", "Block-Block Read", false, paperMethods)
}

// Figure12 regenerates the block-block write plots for 4/9/16 clients.
func Figure12(c Config) ([]Figure, error) {
	return c.blockFigures("fig12", "Block-Block Write", true, writeMethods)
}

func (c Config) blockFigures(id, title string, write bool, methods []client.AccessMethod) ([]Figure, error) {
	var out []Figure
	for _, nc := range []int{4, 9, 16} {
		nc := nc
		series, err := c.artificialSeries(func(a int) (patterns.Pattern, error) {
			return patterns.NewBlockBlock(nc, a, c.totalBytes())
		}, write, methods)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure{
			ID:     fmt.Sprintf("%s-%dclients", id, nc),
			Title:  fmt.Sprintf("%s - %d clients", title, nc),
			XLabel: "Number of Accesses (per client)",
			YLabel: "Time (seconds)",
			Series: series,
		})
	}
	return out, nil
}

// Figure15 regenerates the FLASH I/O bar chart: checkpoint write time
// per method and client count. List I/O builds intersect entries, the
// paper's measured behaviour (DESIGN.md §3); AblationGranularity plots
// file-region entries beside them.
func Figure15(c Config) (Figure, error) {
	p := c.params()
	fig := Figure{
		ID:     "fig15",
		Title:  "FLASH I/O Benchmark (checkpoint write)",
		XLabel: "Clients",
		YLabel: "Time (seconds)",
		Notes: []string{
			"list I/O uses intersect-granularity entries (see DESIGN.md §3 and EXPERIMENTS.md)",
			"data sieving writes serialized by barrier as in §4.3.1",
		},
	}
	for _, m := range paperMethods {
		s := Series{Label: methodLabel(m)}
		req := client.Request{Write: true, Method: m, List: client.ListOptions{Granularity: client.GranularityIntersect}}
		for _, nc := range c.flashClients() {
			y := runPattern(p, patterns.DefaultFlash(nc), req)
			s.Points = append(s.Points, Point{X: float64(nc), Y: y})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure17 regenerates the tiled visualization bar chart: open, read,
// and close time per method for 6 clients.
func Figure17(c Config) (Figure, error) {
	p := c.params()
	tiled := patterns.DefaultTiled()
	fig := Figure{
		ID:     "fig17",
		Title:  "Tiled Visualization I/O - 6 clients",
		XLabel: "Phase (1=open, 2=read, 3=close)",
		YLabel: "Time (seconds)",
	}
	// Open/close: one manager round trip per rank, concurrently.
	mgrOnly := func() float64 {
		w := simcluster.WithOpenClose(simcluster.Workload{
			Name:       "tiled-openclose",
			Params:     p,
			RankStages: make([][]simcluster.Stage, tiled.Ranks()),
		})
		// The wrapper added open+close; halve for one phase.
		return simcluster.Run(w).Duration.Seconds() / 2
	}
	oc := mgrOnly()
	for _, m := range paperMethods {
		read := runPattern(p, tiled, client.Request{Method: m})
		fig.Series = append(fig.Series, Series{
			Label: methodLabel(m),
			Points: []Point{
				{X: 1, Y: oc},
				{X: 2, Y: read},
				{X: 3, Y: oc},
			},
		})
	}
	return fig, nil
}

// RequestCountRow is one line of the request-arithmetic table
// (§4.3.1 / §4.4.1), the paper's derived numbers.
type RequestCountRow struct {
	Workload string
	Method   string
	PerProc  int64
}

// RequestCounts reproduces the paper's request arithmetic exactly: the
// logical calls per process the model issues for each method.
func RequestCounts() []RequestCountRow {
	p := simcluster.ChibaCity()
	flash := patterns.DefaultFlash(4)
	tiled := patterns.DefaultTiled()
	intersect := client.ListOptions{Granularity: client.GranularityIntersect}
	rows := []RequestCountRow{}
	add := func(workload string, pat patterns.Pattern, req client.Request) {
		c := simcluster.CountWorkload(simcluster.BuildWorkload(p, pat, req))
		method := req.Method.String()
		if req.List.Granularity == client.GranularityIntersect {
			method += "(intersect)"
		}
		rows = append(rows, RequestCountRow{Workload: workload, Method: method, PerProc: c.Batches / int64(pat.Ranks())})
	}
	add("flash", flash, client.Request{Write: true, Method: client.AccessMultiple})
	add("flash", flash, client.Request{Write: true, Method: client.AccessList})
	add("flash", flash, client.Request{Write: true, Method: client.AccessList, List: intersect})
	add("flash", flash, client.Request{Write: true, Method: client.AccessSieve})
	add("tiled", tiled, client.Request{Method: client.AccessMultiple})
	add("tiled", tiled, client.Request{Method: client.AccessList})
	add("tiled", tiled, client.Request{Method: client.AccessSieve})
	return rows
}

// Table renders a figure as an aligned text table: one row per x
// value, one column per series.
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s [%s]\n", f.Title, f.ID)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "# note: %s\n", n)
	}
	// Collect x values.
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, pt := range s.Points {
			xs[pt.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	b.WriteString("\n")
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-14.0f", x)
		for _, s := range f.Series {
			y := lookup(s, x)
			if y < 0 {
				fmt.Fprintf(&b, " %22s", "-")
			} else {
				fmt.Fprintf(&b, " %22.3f", y)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders a figure as comma-separated values.
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s", s.Label)
	}
	b.WriteString("\n")
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, pt := range s.Points {
			xs[pt.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			y := lookup(s, x)
			if y < 0 {
				b.WriteString(",")
			} else {
				fmt.Fprintf(&b, ",%.4f", y)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func lookup(s Series, x float64) float64 {
	for _, pt := range s.Points {
		if pt.X == x {
			return pt.Y
		}
	}
	return -1
}

// SeriesByLabel finds a series in a figure.
func (f Figure) SeriesByLabel(label string) (Series, bool) {
	for _, s := range f.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}
