package bench

import (
	"fmt"

	"pvfs/internal/client"
	"pvfs/internal/patterns"
	"pvfs/internal/simcluster"
	"pvfs/internal/striping"
)

// Ablations of the design choices DESIGN.md calls out. Each returns a
// Figure in the same format as the paper figures.

// AblationMaxRegions sweeps the trailing-data limit around the
// paper's 64 (§3.3 chose 64 so a request fits one Ethernet frame;
// larger limits need multi-frame requests but fewer of them).
func AblationMaxRegions(c Config) (Figure, error) {
	p := c.params()
	accesses := c.accesses()[len(c.accesses())-1]
	fig := Figure{
		ID:     "ablation-maxregions",
		Title:  fmt.Sprintf("Trailing-data limit sweep (1-D cyclic, 8 clients, %d accesses)", accesses),
		XLabel: "Regions per list request",
		YLabel: "Time (seconds)",
		Notes:  []string{"the paper's limit is 64 (one Ethernet frame of descriptors)"},
	}
	for _, write := range []bool{false, true} {
		label := "Read"
		if write {
			label = "Write"
		}
		s := Series{Label: label}
		for _, limit := range []int{16, 32, 64, 128, 256, 1024} {
			pat, err := patterns.NewCyclic1D(8, accesses, c.totalBytes())
			if err != nil {
				return fig, err
			}
			y := runPattern(p, pat, client.Request{
				Write: write, Method: client.AccessList, List: client.ListOptions{MaxRegions: limit},
			})
			s.Points = append(s.Points, Point{X: float64(limit), Y: y})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationGranularity compares list-entry construction modes on the
// FLASH checkpoint (DESIGN.md §3): the measured-behaviour intersect
// mode against the paper's file-region arithmetic.
func AblationGranularity(c Config) (Figure, error) {
	p := c.params()
	fig := Figure{
		ID:     "ablation-granularity",
		Title:  "FLASH list I/O entry granularity",
		XLabel: "Clients",
		YLabel: "Time (seconds)",
		Notes: []string{
			"intersect: one entry per (memory ∩ file) piece = 983,040/proc",
			"file-regions: one entry per contiguous file region = 1,920/proc",
		},
	}
	modes := []struct {
		label string
		g     client.Granularity
	}{
		{"List I/O (intersect)", client.GranularityIntersect},
		{"List I/O (file regions)", client.GranularityFileRegions},
	}
	for _, mode := range modes {
		s := Series{Label: mode.label}
		for _, nc := range c.flashClients() {
			y := runPattern(p, patterns.DefaultFlash(nc), client.Request{
				Write: true, Method: client.AccessList, List: client.ListOptions{Granularity: mode.g},
			})
			s.Points = append(s.Points, Point{X: float64(nc), Y: y})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationHybridGap sweeps the hybrid list+sieve coalescing threshold
// (§5 future work) on the fine-grained cyclic read.
func AblationHybridGap(c Config) (Figure, error) {
	p := c.params()
	accesses := c.accesses()[len(c.accesses())-1]
	patFor := func() (patterns.Pattern, error) {
		return patterns.NewCyclic1D(8, accesses, c.totalBytes())
	}
	fig := Figure{
		ID:     "ablation-hybridgap",
		Title:  fmt.Sprintf("Hybrid list+sieve gap threshold (1-D cyclic read, 8 clients, %d accesses)", accesses),
		XLabel: "Coalescing gap (bytes)",
		YLabel: "Time (seconds)",
		Notes:  []string{"gap 0 is plain list I/O; large gaps degenerate toward data sieving"},
	}
	s := Series{Label: "Hybrid list I/O"}
	for _, gap := range []int64{0, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 1 << 20} {
		pat, err := patFor()
		if err != nil {
			return fig, err
		}
		y := runPattern(p, pat, client.Request{Method: client.AccessHybrid, CoalesceGap: gap})
		s.Points = append(s.Points, Point{X: float64(gap), Y: y})
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationDatatype compares list I/O against datatype I/O as
// fragmentation grows (§5: descriptors eliminate "the linear
// relationship between the number of contiguous regions and the number
// of I/O requests").
func AblationDatatype(c Config) (Figure, error) {
	p := c.params()
	fig := Figure{
		ID:     "ablation-datatype",
		Title:  "List I/O vs strided descriptors (1-D cyclic read, 8 clients)",
		XLabel: "Number of Accesses (per client)",
		YLabel: "Time (seconds)",
	}
	for _, m := range []client.AccessMethod{client.AccessList, client.AccessDatatype} {
		s := Series{Label: methodLabel(m)}
		for _, a := range c.accesses() {
			pat, err := patterns.NewCyclic1D(8, a, c.totalBytes())
			if err != nil {
				return fig, err
			}
			y := runPattern(p, pat, client.Request{Method: m})
			s.Points = append(s.Points, Point{X: float64(a), Y: y})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationServers sweeps the I/O daemon count (the paper fixes 8;
// §2 notes striping and server counts are user-controlled).
func AblationServers(c Config) (Figure, error) {
	base := c.params()
	accesses := c.accesses()[0]
	fig := Figure{
		ID:     "ablation-servers",
		Title:  fmt.Sprintf("I/O daemon count sweep (1-D cyclic read, 8 clients, %d accesses)", accesses),
		XLabel: "I/O daemons",
		YLabel: "Time (seconds)",
	}
	for _, m := range paperMethods {
		s := Series{Label: methodLabel(m)}
		for _, servers := range []int{2, 4, 8, 16} {
			p := base
			p.Servers = servers
			p.Striping = striping.Config{PCount: servers, StripeSize: striping.DefaultStripeSize}
			pat, err := patterns.NewCyclic1D(8, accesses, c.totalBytes())
			if err != nil {
				return fig, err
			}
			y := runPattern(p, pat, client.Request{Method: m})
			s.Points = append(s.Points, Point{X: float64(servers), Y: y})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationNetwork replays the 1-D cyclic experiment on the cluster's
// unused Myrinet fabric (simcluster.Myrinet; §4.1 notes the cards were
// present). It separates what the network stack owes the multiple-I/O
// pathology from what the request count owes it: without the TCP
// small-write stall the write gap collapses from ~2 orders of
// magnitude toward the pure request-count ratio.
func AblationNetwork(c Config) (Figure, error) {
	accesses := c.accesses()[len(c.accesses())-1]
	fig := Figure{
		ID:     "ablation-network",
		Title:  fmt.Sprintf("Fast Ethernet vs Myrinet (1-D cyclic, 8 clients, %d accesses)", accesses),
		XLabel: "Method / direction",
		YLabel: "Time (seconds)",
		Notes: []string{
			"fast-ethernet is the paper's measured configuration",
			"myrinet is the counterfactual: same daemons, same requests, OS-bypass network",
			"x axis: 0 = multiple read, 1 = multiple write, 2 = list read, 3 = list write",
		},
	}
	nets := []struct {
		label string
		p     simcluster.Params
	}{
		{"Fast Ethernet", c.params()},
		{"Myrinet", myrinetAt(c)},
	}
	for _, net := range nets {
		s := Series{Label: net.label}
		x := 0.0
		for _, m := range []client.AccessMethod{client.AccessMultiple, client.AccessList} {
			for _, write := range []bool{false, true} {
				pat, err := patterns.NewCyclic1D(8, accesses, c.totalBytes())
				if err != nil {
					return fig, err
				}
				y := runPattern(net.p, pat, client.Request{Write: write, Method: m})
				s.Points = append(s.Points, Point{X: x, Y: y})
				x++
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// myrinetAt scales the Myrinet preset to the config's server count.
func myrinetAt(c Config) simcluster.Params {
	base := c.params()
	p := simcluster.Myrinet()
	p.Servers = base.Servers
	p.Striping = base.Striping
	return p
}

// AblationStripeSize sweeps the stripe unit around the paper's 16 KiB
// default (§4.1). Small stripes scatter each list batch over more
// servers (more, smaller requests); large stripes concentrate each
// client on fewer servers (less parallelism per call).
func AblationStripeSize(c Config) (Figure, error) {
	base := c.params()
	accesses := c.accesses()[len(c.accesses())-1]
	fig := Figure{
		ID:     "ablation-stripesize",
		Title:  fmt.Sprintf("Stripe size sweep (1-D cyclic read, 8 clients, %d accesses)", accesses),
		XLabel: "Stripe size (bytes)",
		YLabel: "Time (seconds)",
		Notes:  []string{"the paper uses the 16 KiB default stripe"},
	}
	for _, m := range paperMethods {
		s := Series{Label: methodLabel(m)}
		for _, ss := range []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
			p := base
			p.Striping = striping.Config{PCount: base.Servers, StripeSize: ss}
			pat, err := patterns.NewCyclic1D(8, accesses, c.totalBytes())
			if err != nil {
				return fig, err
			}
			y := runPattern(p, pat, client.Request{Method: m})
			s.Points = append(s.Points, Point{X: float64(ss), Y: y})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Ablations runs the full suite.
func Ablations(c Config) ([]Figure, error) {
	var out []Figure
	for _, gen := range []func(Config) (Figure, error){
		AblationMaxRegions, AblationGranularity, AblationHybridGap,
		AblationDatatype, AblationServers, AblationNetwork, AblationStripeSize,
	} {
		f, err := gen(c)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
