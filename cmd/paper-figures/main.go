// Command paper-figures regenerates every figure of "Noncontiguous
// I/O through PVFS" (Cluster 2002) using the calibrated cluster
// performance model, printing the same series the paper plots.
//
// Usage:
//
//	paper-figures -fig all            # every figure, paper scale (~10 min)
//	paper-figures -fig 9              # Figure 9 only
//	paper-figures -fig counts         # the §4.3.1/§4.4.1 request arithmetic
//	paper-figures -scale quick        # reduced access counts (~seconds)
//	paper-figures -csv -out results/  # CSV files instead of tables
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pvfs/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "9 | 10 | 11 | 12 | 15 | 17 | counts | ablations | all")
	scale := flag.String("scale", "paper", "paper | quick")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	out := flag.String("out", "", "directory for per-figure files (default: stdout)")
	flag.Parse()

	cfg := bench.Config{}
	if *scale == "quick" {
		cfg.Accesses = []int{25000, 50000, 100000}
		cfg.FlashClients = []int{2, 4, 8}
	}

	want := func(id string) bool { return *fig == "all" || *fig == id }
	start := time.Now()

	if want("counts") {
		emitCounts(*out, *csv)
	}
	type figureSet struct {
		id  string
		gen func(bench.Config) ([]bench.Figure, error)
	}
	sets := []figureSet{
		{"9", bench.Figure9},
		{"10", bench.Figure10},
		{"11", bench.Figure11},
		{"12", bench.Figure12},
	}
	for _, s := range sets {
		if !want(s.id) {
			continue
		}
		figs, err := s.gen(cfg)
		if err != nil {
			fatal(err)
		}
		for _, f := range figs {
			emit(f, *out, *csv)
		}
	}
	if want("15") {
		f, err := bench.Figure15(cfg)
		if err != nil {
			fatal(err)
		}
		emit(f, *out, *csv)
	}
	if want("17") {
		f, err := bench.Figure17(cfg)
		if err != nil {
			fatal(err)
		}
		emit(f, *out, *csv)
	}
	if want("ablations") {
		figs, err := bench.Ablations(cfg)
		if err != nil {
			fatal(err)
		}
		for _, f := range figs {
			emit(f, *out, *csv)
		}
	}
	fmt.Fprintf(os.Stderr, "paper-figures: done in %v\n", time.Since(start).Round(time.Second))
}

func emit(f bench.Figure, outDir string, csv bool) {
	var body string
	if csv {
		body = f.CSV()
	} else {
		body = f.Table()
	}
	if outDir == "" {
		fmt.Println(body)
		return
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	ext := ".txt"
	if csv {
		ext = ".csv"
	}
	path := filepath.Join(outDir, f.ID+ext)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func emitCounts(outDir string, csv bool) {
	rows := bench.RequestCounts()
	var b strings.Builder
	if csv {
		b.WriteString("workload,method,requests_per_proc\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "%s,%s,%d\n", r.Workload, r.Method, r.PerProc)
		}
	} else {
		b.WriteString("## Request arithmetic (per process) — §4.3.1 and §4.4.1\n")
		fmt.Fprintf(&b, "%-10s %-22s %14s\n", "workload", "method", "requests/proc")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-10s %-22s %14d\n", r.Workload, r.Method, r.PerProc)
		}
	}
	if outDir == "" {
		fmt.Println(b.String())
		return
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	ext := ".txt"
	if csv {
		ext = ".csv"
	}
	path := filepath.Join(outDir, "request-counts"+ext)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paper-figures: %v\n", err)
	os.Exit(1)
}
