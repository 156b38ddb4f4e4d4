// Command bench is the repository's benchmark: five named workloads
// against a real in-process deployment (client → TCP → iod → cache →
// store.Dir), end-to-end metrics with tracing off, per-layer metrics
// from a traced run. README.md documents workloads, metrics and how to
// land a change against them; BENCHMARK.json at the repository root is
// the machine-readable contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"pvfs/internal/wire"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	smoke      bool
	allowKnobs bool
	outDir     string
	tmpDir     string
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload to run; empty runs all five, each in a fresh child process")
	flag.Uint64Var(&c.seed, "seed", 1, "seed for file contents, file names (hence shard placement) and tile order")
	flag.IntVar(&c.seconds, "seconds", 10, "measuring time per run")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&c.smoke, "smoke", false, "one op per phase and two rounds: checks the plumbing, measures nothing")
	flag.BoolVar(&c.allowKnobs, "allow-knobs", false, "run even with PVFS_NO_URING / PVFS_NO_META_BATCH set (recorded in the history row)")
	flag.StringVar(&c.outDir, "out", "bench/out", "directory for history.jsonl and trace files")
	flag.StringVar(&c.tmpDir, "tmp", ".bench_build/tmp", "directory for the daemons' data")
	traced := flag.Bool("traced", false, "suite mode: also run every workload with -trace 1")
	flag.Parse()

	if err := run(c, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(c config, traced bool) error {
	knobs := setKnobs()
	if len(knobs) > 0 && !c.allowKnobs {
		return fmt.Errorf("%v set: these change the path under test; pass -allow-knobs to run anyway", knobs)
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	if c.workload == "" {
		return runSuite(c, traced)
	}
	w := workloadByName(c.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.smoke {
		w.writeOps, w.readOps = 1, 1
		c.seconds = 0
		replayBudget = time.Millisecond
	}
	fp := fingerprint(c.tmpDir, knobs)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, c.seed, c.seconds, c.trace)
	fmt.Printf("machine: %s\n", fp)
	fmt.Printf("load: closed loop, %d ranks, %d iods, stripe %d B, store.Dir on disk, no data-path fsync (page-cache write-through; Sync+Close end a write where the op says so)\n",
		ranks, numIOD, stripeSize)

	var res result
	var err error
	if c.trace == 0 {
		res, err = runEndToEnd(w, c)
	} else {
		res, err = runTraced(w, c)
	}
	if err != nil {
		return err
	}
	printMetrics(res.Metrics)
	if herr := appendHistory(c, w.name, fp, res); herr != nil {
		return herr
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// runEndToEnd measures one workload with tracing off. Set-up is
// repeated, for about a second, so that setup_s is a median of many;
// the last set-up's deployment carries the timed rounds.
func runEndToEnd(w *workload, c config) (result, error) {
	minSetups, maxSetups, minRounds := 7, 31, rssRounds
	if c.smoke {
		minSetups, maxSetups, minRounds = 1, 1, 2
	}
	gets0, puts0 := wire.BufStats() // nothing is running yet
	var setups []float64
	var d *deployment
	var r runner
	for began := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(began) < time.Second); {
		if d != nil {
			r.close()
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = deploy(c.tmpDir, w.opts, nil); err != nil {
			return result{}, err
		}
		if r, err = w.start(c.seed, d); err != nil {
			d.close()
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m := runRounds(w, r, d, nil, time.Duration(c.seconds)*time.Second, minRounds)
	closeErr := r.close()
	d.close()
	gets1, puts1 := wire.BufStats()

	problems := checkRun(w, m, closeErr, (gets1-gets0)-(puts1-puts0))
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	reportPhases(w, m)
	fmt.Printf("set-up: median of %d\n", len(setups))
	return result{
		Correct: len(problems) == 0, Attempted: m.attempted(), Failed: m.failed(),
		Metrics: endToEndMetrics(m, median(setups)),
	}, nil
}
