package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/wire"
)

// phaseStats accumulates one side (write or read) of a workload over
// the timed rounds.
type phaseStats struct {
	latMS  []float64 // one sample per op, ranks pooled
	rates  []float64 // ops/s of each round, both ranks together
	cpu    time.Duration
	ops    int
	failed int
}

// counters is everything the program counts about itself, read before
// and after the timed rounds.
type counters struct {
	iod    wire.ServerStats
	meta   wire.ServerStats
	client client.CounterValues
	mem    runtime.MemStats
}

func snapshot(d *deployment) counters {
	var c counters
	c.iod = d.iodStats()
	c.meta = d.metaStats()
	c.client = d.clientCounters()
	runtime.ReadMemStats(&c.mem)
	return c
}

// measured is the outcome of the timed rounds of one deployment.
type measured struct {
	warm          phaseStats // untimed, but its failures fail the run
	write, read   phaseStats
	rounds        int
	rssMB         float64 // peak RSS once rssRounds rounds are done
	before, after counters
	firstErr      error
}

func (m *measured) attempted() int { return m.warm.ops + m.write.ops + m.read.ops }
func (m *measured) failed() int    { return m.warm.failed + m.write.failed + m.read.failed }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runPhase runs n ops per rank on every rank at once and returns when
// all have finished. Only runner.op is timed and spanned; stamping and
// byte comparison are the bench's own work.
func runPhase(run runner, d *deployment, rec *recorder, ph phase, base, n int, gen uint64, st *phaseStats, m *measured) {
	if rec != nil {
		rec.phase.Store(uint32(ph))
		defer rec.phase.Store(uint32(phaseOff))
	}
	lat := make([][]float64, ranks)
	errs := make([]error, ranks)
	fails := make([]int, ranks)
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			lat[rank] = make([]float64, 0, n)
			for k := 0; k < n; k++ {
				i := base + k
				run.prepare(rank, ph, i, gen)
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				end := func() {}
				if t := d.tracer[rank]; t != nil {
					end = t.begin()
				}
				start := time.Now()
				err := run.op(ctx, rank, ph, i)
				took := time.Since(start)
				end()
				cancel()
				if err == nil && !run.verify(rank, ph, i) {
					err = errVerify
				}
				if err != nil {
					fails[rank]++
					if errs[rank] == nil {
						errs[rank] = fmt.Errorf("rank %d %v op %d: %w", rank, ph, i, err)
					}
					continue
				}
				lat[rank] = append(lat[rank], float64(took)/1e6)
			}
		}(r)
	}
	wg.Wait()
	wall := time.Since(t0)
	st.cpu += cpuTime() - cpu0
	st.ops += ranks * n
	st.rates = append(st.rates, float64(ranks*n)/wall.Seconds())
	for r := 0; r < ranks; r++ {
		st.latMS = append(st.latMS, lat[r]...)
		st.failed += fails[r]
		if errs[r] != nil && m.firstErr == nil {
			m.firstErr = errs[r]
		}
	}
}

// rssRounds is the fixed amount of work after which peak RSS is read.
// The number of rounds follows the clock, and a workload whose live
// heap grows with every round (meta_ops' namespace) would otherwise
// report the length of its run; every run does at least this many.
const rssRounds = 16

// runRounds warms the deployment up with one untimed round, then runs
// whole rounds until dur has passed (at least minRounds).
func runRounds(w *workload, run runner, d *deployment, rec *recorder, dur time.Duration, minRounds int) *measured {
	m := &measured{}
	runPhase(run, d, nil, phaseWrite, 0, w.writeOps, 0, &m.warm, m)
	runPhase(run, d, nil, phaseRead, 0, w.readOps, 0, &m.warm, m)

	runtime.GC() // start every run's timed rounds from a collected heap
	m.before = snapshot(d)
	t0 := time.Now()
	for g := 1; g <= minRounds || time.Since(t0) < dur; g++ {
		runPhase(run, d, rec, phaseWrite, g*w.writeOps, w.writeOps, uint64(g), &m.write, m)
		runPhase(run, d, rec, phaseRead, g*w.readOps, w.readOps, uint64(g), &m.read, m)
		m.rounds = g
		if g == min(rssRounds, minRounds) {
			m.rssMB = rssPeakMB()
		}
	}
	m.after = snapshot(d)
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// percentile returns the p-th percentile of v (nearest rank); 0 when
// v is empty.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(float64(len(s))*p/100+0.5) - 1
	return s[max(0, min(k, len(s)-1))]
}

// tailPerMille are the candidates for the reported tail, highest first.
var tailPerMille = []int{999, 990, 950, 900, 750}

// supportedTail picks the highest percentile that has at least ten
// samples beyond it; 50 when even p75 does not.
func supportedTail(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}
