package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/wire"
)

// runTraced produces the per-layer metrics. It measures the workload
// twice in one process — briefly with tracing off, for the reference
// op time, then with the bench wrappers at the conn and store seams —
// so that the cost of tracing is itself a reported number; then the
// layer replays and host ceilings.
func runTraced(w *workload, c config) (result, error) {
	minRounds := 2
	budget := time.Duration(c.seconds) * time.Second
	out := map[string]metric{}
	res := result{Metrics: out}
	var problems []string

	measure := func(rec *recorder, dur time.Duration, extra func(*deployment, runner) error) (*measured, error) {
		gets0, puts0 := wire.BufStats() // nothing is running yet
		d, err := deploy(c.tmpDir, w.opts, rec)
		if err != nil {
			return nil, err
		}
		r, err := w.start(c.seed, d)
		if err != nil {
			d.close()
			return nil, err
		}
		m := runRounds(w, r, d, rec, dur, minRounds)
		if extra != nil && m.failed() == 0 {
			err = extra(d, r)
		}
		closeErr := r.close()
		d.close()
		gets1, puts1 := wire.BufStats()
		leak := (gets1 - gets0) - (puts1 - puts0)
		out["wire.buf_balance"] = metric{float64(leak), "count"}
		problems = append(problems, checkRun(w, m, closeErr, leak)...)
		res.Attempted += m.attempted()
		res.Failed += m.failed()
		return m, err
	}

	ref, err := measure(nil, budget/4, func(d *deployment, r runner) error {
		if cr, ok := r.(*cyclicRun); ok {
			return paperBaselines(cr, d, budget/8, out)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	fmt.Println("untraced reference:")
	reportPhases(w, ref)

	rec := newRecorder()
	m, err := measure(rec, budget/2, nil)
	if err != nil {
		return res, err
	}
	fmt.Println("traced:")
	reportPhases(w, m)
	spans := rec.all()
	for k, v := range inSituMetrics(w, m, spans) {
		out[k] = v
	}
	refOp := percentile(ref.write.latMS, 50) + percentile(ref.read.latMS, 50)
	out["trace.overhead_ratio"] = metric{ratio(percentile(m.write.latMS, 50)+percentile(m.read.latMS, 50), refOp), "ratio"}
	if err := writeTrace(filepath.Join(c.outDir, "trace-"+w.name+".json"), spans); err != nil {
		return res, err
	}

	// The demoted end-to-end numbers: tails at whatever percentile the
	// sample supports, and payload rates, from the untraced reference.
	for _, p := range []struct {
		name string
		st   *phaseStats
	}{{"write", &ref.write}, {"read", &ref.read}} {
		tail := supportedTail(len(p.st.latMS))
		out["e2e."+p.name+"_op_tail_ms"] = metric{percentile(p.st.latMS, tail), "ms"}
		out["e2e."+p.name+"_op_tail_pctile"] = metric{tail, "%"}
		out["e2e."+p.name+"_mb_s"] = metric{median(p.st.rates) * float64(w.opBytes) / 1e6, "MB/s"}
	}

	if err := runReplays(w, c.tmpDir, out); err != nil {
		return res, err
	}
	if err := hostCeilings(c.tmpDir, out); err != nil {
		return res, err
	}
	if w.opBytes > 0 {
		disk := out["host.pwrite_mb_s"].Value
		if w.extends {
			disk = out["host.pwrite_extend_mb_s"].Value
		}
		out["host.write_pct_of_tcp"] = metric{100 * ratio(out["e2e.write_mb_s"].Value, out["host.tcp_stream_mb_s"].Value), "%"}
		out["host.read_pct_of_tcp"] = metric{100 * ratio(out["e2e.read_mb_s"].Value, out["host.tcp_stream_mb_s"].Value), "%"}
		out["host.write_pct_of_disk"] = metric{100 * ratio(out["e2e.write_mb_s"].Value, disk), "%"}
	} else {
		// How many fsyncs the host could have done in the time of one create.
		createUS := 1e3 * percentile(ref.write.latMS, 50)
		out["host.fsyncs_per_create_budget"] = metric{ratio(createUS, out["host.fsync_us_p50"].Value), "count"}
	}

	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	completePerLayer(out)
	return res, nil
}

// paperBaselines keeps the paper's headline comparison in every traced
// run: one rank reads the cyclic shape through list I/O, multiple I/O
// and data sieving in turn.
func paperBaselines(cr *cyclicRun, d *deployment, dur time.Duration, out map[string]metric) error {
	type outcome struct {
		ops      int
		mbs      float64
		requests int64
		sieve    client.SieveStats
	}
	run := func(method client.AccessMethod) (outcome, error) {
		var o outcome
		before := d.clientCounters()
		t0 := time.Now()
		for o.ops == 0 || time.Since(t0) < dur {
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			cr.stamps[0].clobber(cr.r[0])
			res, err := cr.file[0].Run(ctx, client.Request{Arena: cr.r[0], File: cr.layout[0], Method: method})
			cancel()
			if err != nil {
				return o, err
			}
			if !cr.verify(0, phaseRead, 0) {
				return o, fmt.Errorf("%v read: %w", method, errVerify)
			}
			o.ops++
			o.sieve = res.Sieve
		}
		o.mbs = mbPerS(int64(o.ops)*cyclicRegions*cyclicRegion, float64(time.Since(t0).Nanoseconds()))
		o.requests = d.clientCounters().Requests - before.Requests
		return o, nil
	}
	list, err := run(client.AccessList)
	if err != nil {
		return err
	}
	multiple, err := run(client.AccessMultiple)
	if err != nil {
		return err
	}
	sieve, err := run(client.AccessSieve)
	if err != nil {
		return err
	}
	out["client.multiple.mb_s"] = metric{multiple.mbs, "MB/s"}
	out["client.multiple.req_per_op"] = metric{ratio(float64(multiple.requests), float64(multiple.ops)), "count"}
	out["client.sieve.mb_s"] = metric{sieve.mbs, "MB/s"}
	out["client.sieve.useless_byte_ratio"] = metric{sieve.sieve.UselessFraction(), "ratio"}
	out["client.list_vs_multiple_ratio"] = metric{ratio(list.mbs, multiple.mbs), "ratio"}
	return nil
}
