package main

import "fmt"

// checkRun is the correctness gate: no op may have failed, the
// daemons must have moved exactly the payload the ops asked for, and
// every pooled wire buffer taken must have been returned.
func checkRun(w *workload, m *measured, closeErr error, bufLeak int64) []string {
	var problems []string
	if m.firstErr != nil {
		problems = append(problems, fmt.Sprintf("%d of %d ops failed, first: %v", m.failed(), m.attempted(), m.firstErr))
	}
	if closeErr != nil {
		problems = append(problems, fmt.Sprintf("closing files: %v", closeErr))
	}
	if w.opBytes > 0 && m.failed() == 0 {
		wrote := m.after.iod.BytesWritten - m.before.iod.BytesWritten
		read := m.after.iod.BytesRead - m.before.iod.BytesRead
		if want := int64(m.write.ops) * w.opBytes; wrote != want {
			problems = append(problems, fmt.Sprintf("daemons received %d payload bytes, ops wrote %d", wrote, want))
		}
		if want := int64(m.read.ops) * w.opBytes; read != want {
			problems = append(problems, fmt.Sprintf("daemons served %d payload bytes, ops read %d", read, want))
		}
	}
	// Shutting the replicated plane down cuts heartbeats mid-flight and
	// strands the odd buffer; a leak on the op path would strand one per
	// op. Without background traffic the balance is exact.
	slack := int64(0)
	if w.opts.meta {
		slack = 8
	}
	if bufLeak < -slack || bufLeak > slack {
		problems = append(problems, fmt.Sprintf("wire buffer pool out of balance by %d (gets - puts)", bufLeak))
	}
	return problems
}

// reportPhases prints what the JSON metrics cannot carry: sample
// counts, the percentile the samples support, and MB/s.
func reportPhases(w *workload, m *measured) {
	fmt.Printf("rounds %d (per rank per round: %d write-side ops, %d read-side ops)\n", m.rounds, w.writeOps, w.readOps)
	for _, p := range []struct {
		name string
		st   *phaseStats
	}{{"write", &m.write}, {"read", &m.read}} {
		n := len(p.st.latMS)
		tail := supportedTail(n)
		fmt.Printf("%-5s ops %d failed %d samples %d: p50 %.3f ms, p%g %.3f ms (highest percentile with >= 10 samples beyond it)",
			p.name, p.st.ops, p.st.failed, n, percentile(p.st.latMS, 50), tail, percentile(p.st.latMS, tail))
		if w.opBytes > 0 {
			fmt.Printf(", %.1f MB/s", median(p.st.rates)*float64(w.opBytes)/1e6)
		}
		fmt.Printf("\n      ops/s over %d rounds: min %.4g, quartiles %.4g %.4g %.4g, max %.4g\n", len(p.st.rates),
			percentile(p.st.rates, 0), percentile(p.st.rates, 25), median(p.st.rates), percentile(p.st.rates, 75), percentile(p.st.rates, 100))
	}
}

func cpuPerOpMS(st *phaseStats) float64 {
	if st.ops == 0 {
		return 0
	}
	return st.cpu.Seconds() * 1e3 / float64(st.ops)
}

// endToEndMetrics are the numbers a user of the file system sees; the
// names and bounds are fixed in BENCHMARK.json.
func endToEndMetrics(m *measured, setupS float64) map[string]metric {
	return map[string]metric{
		"write_ops_s":         {median(m.write.rates), "1/s"},
		"read_ops_s":          {median(m.read.rates), "1/s"},
		"write_op_p50_ms":     {percentile(m.write.latMS, 50), "ms"},
		"read_op_p50_ms":      {percentile(m.read.latMS, 50), "ms"},
		"write_cpu_ms_per_op": {cpuPerOpMS(&m.write), "ms"},
		"read_cpu_ms_per_op":  {cpuPerOpMS(&m.read), "ms"},
		"rss_peak_mb":         {m.rssMB, "MB"},
		"setup_s":             {setupS, "s"},
	}
}
