// Command pvfs-bench runs the paper's benchmarks for real against an
// in-process PVFS deployment (TCP loopback, actual data movement) at a
// configurable scale, reporting wall time and request accounting. It
// is the real-mode counterpart of cmd/paper-figures (which regenerates
// the figures at full Chiba City scale with the performance model).
//
// Usage:
//
//	pvfs-bench -pattern cyclic -clients 4 -accesses 2000 -total 67108864 -write
//	pvfs-bench -pattern flash -clients 4 -blocks 8
//	pvfs-bench -pattern tiled
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/faultnet"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
)

// benchRow is one method's measured result, mirrored into -json
// output (BENCH_6.json rows are built from these).
type benchRow struct {
	Pattern       string  `json:"pattern"`
	Method        string  `json:"method"`
	Direction     string  `json:"direction"`
	Seconds       float64 `json:"seconds"`
	Requests      int64   `json:"requests"`
	Regions       int64   `json:"regions"`
	Bytes         int64   `json:"bytes"`
	StoreSyscalls int64   `json:"store_syscalls"`
	SyscallsPerOp float64 `json:"syscalls_per_op"`
	Submissions   int64   `json:"store_submissions"`
	SubsPerOp     float64 `json:"subs_per_op"`
	BytesCopied   int64   `json:"store_bytes_copied"`
	MBPerS        float64 `json:"mb_per_s"`
}

func main() {
	pattern := flag.String("pattern", "cyclic", "cyclic | blockblock | flash | tiled")
	clients := flag.Int("clients", 4, "number of client processes")
	accesses := flag.Int("accesses", 2000, "noncontiguous regions per client (cyclic/blockblock)")
	total := flag.Int64("total", 64<<20, "aggregate bytes (cyclic/blockblock)")
	blocks := flag.Int("blocks", 8, "FLASH blocks per process (paper: 80)")
	iods := flag.Int("iods", 8, "number of I/O daemons")
	ssize := flag.Int64("ssize", striping.DefaultStripeSize, "stripe size")
	write := flag.Bool("write", false, "benchmark writes instead of reads")
	gran := flag.String("granularity", "file", "list entry granularity: file | intersect")
	methodsFlag := flag.String("methods", "", "comma list of multiple,datasieve,list,datatype,hybrid (default: paper's set)")
	async := flag.Int("async", 1, "nonblocking ops in flight per rank (File.Start); applies to the region-list methods except datasieve")
	chaosSeed := flag.Int64("chaos", 0, "run over a faulty wire: seed for a faultnet chaos script (0 = healthy); clients retry with backoff")
	dataDir := flag.String("data", "", "back each daemon with a directory store under DIR (empty = in-memory); Dir stores bear real syscalls, so the store-syscall columns measure the vectored datapath")
	jsonOut := flag.String("json", "", "append result rows as JSON to FILE")
	metaMode := flag.Bool("meta", false, "benchmark the metadata plane (create/open/stat ops/s) instead of the datapath")
	shards := flag.Int("shards", 2, "metadata shard count (-meta)")
	files := flag.Int("files", 200, "creates per client (-meta)")
	failover := flag.Bool("failover", false, "crash-restart the master leader mid-create (-meta); throughput then includes the election pause")
	namespace := flag.Int("namespace", 0, "with -meta: fill an N-file namespace (create-only long run) and report ops/s, heap bytes, and group-commit ratios; overrides -files")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to FILE (whole run, cluster included)")
	flag.Parse()

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *metaMode {
		if err := runMetaBench(metaBenchOpts{
			Shards: *shards, Clients: *clients, Files: *files,
			IODs: 2, Failover: *failover, Namespace: *namespace, JSONOut: *jsonOut,
		}); err != nil {
			fatal(err)
		}
		return
	}

	pat, err := buildPattern(*pattern, *clients, *accesses, *total, *blocks)
	if err != nil {
		fatal(err)
	}
	g := client.GranularityFileRegions
	if *gran == "intersect" {
		g = client.GranularityIntersect
	}

	methods := defaultMethods(*write)
	if *methodsFlag != "" {
		methods = nil
		for _, name := range splitComma(*methodsFlag) {
			m, err := client.ParseAccessMethod(name)
			if err != nil {
				fatal(err)
			}
			methods = append(methods, m)
		}
	}

	copts := cluster.Options{NumIOD: *iods, DataDir: *dataDir}
	var script *faultnet.Script
	var retry *client.RetryPolicy
	if *chaosSeed != 0 {
		script = faultnet.NewScript(faultnet.DefaultChaos(*chaosSeed))
		copts.FaultScript = script
		retry = &client.RetryPolicy{Max: 12, Backoff: 2 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
	}
	c, err := cluster.Start(copts)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	dir := "read"
	if *write {
		dir = "write"
	}
	fmt.Printf("# pattern=%s clients=%d iods=%d ssize=%d direction=%s granularity=%v async=%d store=%s\n",
		pat.Name(), pat.Ranks(), *iods, *ssize, dir, g, *async, dataOrMem(*dataDir))
	if script != nil {
		fmt.Printf("# chaos seed=%d (scripted wire faults; clients retry with backoff)\n", *chaosSeed)
	}
	fmt.Printf("%-12s %10s %10s %10s %14s %10s %10s %10s %10s %12s %10s\n",
		"method", "seconds", "requests", "regions", "bytes", "storesysc", "sysc/op",
		"subs", "subs/op", "copied", "MB/s")

	var rows []benchRow
	for _, m := range methods {
		secs, stats, err := runMethod(c, pat, m, *write, *ssize, g, *async, retry)
		if err != nil {
			fatal(fmt.Errorf("%v: %w", m, err))
		}
		row := benchRow{
			Pattern:   pat.Name(),
			Method:    m.String(),
			Direction: dir,
			Seconds:   secs,
			Requests:  stats.Requests,
			Regions:   stats.Regions,
			Bytes:     stats.BytesRead + stats.BytesWritten,
			StoreSyscalls: stats.StoreSyscallsRead +
				stats.StoreSyscallsWrite,
			Submissions: stats.StoreSubmissions,
			BytesCopied: stats.StoreBytesCopied,
		}
		// syscalls/op: store kernel crossings per I/O request window —
		// the quantity the vectored datapath exists to shrink.
		// subs/op: batched submissions per window — a whole gapped
		// window is ONE BatchIO call (§11; one preadv/pwritev per
		// run inside it). copied: bytes that crossed a user/kernel copy;
		// zero-copy streamed reads are excluded, so runs with
		// FileStreamer visible report fewer copied bytes.
		if row.Requests > 0 {
			row.SyscallsPerOp = float64(row.StoreSyscalls) / float64(row.Requests)
			row.SubsPerOp = float64(row.Submissions) / float64(row.Requests)
		}
		if secs > 0 {
			row.MBPerS = float64(row.Bytes) / secs / 1e6
		}
		rows = append(rows, row)
		fmt.Printf("%-12s %10.4f %10d %10d %14d %10d %10.2f %10d %10.2f %12d %10.2f\n",
			row.Method, row.Seconds, row.Requests, row.Regions, row.Bytes,
			row.StoreSyscalls, row.SyscallsPerOp, row.Submissions, row.SubsPerOp,
			row.BytesCopied, row.MBPerS)
	}
	if script != nil {
		fmt.Printf("# chaos: %d structural wire faults injected and absorbed\n", script.Injected())
	}
	if *jsonOut != "" {
		if err := appendJSON(*jsonOut, rows); err != nil {
			fatal(err)
		}
	}
}

// appendJSON appends rows, one JSON object per line, so a sweep of
// pvfs-bench invocations accumulates into a single machine-readable
// file.
func appendJSON[T any](path string, rows []T) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

func dataOrMem(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}

func buildPattern(name string, clients, accesses int, total int64, blocks int) (patterns.Pattern, error) {
	switch name {
	case "cyclic":
		return patterns.NewCyclic1D(clients, accesses, total)
	case "blockblock":
		return patterns.NewBlockBlock(clients, accesses, total)
	case "flash":
		f := patterns.DefaultFlash(clients)
		f.Blocks = blocks
		return f, nil
	case "tiled":
		return patterns.DefaultTiled(), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", name)
	}
}

func defaultMethods(write bool) []client.AccessMethod {
	if write {
		// The paper omits data sieving from the artificial parallel
		// writes (it needs serialization); include it only for reads.
		return []client.AccessMethod{client.AccessMultiple, client.AccessList}
	}
	return []client.AccessMethod{client.AccessMultiple, client.AccessSieve, client.AccessList}
}

// patternVector derives the vector-datatype description of one rank's
// file access: base offset plus (count, blocklen, stride). It fails
// for ranks whose region list is not an arithmetic progression of
// equal-length fragments — the only shape a single vector type can
// express.
func patternVector(file ioseg.List) (base, count, blockLen, stride int64, err error) {
	if len(file) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("empty file list")
	}
	base, blockLen = file[0].Offset, file[0].Length
	if len(file) == 1 {
		return base, 1, blockLen, blockLen, nil
	}
	stride = file[1].Offset - file[0].Offset
	for i, s := range file {
		if s.Length != blockLen || s.Offset != base+int64(i)*stride {
			return 0, 0, 0, 0, fmt.Errorf("pattern is not a single vector (region %d breaks the progression)", i)
		}
	}
	return base, int64(len(file)), blockLen, stride, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// workChunk is one rank's share of a pattern assigned to one
// nonblocking Op.
type workChunk struct {
	mem, file ioseg.List
}

// splitWork cuts the (mem, file) pair into n stream-contiguous chunks
// of near-equal bytes: the file list splits at region boundaries and
// the memory list is clipped at the matching stream positions, so each
// chunk is an independent, disjoint transfer.
func splitWork(mem, file ioseg.List, n int) []workChunk {
	total := file.TotalLength()
	if n <= 1 || total == 0 || len(file) < 2 {
		return []workChunk{{mem: mem, file: file}}
	}
	per := (total + int64(n) - 1) / int64(n)
	var chunks []workChunk
	var cur workChunk
	var curBytes int64
	memIdx, memUsed := 0, int64(0) // walk position in the memory list
	takeMem := func(want int64) ioseg.List {
		var out ioseg.List
		for want > 0 && memIdx < len(mem) {
			m := mem[memIdx]
			avail := m.Length - memUsed
			take := avail
			if take > want {
				take = want
			}
			out = append(out, ioseg.Segment{Offset: m.Offset + memUsed, Length: take})
			memUsed += take
			want -= take
			if memUsed == m.Length {
				memIdx, memUsed = memIdx+1, 0
			}
		}
		return out
	}
	for _, s := range file {
		cur.file = append(cur.file, s)
		curBytes += s.Length
		if curBytes >= per && len(chunks) < n-1 {
			cur.mem = takeMem(curBytes)
			chunks = append(chunks, cur)
			cur, curBytes = workChunk{}, 0
		}
	}
	if len(cur.file) > 0 {
		cur.mem = takeMem(curBytes)
		chunks = append(chunks, cur)
	}
	return chunks
}

// runMethod executes one method across all ranks (own connection per
// rank, as in MPI) against a fresh file, returning wall seconds and
// the server-side accounting delta. Each rank starts its pattern as
// async chunks, concurrent nonblocking Ops (File.Start), and waits for
// them; data sieving takes one Op (its read-modify-write writers are
// serialized across ranks, §4.2.1), and the datatype method ships the
// pattern as one vector type instead of a region list.
func runMethod(c *cluster.Cluster, pat patterns.Pattern, method client.AccessMethod, write bool, ssize int64, g client.Granularity, async int, retry *client.RetryPolicy) (float64, statsDelta, error) {
	fs0, err := c.Connect()
	if err != nil {
		return 0, statsDelta{}, err
	}
	defer fs0.Close()
	if retry != nil {
		fs0.SetRetryPolicy(*retry)
	}
	name := fmt.Sprintf("bench-%s-%s-%d", pat.Name(), method, time.Now().UnixNano())
	cfg := striping.Config{PCount: len(c.IODs), StripeSize: ssize}
	if _, err := fs0.Create(name, cfg); err != nil {
		return 0, statsDelta{}, err
	}

	// Reads need data on disk first: seed with contiguous writes.
	if !write {
		f, err := fs0.Open(name)
		if err != nil {
			return 0, statsDelta{}, err
		}
		var max int64
		for r := 0; r < pat.Ranks(); r++ {
			l := patterns.FileList(pat, r)
			if span, ok := l.Span(); ok && span.End() > max {
				max = span.End()
			}
		}
		const chunk = 4 << 20
		buf := make([]byte, chunk)
		for off := int64(0); off < max; off += chunk {
			n := int64(chunk)
			if off+n > max {
				n = max - off
			}
			if _, err := f.WriteAt(buf[:n], off); err != nil {
				return 0, statsDelta{}, err
			}
		}
	}

	before := c.TotalStats()
	barrier := cluster.NewBarrier(pat.Ranks())
	start := time.Now()
	err = cluster.RunRanks(pat.Ranks(), func(rank int) error {
		fs, err := c.Connect()
		if err != nil {
			return err
		}
		defer fs.Close()
		if retry != nil {
			fs.SetRetryPolicy(*retry)
		}
		f, err := fs.Open(name)
		if err != nil {
			return err
		}
		mem := patterns.MemList(pat, rank)
		file := patterns.FileList(pat, rank)
		arena := make([]byte, patterns.ArenaSize(pat, rank))
		for i := range arena {
			arena[i] = byte(rank)
		}
		var reqs []client.Request
		switch method {
		case client.AccessDatatype:
			base, count, blockLen, stride, err := patternVector(file)
			if err != nil {
				return fmt.Errorf("datatype method: %w", err)
			}
			reqs = []client.Request{{Mem: mem, Type: datatype.Vector(count, blockLen, stride, datatype.Bytes(1)), Base: base}}
		case client.AccessSieve:
			reqs = []client.Request{{Mem: mem, File: file}}
		default:
			for _, w := range splitWork(mem, file, async) {
				reqs = append(reqs, client.Request{Mem: w.mem, File: w.file, List: client.ListOptions{Granularity: g}})
			}
		}
		run := func() error {
			ops := make([]*client.Op, len(reqs))
			for i, req := range reqs {
				req.Write, req.Arena, req.Method = write, arena, method
				ops[i] = f.Start(context.Background(), req)
			}
			var first error
			for _, op := range ops {
				if _, err := op.Wait(); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		if write && method == client.AccessSieve {
			// Serialized as in §4.2.1: one writer at a time.
			for k := 0; k < pat.Ranks(); k++ {
				if k == rank {
					if err := run(); err != nil {
						return err
					}
				}
				barrier.Wait()
			}
			return nil
		}
		return run()
	})
	secs := time.Since(start).Seconds()
	if err != nil {
		return 0, statsDelta{}, err
	}
	after := c.TotalStats()
	return secs, statsDelta{
		Requests:          after.Requests - before.Requests,
		Regions:           after.Regions - before.Regions,
		BytesRead:         after.BytesRead - before.BytesRead,
		BytesWritten:      after.BytesWritten - before.BytesWritten,
		StoreSyscallsRead: after.StoreSyscallsRead - before.StoreSyscallsRead,
		StoreSyscallsWrite: after.StoreSyscallsWrite -
			before.StoreSyscallsWrite,
		StoreSubmissions: after.StoreSubmissions - before.StoreSubmissions,
		StoreBytesCopied: after.StoreBytesCopied - before.StoreBytesCopied,
	}, nil
}

type statsDelta struct {
	Requests, Regions, BytesRead, BytesWritten int64
	StoreSyscallsRead, StoreSyscallsWrite      int64
	StoreSubmissions, StoreBytesCopied         int64
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pvfs-bench: %v\n", err)
	os.Exit(1)
}
