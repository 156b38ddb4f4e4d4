// Command pvfs-trace generates, inspects, and replays noncontiguous
// I/O traces (internal/trace).
//
//	pvfs-trace gen -pattern flash -ranks 4 -o flash.trc
//	pvfs-trace summary flash.trc
//	pvfs-trace cat -n 5 flash.trc
//	pvfs-trace replay -inproc -method list -verify flash.trc
//	pvfs-trace replay -mgr host:port -method datasieve flash.trc
//
// gen synthesizes a trace from one of the paper's benchmark patterns;
// summary prints the access-pattern statistics that drive method
// selection (§3.4); replay executes the trace against a PVFS
// deployment — an in-process cluster with -inproc, or a running
// manager with -mgr — under any access method.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/core"
	"pvfs/internal/patterns"
	"pvfs/internal/trace"
	"pvfs/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = genCmd(os.Args[2:])
	case "summary":
		err = summaryCmd(os.Args[2:])
	case "cat":
		err = catCmd(os.Args[2:])
	case "replay":
		err = replayCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pvfs-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pvfs-trace <gen|summary|cat|replay> [flags] [trace-file]
  gen     -pattern cyclic|blockblock|flash|tiled -ranks N [-accesses N] [-total BYTES] [-write] [-chunk N] -o FILE
  summary FILE
  cat     [-n MAX] FILE
  replay  (-inproc [-iods N] [-data DIR] | -mgr ADDR) [-method multiple|datasieve|list|hybrid|auto] [-granularity file|intersect]
          [-file NAME] [-seed N] [-verify] [-no-create] FILE`)
}

func buildPattern(name string, ranks, accesses int, total int64) (patterns.Pattern, error) {
	switch name {
	case "cyclic":
		return patterns.NewCyclic1D(ranks, accesses, total)
	case "blockblock":
		return patterns.NewBlockBlock(ranks, accesses, total)
	case "flash":
		return patterns.DefaultFlash(ranks), nil
	case "tiled":
		return patterns.DefaultTiled(), nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", name)
	}
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	pattern := fs.String("pattern", "cyclic", "cyclic, blockblock, flash, or tiled")
	ranks := fs.Int("ranks", 4, "compute processes (ignored by tiled)")
	accesses := fs.Int("accesses", 1024, "noncontiguous accesses per rank (artificial patterns)")
	total := fs.Int64("total", 64<<20, "aggregate bytes (artificial patterns)")
	write := fs.Bool("write", false, "generate writes instead of reads")
	chunk := fs.Int("chunk", 0, "split each rank's access into ops of at most this many file regions (0 = one op per rank)")
	out := fs.String("o", "", "output trace file (required)")
	comment := fs.String("comment", "", "provenance comment")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -o is required")
	}
	pat, err := buildPattern(*pattern, *ranks, *accesses, *total)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.Meta{Name: pat.Name(), Ranks: pat.Ranks(), Comment: *comment})
	if err != nil {
		return err
	}
	if err := trace.WritePattern(w, pat, *write, *chunk); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d ops (%s, %d ranks) to %s\n", w.Ops(), pat.Name(), pat.Ranks(), *out)
	return nil
}

func openTrace(path string) (*os.File, *trace.Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, r, nil
}

func summaryCmd(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("summary: exactly one trace file required")
	}
	f, r, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := trace.Summarize(r)
	if err != nil {
		return err
	}
	s.Format(os.Stdout)
	if a, ok := s.Access(); ok {
		write := s.Writes > 0
		model := core.DefaultCostModel()
		fmt.Printf("  §3.4 request arithmetic: multiple=%d  list=%d  sieve=%d\n",
			core.MultipleRequests(a),
			core.ListRequests(a.Pieces, wire.MaxRegionsPerRequest),
			core.SieveRequests(a, client.DefaultSieveBuffer, write))
		fmt.Printf("  recommended method: %v\n", core.Recommend(a, write, model))
	}
	return nil
}

func catCmd(args []string) error {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	max := fs.Int("n", 20, "maximum ops to print (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("cat: exactly one trace file required")
	}
	f, r, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	meta := r.Meta()
	fmt.Printf("trace %q, %d ranks, comment %q\n", meta.Name, meta.Ranks, meta.Comment)
	n := 0
	for {
		op, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n++
		if *max > 0 && n > *max {
			continue // keep draining to validate the end record
		}
		dir := "read"
		if op.Write {
			dir = "write"
		}
		fmt.Printf("op %d: rank %d %s %d bytes, %d mem regions, %d file regions",
			n-1, op.Rank, dir, op.File.TotalLength(), len(op.Mem), len(op.File))
		if op.DurNS > 0 {
			fmt.Printf(", %d ns", op.DurNS)
		}
		fmt.Println()
	}
	if *max > 0 && n > *max {
		fmt.Printf("... (%d more ops)\n", n-*max)
	}
	return nil
}

// pathLine formats one per-path counter for the replay summary,
// omitting paths that saw no traffic.
func pathLine(name string, v client.PathValues) string {
	if v.Requests == 0 && v.Bytes == 0 {
		return ""
	}
	return fmt.Sprintf(" %s %d req / %d B", name, v.Requests, v.Bytes)
}

func replayCmd(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	inproc := fs.Bool("inproc", false, "start an in-process cluster for the replay")
	iods := fs.Int("iods", 8, "I/O daemons for -inproc")
	mgr := fs.String("mgr", "", "manager address of a running deployment")
	method := fs.String("method", "list", "multiple, datasieve, list, hybrid or auto (datasieve and hybrid writes are serialized across ranks)")
	gran := fs.String("granularity", "file", "list entry granularity: file or intersect")
	fileName := fs.String("file", "replay.bin", "PVFS file name to replay against")
	seed := fs.Uint64("seed", 1, "payload synthesis seed")
	verify := fs.Bool("verify", false, "verify data after the replay")
	noCreate := fs.Bool("no-create", false, "do not create the file (replay against an existing one)")
	dataDir := fs.String("data", "", "back the -inproc daemons with directory stores under DIR (empty = in-memory)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: exactly one trace file required")
	}
	if (*inproc && *mgr != "") || (!*inproc && *mgr == "") {
		return fmt.Errorf("replay: exactly one of -inproc or -mgr is required")
	}
	m, err := client.ParseAccessMethod(*method)
	if err != nil {
		return err
	}
	var list client.ListOptions
	switch *gran {
	case "file":
		list.Granularity = client.GranularityFileRegions
	case "intersect":
		list.Granularity = client.GranularityIntersect
	default:
		return fmt.Errorf("unknown granularity %q", *gran)
	}

	f, r, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	ops, err := trace.ReadAll(r)
	if err != nil {
		return err
	}

	mgrAddr := *mgr
	var clu *cluster.Cluster
	if *inproc {
		clu, err = cluster.Start(cluster.Options{NumIOD: *iods, DataDir: *dataDir})
		if err != nil {
			return err
		}
		defer clu.Close()
		mgrAddr = clu.MgrAddr()
	}
	cfs, err := client.Connect(mgrAddr)
	if err != nil {
		return err
	}
	defer cfs.Close()

	res, err := trace.Replay(cfs, *fileName, ops, trace.ReplayOptions{
		Method: m,
		List:   list,
		Create: !*noCreate,
		Seed:   *seed,
		Verify: *verify,
	})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d ops, %d bytes in %v via %v\n", res.Ops, res.Bytes, res.Elapsed, m)
	fmt.Printf("requests: %d I/O (%d list), %d manager; %d bytes out, %d bytes in\n",
		res.Requests.Requests, res.Requests.List.Requests, res.Requests.MgrRequests,
		res.Requests.BytesOut, res.Requests.BytesIn)
	fmt.Printf("per path:%s%s%s%s\n",
		pathLine("multiple", res.Requests.Multiple),
		pathLine("sieve", res.Requests.Sieve),
		pathLine("list", res.Requests.List),
		pathLine("datatype", res.Requests.Datatype))
	if clu != nil {
		// Daemon-side store accounting (DESIGN.md §10): how many
		// backend submissions the replayed windows actually cost.
		st := clu.TotalStats()
		fmt.Printf("store: %d read syscalls (%d B), %d write syscalls (%d B)\n",
			st.StoreSyscallsRead, st.StoreBytesRead,
			st.StoreSyscallsWrite, st.StoreBytesWritten)
		fmt.Printf("store: %d batched submissions, %d B copied through user space\n",
			st.StoreSubmissions, st.StoreBytesCopied)
	}
	for _, rr := range res.PerRank {
		fmt.Printf("  rank %d: %d ops, %d bytes, %v\n", rr.Rank, rr.Ops, rr.Bytes, rr.Elapsed)
	}
	if *verify {
		fmt.Println("verify: OK")
	}
	return nil
}
