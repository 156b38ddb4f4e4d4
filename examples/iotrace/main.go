// Example iotrace records a noncontiguous workload as a binary I/O
// trace, summarizes its access structure (the inputs to the paper's
// §3.4 method analysis), and replays it against a live in-process PVFS
// deployment under each access method, comparing request counts and
// wall time — the paper's experiment, driven from a trace.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"pvfs"
	"pvfs/internal/patterns"
	"pvfs/internal/trace"
)

func main() {
	// A block-block pattern at demo scale: 4 clients tile an 8 MiB
	// array, each issuing 256 noncontiguous accesses (Figure 8).
	pat, err := patterns.NewBlockBlock(4, 256, 8<<20)
	if err != nil {
		log.Fatal(err)
	}

	// Record: synthesize the write workload into a trace.
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Meta{
		Name:    pat.Name(),
		Ranks:   pat.Ranks(),
		Comment: "examples/iotrace demo capture",
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WritePattern(w, pat, true, 64); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d ops (%d bytes of trace)\n\n", w.Ops(), buf.Len())
	raw := buf.Bytes()

	// Summarize: the access structure that decides method choice.
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	s, err := trace.Summarize(r)
	if err != nil {
		log.Fatal(err)
	}
	s.Format(os.Stdout)
	fmt.Println()

	// Replay: same trace, each method, one shared deployment.
	c, err := pvfs.StartCluster(pvfs.ClusterOptions{NumIOD: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fs, err := c.Connect()
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	r2, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	ops, err := trace.ReadAll(r2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %10s %12s %12s\n", "method", "requests", "bytes", "wall")
	for _, m := range []pvfs.AccessMethod{pvfs.AccessMultiple, pvfs.AccessList} {
		res, err := trace.Replay(fs, fmt.Sprintf("trace-%v.bin", m), ops, trace.ReplayOptions{
			Method: m,
			Create: true,
			Seed:   2002,
			Verify: true, // read back and check every written byte
		})
		if err != nil {
			log.Fatalf("replay with %v: %v", m, err)
		}
		fmt.Printf("%-12v %10d %12d %12v\n", m, res.Requests.Requests, res.Bytes, res.Elapsed.Round(0))
	}
	fmt.Println("\nboth replays verified byte-for-byte against the trace's file image")
}
