// Command pvfs-mgr runs the PVFS metadata service in one of three
// roles (DESIGN.md §13).
//
// Classic single manager — the Cluster 2002 paper's topology, one
// process owning the whole namespace (a solo master replica plus one
// shard behind a single listener):
//
//	pvfs-mgr -addr 127.0.0.1:7000 -iods 127.0.0.1:7001,127.0.0.1:7002
//
// Master replica — one member of the leader-elected group that owns
// the shard map and the replicated metadata log. A fresh deployment
// bootstraps the map on every replica with identical -shards/-iods;
// start order does not matter: the first replica of -replica stands
// for election at once and keeps asking its peers until a majority is
// up. A replica rejoining after a crash omits -shards and is caught
// up by the current leader:
//
//	pvfs-mgr -addr A -replica A,B,C -shards S1,S2 -iods ...
//	pvfs-mgr -addr B -replica A,B,C                       (rejoin)
//
// Metadata shard — serves one hash partition of the namespace with
// the classic manager grammar, proposing every mutation to the master
// group one record at a time, learning the shard map only from the
// masters, and answering a request for another shard's name with the
// current map, so the client re-routes:
//
//	pvfs-mgr -addr S1 -join A,B,C
//
// In every role the manager never touches file data — clients talk
// directly to the I/O daemons after open.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pvfs/internal/meta"
	"pvfs/internal/mgr"
	"pvfs/internal/wire"
)

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func indexOf(addr string, addrs []string) int {
	for i, a := range addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pvfs-mgr: "+format+"\n", args...)
	os.Exit(2)
}

// waitSignal blocks until SIGINT/SIGTERM.
func waitSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

// printStats is the shutdown accounting line: the metadata-plane
// counters mirror the Store* pattern the I/O daemon prints.
func printStats(role string, st wire.ServerStats) {
	fmt.Printf("pvfs-mgr: %s shutting down; served %d requests\n", role, st.Requests)
	fmt.Printf("pvfs-mgr: meta: %d creates, %d opens/stats, %d elections\n",
		st.MetaCreates, st.MetaOpens, st.ElectionCount)
	if st.MetaProposals > 0 {
		fmt.Printf("pvfs-mgr: meta: %d proposals in %d batches, %d append rounds, %d WAL syncs\n",
			st.MetaProposals, st.MetaBatches, st.MetaAppendRounds, st.MetaWALSyncs)
	}
	if st.HandlerPanics > 0 {
		fmt.Printf("pvfs-mgr: %d handler panics recovered\n", st.HandlerPanics)
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "listen address")
	iods := flag.String("iods", "", "comma-separated I/O daemon addresses, stripe order")
	replica := flag.String("replica", "", "comma-separated master replica addresses, self included: run one master replica of the metadata plane")
	join := flag.String("join", "", "comma-separated master replica addresses: run a metadata shard that joins that group")
	shards := flag.String("shards", "", "comma-separated metadata shard addresses; with -replica, bootstraps a fresh deployment's shard map (omit when rejoining)")
	dir := flag.String("dir", "", "with -replica, durable state directory (term, vote, log, snapshot); strongly recommended — a replica restarted without it forgets its promises")
	quiet := flag.Bool("quiet", false, "suppress logging")
	flag.Parse()

	logger := log.New(os.Stderr, "pvfs-mgr: ", log.LstdFlags)
	if *quiet {
		logger = nil
	}

	switch {
	case *replica != "" && *join != "":
		fatalf("-replica and -join are mutually exclusive roles")
	case *replica != "":
		runMaster(*addr, *replica, *shards, *iods, *dir, logger)
	case *join != "":
		if *shards != "" {
			fatalf("-shards only applies to -replica bootstrap")
		}
		if *dir != "" {
			fatalf("-dir only applies to -replica")
		}
		runShard(*addr, *join, logger)
	default:
		if *dir != "" {
			fatalf("-dir only applies to -replica")
		}
		runClassic(*addr, *iods, logger)
	}
}

// runClassic is the single-manager compatibility role.
func runClassic(addr, iods string, logger *log.Logger) {
	if iods == "" {
		fatalf("-iods is required")
	}
	addrs := splitAddrs(iods)
	srv, err := mgr.Listen(addr, addrs, logger)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("pvfs-mgr serving on %s with %d I/O daemons\n", srv.Addr(), len(addrs))
	waitSignal()
	st := srv.Stats()
	if err := srv.Close(); err != nil {
		fatalf("close: %v", err)
	}
	printStats("manager", st)
}

// runMaster runs one master replica.
func runMaster(addr, replica, shards, iods, dir string, logger *log.Logger) {
	peers := splitAddrs(replica)
	id := indexOf(addr, peers)
	if id < 0 {
		fatalf("-addr %s is not in -replica %s", addr, replica)
	}
	var boot *wire.ShardMap
	if shards != "" {
		if iods == "" {
			fatalf("bootstrap (-replica with -shards) requires -iods")
		}
		boot = &wire.ShardMap{
			Epoch:   1,
			Masters: peers,
			Shards:  splitAddrs(shards),
			IODs:    splitAddrs(iods),
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("%v", err)
	}
	node, err := meta.NewNode(meta.NodeOptions{ID: id, Peers: peers, Bootstrap: boot, Dir: dir, Logger: logger})
	if err != nil {
		fatalf("%v", err)
	}
	srv := node.Serve(ln, logger)
	mode := "rejoining"
	if boot != nil {
		mode = "bootstrapping"
	}
	fmt.Printf("pvfs-mgr master replica %d/%d serving on %s (%s)\n", id, len(peers), srv.Addr(), mode)
	waitSignal()
	st := node.Stats()
	srv.Close()
	if err := node.Close(); err != nil {
		fatalf("close: %v", err)
	}
	printStats(fmt.Sprintf("master %d", id), st)
}

// runShard runs one metadata shard. The partition index is discovered
// from the committed shard map: the listen address must appear in the
// map's shard list. The proposer that fetched the map becomes the
// shard's path to the masters.
func runShard(addr, join string, logger *log.Logger) {
	masters := splitAddrs(join)
	prop := meta.NewGroupProposer(masters, meta.Timing{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	m, err := prop.FetchMap(ctx)
	cancel()
	if err != nil {
		fatalf("fetching shard map from %s: %v", join, err)
	}
	idx := indexOf(addr, m.Shards)
	if idx < 0 {
		fatalf("-addr %s is not in the committed shard map %v", addr, m.Shards)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("%v", err)
	}
	shard := meta.NewShard(meta.ShardOptions{Index: idx, Proposer: prop, Logger: logger})
	srv := shard.Serve(ln, logger)
	fmt.Printf("pvfs-mgr shard %d/%d serving on %s\n", idx, len(m.Shards), srv.Addr())
	waitSignal()
	st := shard.Stats()
	srv.Close()
	if err := shard.Close(); err != nil {
		fatalf("close: %v", err)
	}
	printStats(fmt.Sprintf("shard %d", idx), st)
}
