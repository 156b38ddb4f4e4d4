// Command pvfs-iod runs a PVFS I/O daemon: the server that stores
// stripe data and services contiguous, list, and datatype I/O requests
// from clients.
//
// Usage:
//
//	pvfs-iod -addr 127.0.0.1:7001 -data /var/pvfs/iod0
//	pvfs-iod -addr 127.0.0.1:7001 -data /var/pvfs/iod0 -cache -cache-size 134217728
//
// With -data empty the daemon stores stripes in memory (useful for
// benchmarking the protocol without a disk). -cache layers a
// write-back block cache (DESIGN.md §7) over the store;
// clients flush it with TSync (File.Sync / flush-on-close), and the
// daemon flushes everything on clean shutdown.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"pvfs/internal/iod"
	"pvfs/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "listen address")
	dataDir := flag.String("data", "", "stripe data directory (empty = in-memory store)")
	quiet := flag.Bool("quiet", false, "suppress request logging")
	cache := flag.Bool("cache", false, "enable the write-back block cache")
	cacheSize := flag.Int64("cache-size", 64<<20, "cache capacity in bytes (with -cache); reserved once, resident as blocks fill, so the daemon's cache memory is about this size")
	cacheBlock := flag.Int64("cache-block", 64<<10, "cache block size in bytes (with -cache); pick a divisor of the stripe unit")
	flag.Parse()

	logger := log.New(os.Stderr, "pvfs-iod: ", log.LstdFlags)
	if *quiet {
		logger = nil
	}

	var st store.Store
	if *dataDir != "" {
		ds, err := store.NewDir(*dataDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pvfs-iod: %v\n", err)
			os.Exit(1)
		}
		st = ds
	} else {
		st = store.NewMem()
	}
	if *cache {
		st = store.Cached(st, store.CacheOptions{
			BlockSize: *cacheBlock,
			MaxBytes:  *cacheSize,
		})
	}

	srv, err := iod.Listen(*addr, st, logger)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvfs-iod: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("pvfs-iod serving on %s (data: %s, cache: %s)\n",
		srv.Addr(), dataOrMem(*dataDir), cacheDesc(*cache, *cacheSize, *cacheBlock))

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	stats := srv.Stats()
	fmt.Printf("pvfs-iod: shutting down; served %d requests (%d list), %d regions, %d B read, %d B written\n",
		stats.Requests, stats.ListRequests, stats.Regions, stats.BytesRead, stats.BytesWritten)
	fmt.Printf("pvfs-iod: store: %d read syscalls (%d B), %d write syscalls (%d B)\n",
		stats.StoreSyscallsRead, stats.StoreBytesRead,
		stats.StoreSyscallsWrite, stats.StoreBytesWritten)
	fmt.Printf("pvfs-iod: store: %d batched submissions, %d B copied through user space\n",
		stats.StoreSubmissions, stats.StoreBytesCopied)
	if *cache {
		fmt.Printf("pvfs-iod: cache: %d hits, %d misses, %d flushes\n",
			stats.CacheHits, stats.CacheMisses, stats.CacheFlushes)
	}
	// Close flushes the cache's dirty blocks before the store goes away.
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "pvfs-iod: close: %v\n", err)
		os.Exit(1)
	}
}

func cacheDesc(on bool, size, block int64) string {
	if !on {
		return "off"
	}
	return fmt.Sprintf("%d B in %d B blocks", size, block)
}

func dataOrMem(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}
