// Command pvfs is the file system client CLI: create, list, stat,
// copy in/out, remove, and a noncontiguous read demonstration against
// a running deployment (pvfs-mgr + pvfs-iod daemons).
//
// Usage:
//
//	pvfs -mgr 127.0.0.1:7000 ls
//	pvfs -mgr 127.0.0.1:7000 create NAME [-pcount N] [-ssize BYTES]
//	pvfs -mgr 127.0.0.1:7000 put LOCAL NAME
//	pvfs -mgr 127.0.0.1:7000 get NAME LOCAL
//	pvfs -mgr 127.0.0.1:7000 stat NAME
//	pvfs -mgr 127.0.0.1:7000 rm NAME
//	pvfs -mgr 127.0.0.1:7000 readlist NAME OFF:LEN[,OFF:LEN...]
//	pvfs -mgr 127.0.0.1:7000 serverstats NAME
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pvfs/internal/client"
	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
)

func main() {
	mgrAddr := flag.String("mgr", "127.0.0.1:7000", "manager address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	fs, err := client.Connect(*mgrAddr)
	if err != nil {
		fatal(err)
	}
	defer fs.Close()

	switch args[0] {
	case "ls":
		names, err := fs.List()
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "create":
		if len(args) < 2 {
			usage()
			os.Exit(2)
		}
		cfg := striping.Config{}
		fset := flag.NewFlagSet("create", flag.ExitOnError)
		pcount := fset.Int("pcount", 0, "I/O server count (0 = all)")
		ssize := fset.Int64("ssize", 0, "stripe size (0 = default 16 KiB)")
		base := fset.Int("base", 0, "base I/O server index")
		if err := fset.Parse(args[2:]); err != nil {
			fatal(err)
		}
		cfg.PCount, cfg.StripeSize, cfg.Base = *pcount, *ssize, *base
		f, err := fs.Create(args[1], cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("created %s handle=%d pcount=%d ssize=%d\n",
			args[1], f.Handle(), f.Striping().PCount, f.Striping().StripeSize)
	case "put":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			fatal(err)
		}
		f, err := fs.Create(args[2], striping.Config{})
		if err != nil {
			f, err = fs.Open(args[2])
			if err != nil {
				fatal(err)
			}
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d bytes to %s\n", len(data), args[2])
	case "get":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		f, err := fs.Open(args[1])
		if err != nil {
			fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			fatal(err)
		}
		data := make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(args[2], data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("read %d bytes from %s\n", size, args[1])
	case "stat":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		f, err := fs.Open(args[1])
		if err != nil {
			fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			fatal(err)
		}
		cfg := f.Striping()
		fmt.Printf("%s: handle=%d size=%d pcount=%d ssize=%d base=%d\n",
			args[1], f.Handle(), size, cfg.PCount, cfg.StripeSize, cfg.Base)
	case "rm":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		if err := fs.Remove(args[1]); err != nil {
			fatal(err)
		}
		fmt.Printf("removed %s\n", args[1])
	case "readlist":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		file, err := parseRegions(args[2])
		if err != nil {
			fatal(err)
		}
		f, err := fs.Open(args[1])
		if err != nil {
			fatal(err)
		}
		arena := make([]byte, file.TotalLength())
		before := fs.Counters().Snapshot()
		if _, err := f.Run(context.Background(), client.Request{Arena: arena, File: file, Method: client.AccessList}); err != nil {
			fatal(err)
		}
		after := fs.Counters().Snapshot()
		fmt.Printf("read %d bytes from %d regions in %d list requests\n",
			len(arena), len(file), after.List.Requests-before.List.Requests)
		os.Stdout.Write(arena)
	case "serverstats":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		f, err := fs.Open(args[1])
		if err != nil {
			fatal(err)
		}
		total, per, err := fs.ServerStats(f)
		if err != nil {
			fatal(err)
		}
		for i, s := range per {
			fmt.Printf("iod%d: requests=%d list=%d regions=%d read=%dB written=%dB trailing=%dB storesysc=%d/%d panics=%d\n",
				i, s.Requests, s.ListRequests, s.Regions, s.BytesRead, s.BytesWritten, s.TrailingBytes,
				s.StoreSyscallsRead, s.StoreSyscallsWrite, s.HandlerPanics)
		}
		fmt.Printf("total: requests=%d list=%d regions=%d read=%dB written=%dB storesysc=%d/%d panics=%d\n",
			total.Requests, total.ListRequests, total.Regions, total.BytesRead, total.BytesWritten,
			total.StoreSyscallsRead, total.StoreSyscallsWrite, total.HandlerPanics)
	default:
		usage()
		os.Exit(2)
	}
}

// parseRegions parses "OFF:LEN,OFF:LEN,...".
func parseRegions(s string) (ioseg.List, error) {
	var l ioseg.List
	for _, part := range strings.Split(s, ",") {
		var off, n int64
		fields := strings.SplitN(part, ":", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad region %q (want OFF:LEN)", part)
		}
		off, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, err
		}
		n, err = strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, err
		}
		l = append(l, ioseg.Segment{Offset: off, Length: n})
	}
	return l, l.Validate()
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pvfs -mgr ADDR COMMAND
commands:
  ls                              list files
  create NAME [-pcount N] [-ssize B] [-base I]
  put LOCAL NAME                  copy a local file in
  get NAME LOCAL                  copy a file out
  stat NAME                       show metadata and size
  rm NAME                         remove a file
  readlist NAME OFF:LEN[,...]     noncontiguous read via list I/O
  serverstats NAME                per-daemon request accounting`)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pvfs: %v\n", err)
	os.Exit(1)
}
