package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"time"
)

// hostCeilings measures what this host can do with none of the
// program in the way, in the same run as the workload, so that a row
// also reads as a share of the attainable and a slow day of the shared
// disk shows as the host's, not the code's.
func hostCeilings(tmpRoot string, out map[string]metric) error {
	dir, err := os.MkdirTemp(tmpRoot, "ceiling-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	mbs, err := tcpStream()
	if err != nil {
		return err
	}
	out["host.tcp_stream_mb_s"] = metric{mbs, "MB/s"}

	f, err := os.OpenFile(filepath.Join(dir, "pwrite"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	chunk := make([]byte, 1<<20)
	fill(chunk, 5)
	writeAll := func() {
		for off := int64(0); off < contigBytes && err == nil; off += int64(len(chunk)) {
			_, err = f.WriteAt(chunk, off)
		}
	}
	over := perCall(writeAll)
	extend := perCall(func() {
		if err = f.Truncate(0); err == nil {
			writeAll()
		}
	})
	if err != nil {
		return err
	}
	out["host.pwrite_mb_s"] = metric{mbPerS(contigBytes, over), "MB/s"}
	out["host.pwrite_extend_mb_s"] = metric{mbPerS(contigBytes, extend), "MB/s"}

	us, err := samples(100, func() error {
		if _, err := f.WriteAt(chunk[:4096], 0); err != nil {
			return err
		}
		return f.Sync()
	})
	if err != nil {
		return err
	}
	out["host.fsync_us_p50"] = metric{median(us), "us"}

	src, dst := make([]byte, contigBytes), make([]byte, contigBytes)
	out["host.memcpy_gb_s"] = metric{contigBytes / perCall(func() { copy(dst, src) }), "GB/s"}
	return nil
}

// tcpStream pushes 1 MiB writes through a raw loopback connection.
func tcpStream() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan int64, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- 0
			return
		}
		n, _ := io.Copy(io.Discard, c)
		c.Close()
		done <- n
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 1<<20)
	t0 := time.Now()
	for time.Since(t0) < 4*replayBudget {
		if _, err := c.Write(buf); err != nil {
			c.Close()
			return 0, err
		}
	}
	c.Close()
	n := <-done
	return mbPerS(n, float64(time.Since(t0).Nanoseconds())), nil
}
