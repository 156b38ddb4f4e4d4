package trace

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/striping"
)

// ReplayOptions tunes Replay.
type ReplayOptions struct {
	// Method selects the noncontiguous access strategy; the zero value
	// auto-picks (list I/O for a noncontiguous op). Under AccessSieve
	// and AccessHybrid, whose writes are read-modify-write, write ops
	// are serialized across ranks: PVFS has no locks, and the paper
	// serializes such writers too (§4.2.1).
	Method client.AccessMethod
	// List tunes list I/O (granularity, batch size).
	List client.ListOptions
	// Sieve tunes data sieving (buffer size).
	Sieve client.SieveOptions
	// Striping configures the file when Create is set; zero values
	// select manager defaults.
	Striping striping.Config
	// Create creates (or truncates) the file before replay; otherwise
	// the file must already exist.
	Create bool
	// Seed drives deterministic payload synthesis for writes: the byte
	// written at file offset o is a pure function of (Seed, o), so
	// overlapping and split writes verify cleanly.
	Seed uint64
	// Verify checks data after the replay: for write traces the file
	// is read back region by region and compared against the
	// synthesized payload; for read traces the bytes landed in each
	// arena are compared (which requires the file to have been
	// produced by a write replay with the same Seed).
	Verify bool
}

// RankResult is one rank's share of a replay.
type RankResult struct {
	Rank    int
	Ops     int64
	Bytes   int64
	Elapsed time.Duration
}

// Result aggregates a replay.
type Result struct {
	Ops     int64
	Bytes   int64
	Elapsed time.Duration
	PerRank []RankResult
	// Requests is the client request accounting delta over the replay
	// (what the I/O daemons had to process — the paper's key metric).
	Requests client.CounterValues
}

// payloadByte is the deterministic file image: the byte at file offset
// off under seed. A weak mix is fine; it only needs to vary with
// offset so that misplaced bytes are caught.
func payloadByte(seed uint64, off int64) byte {
	x := uint64(off)*0x9e3779b97f4a7c15 + seed
	x ^= x >> 29
	return byte(x * 0xbf58476d1ce4e5b9 >> 56)
}

// fillArena synthesizes write payloads: for every matched
// (memory, file) piece, the arena bytes take the file image values of
// the file offsets they will land on.
func fillArena(arena []byte, mem, file ioseg.List, seed uint64) error {
	pairs, err := memio.Match(mem, file)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		for k := int64(0); k < p.File.Length; k++ {
			arena[p.Mem.Offset+k] = payloadByte(seed, p.File.Offset+k)
		}
	}
	return nil
}

// verifyArena checks a read op's arena against the file image.
func verifyArena(arena []byte, mem, file ioseg.List, seed uint64) error {
	pairs, err := memio.Match(mem, file)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		for k := int64(0); k < p.File.Length; k++ {
			want := payloadByte(seed, p.File.Offset+k)
			if got := arena[p.Mem.Offset+k]; got != want {
				return fmt.Errorf("trace: replay verify: file offset %d read %#x, want %#x",
					p.File.Offset+k, got, want)
			}
		}
	}
	return nil
}

// arenaSize returns the buffer size an op needs.
func arenaSize(mem ioseg.List) int64 {
	var max int64
	for _, s := range mem {
		if s.End() > max {
			max = s.End()
		}
	}
	return max
}

// Replay executes ops against fileName on fs, one goroutine per rank,
// each rank issuing its operations in trace order (the PVFS library is
// synchronous per call). It returns per-rank and aggregate results.
func Replay(fs *client.FS, fileName string, ops []Op, opts ReplayOptions) (*Result, error) {
	if opts.Create {
		f, err := fs.Create(fileName, opts.Striping)
		if err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	byRank := make(map[int][]Op)
	maxRank := -1
	for _, op := range ops {
		byRank[op.Rank] = append(byRank[op.Rank], op)
		if op.Rank > maxRank {
			maxRank = op.Rank
		}
	}
	before := fs.Counters().Snapshot()
	res := &Result{PerRank: make([]RankResult, 0, len(byRank))}
	var writers *sync.Mutex // serializes read-modify-write writers across ranks
	if opts.Method == client.AccessSieve || opts.Method == client.AccessHybrid {
		writers = new(sync.Mutex)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(byRank))
	start := time.Now()
	for rank, rops := range byRank {
		wg.Add(1)
		go func(rank int, rops []Op) {
			defer wg.Done()
			rr, err := replayRank(fs, fileName, rank, rops, opts, writers)
			if err != nil {
				errs <- fmt.Errorf("trace: rank %d: %w", rank, err)
				return
			}
			mu.Lock()
			res.PerRank = append(res.PerRank, rr)
			res.Ops += rr.Ops
			res.Bytes += rr.Bytes
			mu.Unlock()
		}(rank, rops)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	res.Requests = fs.Counters().Snapshot().Sub(before)
	if opts.Verify {
		if err := verifyFile(fs, fileName, ops, opts.Seed); err != nil {
			return res, err
		}
	}
	return res, nil
}

// replayRank runs one rank's ops in order. A non-nil writers is held
// around each write op.
func replayRank(fs *client.FS, fileName string, rank int, rops []Op, opts ReplayOptions, writers *sync.Mutex) (RankResult, error) {
	f, err := fs.Open(fileName)
	if err != nil {
		return RankResult{}, err
	}
	defer f.Close()
	rr := RankResult{Rank: rank}
	start := time.Now()
	for _, op := range rops {
		arena := make([]byte, arenaSize(op.Mem))
		if op.Write {
			if err := fillArena(arena, op.Mem, op.File, opts.Seed); err != nil {
				return rr, err
			}
		}
		serialize := op.Write && writers != nil
		if serialize {
			writers.Lock()
		}
		_, err := f.Run(context.Background(), client.Request{
			Write: op.Write, Arena: arena, Mem: op.Mem, File: op.File,
			Method: opts.Method, List: opts.List, Sieve: opts.Sieve,
		})
		if serialize {
			writers.Unlock()
		}
		if err != nil {
			return rr, err
		}
		if !op.Write && opts.Verify {
			if err := verifyArena(arena, op.Mem, op.File, opts.Seed); err != nil {
				return rr, err
			}
		}
		rr.Ops++
		rr.Bytes += op.File.TotalLength()
	}
	rr.Elapsed = time.Since(start)
	return rr, nil
}

// verifyFile reads back every written region of the trace and checks
// it against the file image.
func verifyFile(fs *client.FS, fileName string, ops []Op, seed uint64) error {
	f, err := fs.Open(fileName)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, op := range ops {
		if !op.Write {
			continue
		}
		for _, r := range op.File {
			buf := make([]byte, r.Length)
			if _, err := f.ReadAt(buf, r.Offset); err != nil {
				return err
			}
			for k := int64(0); k < r.Length; k++ {
				want := payloadByte(seed, r.Offset+k)
				if buf[k] != want {
					return fmt.Errorf("trace: replay verify: file offset %d holds %#x, want %#x",
						r.Offset+k, buf[k], want)
				}
			}
		}
	}
	return nil
}
