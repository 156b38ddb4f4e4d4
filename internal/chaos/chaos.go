// Package chaos is the fault-injection conformance suite: it drives
// every noncontiguous access-method datapath over a scripted faulty
// wire (internal/faultnet) while I/O daemons are killed and restarted
// mid-transfer, and proves the recovering client produced exactly the
// bytes a healthy run would have — the contract every future scale PR
// is tested against (DESIGN.md §9).
//
// A scenario runs the same deterministic workload twice: once against
// a chaotic cluster (fault script on every daemon listener, a killer
// goroutine crash-restarting daemons, clients armed with a
// RetryPolicy) and once against a healthy shadow cluster. The final
// file images must be byte-identical to each other and to the locally
// composed expectation. Every decision derives from one logged seed,
// so a failing run replays exactly (PVFS_CHAOS_SEED in the tests).
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/datatype"
	"pvfs/internal/faultnet"
	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
)

// Scenario selects one conformance run: a datapath, a workload shape,
// and which failure modes to arm.
type Scenario struct {
	Name string

	// Method is the datapath under test. AccessSieve and AccessHybrid
	// perform read-modify-write and need Ranks=1 (callers must
	// serialize sieving writers; §4.2.1). AccessDatatype ships each
	// rank's pattern as one vector type instead of a region list.
	Method client.AccessMethod

	// Ranks is the number of concurrent client processes (default 1).
	Ranks int

	// Spread stretches the block-cyclic interleave beyond the rank
	// count, leaving unwritten holes between blocks — the shape that
	// makes sieving and hybrid coalescing do real work. Defaults to
	// Ranks (no holes).
	Spread int

	// Async > 1 splits each rank's pattern into that many concurrent
	// nonblocking Ops (File.Start overlap).
	Async int

	// Blocks and BlockLen shape each rank's pattern: Blocks blocks of
	// BlockLen bytes (defaults 32 × 1536 — block boundaries straddle
	// stripe units).
	Blocks   int
	BlockLen int64

	// Kill arms the killer goroutine: daemons are crash-restarted
	// while transfers are in flight.
	Kill bool

	// KillTarget pins the killer to daemon KillTarget-1; the zero
	// value picks a random daemon per cycle.
	KillTarget int

	// DataDir, when non-empty, backs the chaotic cluster with Dir
	// stores under it (durable across kills the way a real iod data
	// directory is); empty uses Mem stores, which the cluster harness
	// also keeps across restarts.
	DataDir string

	// NumIOD is the daemon count (default 4).
	NumIOD int

	// Window, when non-zero, overrides the pipelining window.
	Window int

	// CoalesceGap is the hybrid coalescing gap (default BlockLen×2 for
	// hybrid scenarios, so holes actually coalesce).
	CoalesceGap int64
}

func (s *Scenario) normalize() {
	if s.Ranks <= 0 {
		s.Ranks = 1
	}
	if s.Spread < s.Ranks {
		s.Spread = s.Ranks
	}
	if s.Blocks <= 0 {
		s.Blocks = 32
	}
	if s.BlockLen <= 0 {
		s.BlockLen = 1536
	}
	if s.NumIOD <= 0 {
		s.NumIOD = 4
	}
	if s.Method == client.AccessHybrid && s.CoalesceGap == 0 {
		s.CoalesceGap = 2 * s.BlockLen
	}
}

// Report summarizes a completed scenario for seed logging.
type Report struct {
	Seed     int64
	Injected int64 // structural wire faults handed out
	Kills    int   // daemon crash/restart cycles
	Retries  int64 // client retry attempts across all ranks
	Bytes    int64 // image size verified
}

func (r Report) String() string {
	return fmt.Sprintf("seed=%d injected=%d kills=%d retries=%d bytes=%d",
		r.Seed, r.Injected, r.Kills, r.Retries, r.Bytes)
}

// Policy is the suite's retry policy: generous enough to ride out a
// kill/restart cycle (restart latency is tens of milliseconds; this
// backoff series spans several seconds) while still bounded — a
// daemon that never returns surfaces a typed *client.RetryError
// instead of a hang. A pinned killer (Scenario.KillTarget) keeps its
// daemon down about 70% of the time (up 1–16ms, down 5–35ms per
// cycle), so each 250ms-spaced attempt is a fresh draw that finds it
// down with that odds: the attempt count, not the span, sets how often
// a call against it exhausts the policy (0.7^n for n such draws).
func Policy() client.RetryPolicy {
	return client.RetryPolicy{Max: 24, Backoff: 2 * time.Millisecond, MaxBackoff: 250 * time.Millisecond}
}

// pattern returns rank's file regions: a block-cyclic interleave over
// Spread slots, so concurrent ranks write disjoint bytes, the union
// tiles the written slots, and slots beyond Ranks stay holes.
func (s Scenario) pattern(rank int) ioseg.List {
	l := make(ioseg.List, 0, s.Blocks)
	for k := 0; k < s.Blocks; k++ {
		off := (int64(k)*int64(s.Spread) + int64(rank)) * s.BlockLen
		l = append(l, ioseg.Segment{Offset: off, Length: s.BlockLen})
	}
	return l
}

// fill writes rank's deterministic payload.
func fill(arena []byte, rank int, seed int64) {
	for i := range arena {
		arena[i] = byte(int64(rank+1)*31 + int64(i)*7 + seed)
	}
}

// imageSize is the logical extent the interleave covers.
func (s Scenario) imageSize() int64 {
	return int64(s.Blocks) * int64(s.Spread) * s.BlockLen
}

// expectedImage composes the final file image locally from every
// rank's pattern (ranks are disjoint; holes stay zero).
func (s Scenario) expectedImage(seed int64) []byte {
	img := make([]byte, s.imageSize())
	arena := make([]byte, int64(s.Blocks)*s.BlockLen)
	for r := 0; r < s.Ranks; r++ {
		fill(arena, r, seed)
		var stream int64
		for _, seg := range s.pattern(r) {
			copy(img[seg.Offset:seg.End()], arena[stream:stream+seg.Length])
			stream += seg.Length
		}
	}
	return img
}

// request builds the rank's transfer descriptor for the scenario's
// datapath.
func (s Scenario) request(write bool, arena []byte, rank int) client.Request {
	pol := Policy()
	req := client.Request{
		Write:       write,
		Arena:       arena,
		Method:      s.Method,
		Retry:       &pol,
		Window:      s.Window,
		CoalesceGap: s.CoalesceGap,
	}
	if s.Method == client.AccessDatatype {
		req.Type = datatype.Vector(int64(s.Blocks), s.BlockLen, int64(s.Spread)*s.BlockLen, datatype.Bytes(1))
		req.Base = int64(rank) * s.BlockLen
	} else {
		req.File = s.pattern(rank)
	}
	return req
}

// killer crash-restarts daemons until stopped; every choice comes
// from rng, which the caller seeds deterministically.
type killer struct {
	c      *cluster.Cluster
	rng    *rand.Rand
	n      int
	target int
	stop   chan struct{}
	wg     sync.WaitGroup

	mu    sync.Mutex
	kills int
	err   error
}

func startKiller(c *cluster.Cluster, seed int64, n, target int) *killer {
	k := &killer{c: c, rng: rand.New(rand.NewSource(seed)), n: n, target: target, stop: make(chan struct{})}
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		for {
			select {
			case <-k.stop:
				return
			case <-time.After(time.Duration(1+k.rng.Intn(15)) * time.Millisecond):
			}
			i := k.target
			if i < 0 {
				i = k.rng.Intn(k.n)
			}
			if err := k.c.KillIOD(i); err != nil {
				k.fail(fmt.Errorf("kill iod %d: %w", i, err))
				return
			}
			// The dead window: retrying clients back off through it.
			time.Sleep(time.Duration(5+k.rng.Intn(30)) * time.Millisecond)
			if err := k.c.RestartIOD(i); err != nil {
				k.fail(fmt.Errorf("restart iod %d: %w", i, err))
				return
			}
			k.mu.Lock()
			k.kills++
			k.mu.Unlock()
		}
	}()
	return k
}

func (k *killer) fail(err error) {
	k.mu.Lock()
	if k.err == nil {
		k.err = err
	}
	k.mu.Unlock()
}

// halt stops the killer and returns (kills, error). Every daemon is
// back up when halt returns.
func (k *killer) halt() (int, error) {
	close(k.stop)
	k.wg.Wait()
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.kills, k.err
}

// phaseGate separates the write phase from the read phase: it opens
// when all n ranks arrive OR any rank aborts. A plain barrier would
// deadlock the surviving ranks when one rank's write phase fails
// (e.g. retry exhaustion under a hostile seed) — the failure must
// surface as the run's typed error, never as a hang.
type phaseGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
	aborted bool
}

func newPhaseGate(n int) *phaseGate {
	g := &phaseGate{waiting: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Arrive blocks until every rank arrived or any rank aborted.
func (g *phaseGate) Arrive() {
	g.mu.Lock()
	g.waiting--
	if g.waiting <= 0 {
		g.cond.Broadcast()
	}
	for g.waiting > 0 && !g.aborted {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// Abort opens the gate for everyone; the aborting rank's error is the
// run's verdict.
func (g *phaseGate) Abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// runWorkload drives the scenario's write phase and per-rank chaotic
// read-back verification against one cluster, accumulating client
// retry counts into retries.
func runWorkload(c *cluster.Cluster, s Scenario, seed int64, name string, retries *atomic.Int64) error {
	fs0, err := c.Connect()
	if err != nil {
		return err
	}
	defer fs0.Close()
	cfg := striping.Config{PCount: s.NumIOD, StripeSize: 4096}
	if _, err := fs0.Create(name, cfg); err != nil {
		return err
	}
	gate := newPhaseGate(s.Ranks)
	return cluster.RunRanks(s.Ranks, func(rank int) error {
		fs, err := c.Connect()
		if err != nil {
			gate.Abort()
			return err
		}
		defer func() {
			retries.Add(fs.Counters().Retries.Load())
			fs.Close()
		}()
		f, err := fs.Open(name)
		if err != nil {
			gate.Abort()
			return err
		}
		defer f.Close()
		arena := make([]byte, int64(s.Blocks)*s.BlockLen)
		fill(arena, rank, seed)
		ctx := context.Background()
		if err := runTransfer(ctx, f, s, true, arena, rank); err != nil {
			gate.Abort()
			return fmt.Errorf("rank %d write: %w", rank, err)
		}
		gate.Arrive() // writes land before any rank rereads
		got := make([]byte, len(arena))
		if err := runTransfer(ctx, f, s, false, got, rank); err != nil {
			return fmt.Errorf("rank %d read: %w", rank, err)
		}
		if !bytes.Equal(got, arena) {
			return fmt.Errorf("rank %d: chaotic read-back diverged from written data (%s)", rank, firstDiff(got, arena))
		}
		return nil
	})
}

// runTransfer performs one direction of a rank's pattern, either as a
// single Run or as Async overlapping Ops on stream-contiguous chunks.
func runTransfer(ctx context.Context, f *client.File, s Scenario, write bool, arena []byte, rank int) error {
	if s.Async <= 1 {
		_, err := f.Run(ctx, s.request(write, arena, rank))
		return err
	}
	full := s.pattern(rank)
	per := (len(full) + s.Async - 1) / s.Async
	var ops []*client.Op
	var stream int64
	for lo := 0; lo < len(full); lo += per {
		hi := lo + per
		if hi > len(full) {
			hi = len(full)
		}
		part := full[lo:hi]
		n := part.TotalLength()
		req := s.request(write, arena, rank)
		req.Type = nil
		req.File = part
		req.Mem = ioseg.List{{Offset: stream, Length: n}}
		ops = append(ops, f.Start(ctx, req))
		stream += n
	}
	var first error
	for _, op := range ops {
		if _, err := op.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// readImage reads the full logical image through a fresh client.
func readImage(c *cluster.Cluster, name string, size int64) ([]byte, error) {
	fs, err := c.Connect()
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	fs.SetRetryPolicy(Policy())
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img := make([]byte, size)
	if _, err := f.ReadAt(img, 0); err != nil {
		return nil, err
	}
	return img, nil
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first difference at byte %d: %#x vs %#x", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}

// Run executes one scenario under seed and verifies byte-identical
// images across the chaotic run, the healthy shadow run, and the
// locally composed expectation.
func Run(seed int64, s Scenario) (Report, error) {
	s.normalize()
	rep := Report{Seed: seed}

	script := faultnet.NewScript(faultnet.DefaultChaos(seed))
	chaotic, err := cluster.Start(cluster.Options{
		NumIOD: s.NumIOD, DataDir: s.DataDir, FaultScript: script,
	})
	if err != nil {
		return rep, err
	}
	defer chaotic.Close()
	shadow, err := cluster.Start(cluster.Options{NumIOD: s.NumIOD})
	if err != nil {
		return rep, err
	}
	defer shadow.Close()

	var retries atomic.Int64
	var k *killer
	if s.Kill {
		k = startKiller(chaotic, seed+1, s.NumIOD, s.KillTarget-1)
	}
	chaosErr := runWorkload(chaotic, s, seed, "chaos.dat", &retries)
	if k != nil {
		kills, kerr := k.halt()
		rep.Kills = kills
		if kerr != nil && chaosErr == nil {
			chaosErr = kerr
		}
	}
	rep.Injected = script.Injected()
	rep.Retries = retries.Load()
	if chaosErr != nil {
		return rep, fmt.Errorf("chaotic run: %w", chaosErr)
	}
	var shadowRetries atomic.Int64
	if err := runWorkload(shadow, s, seed, "chaos.dat", &shadowRetries); err != nil {
		return rep, fmt.Errorf("shadow run: %w", err)
	}

	// Verification phase: a healthy wire on both sides.
	script.Disarm()
	size := s.imageSize()
	rep.Bytes = size
	chaosImg, err := readImage(chaotic, "chaos.dat", size)
	if err != nil {
		return rep, fmt.Errorf("reading chaotic image: %w", err)
	}
	shadowImg, err := readImage(shadow, "chaos.dat", size)
	if err != nil {
		return rep, fmt.Errorf("reading shadow image: %w", err)
	}
	if !bytes.Equal(chaosImg, shadowImg) {
		return rep, fmt.Errorf("chaotic image diverged from healthy shadow: %s", firstDiff(chaosImg, shadowImg))
	}
	if want := s.expectedImage(seed); !bytes.Equal(chaosImg, want) {
		return rep, fmt.Errorf("image diverged from expectation: %s", firstDiff(chaosImg, want))
	}
	return rep, nil
}
