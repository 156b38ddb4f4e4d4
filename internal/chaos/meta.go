package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvfs/internal/cluster"
	"pvfs/internal/striping"
)

// MetaScenario selects one metadata-plane conformance run: a seeded
// create/write/stat storm against the sharded, replicated metadata
// plane (DESIGN.md §13) while a killer crash-restarts whichever
// master replica currently leads. The contract under test is the
// plane's headline guarantee — an acked create survives any single
// leader crash, because the leader replicates to a majority before
// answering — plus the shard-routing invariant that clients never see
// a WrongEpoch or routing artifact as a user-visible error.
type MetaScenario struct {
	Name string

	// Masters is the master replica count (default 3: one crash never
	// loses majority).
	Masters int

	// Shards is the metadata shard count (default 2; CI also runs the
	// matrix leg PVFS_CHAOS_SHARDS=4).
	Shards int

	// NumIOD is the data daemon count (default 2).
	NumIOD int

	// Ranks is the number of concurrent client processes (default 2).
	Ranks int

	// Files is the number of creates per rank (default 12).
	Files int

	// Kill arms the leader killer.
	Kill bool

	// BatchBoundary syncs the killer to group-commit flushes: each
	// strike waits for the leader's batch counter to advance and kills
	// immediately after, so the crash lands right at a batch boundary —
	// the window where a batch is acked but its replication wave may
	// still be in flight to some follower. Requires Kill.
	BatchBoundary bool
}

func (s *MetaScenario) normalize() {
	if s.Masters <= 0 {
		s.Masters = 3
	}
	if s.Shards <= 0 {
		s.Shards = 2
	}
	if s.NumIOD <= 0 {
		s.NumIOD = 2
	}
	if s.Ranks <= 0 {
		s.Ranks = 2
	}
	if s.Files <= 0 {
		s.Files = 12
	}
}

// MetaReport summarizes a completed metadata scenario for seed logging.
type MetaReport struct {
	Seed    int64
	Kills   int   // leader crash/restart cycles
	Acked   int   // creates acked by the chaotic plane
	Retries int64 // client retry attempts across all ranks
}

func (r MetaReport) String() string {
	return fmt.Sprintf("seed=%d kills=%d acked=%d retries=%d",
		r.Seed, r.Kills, r.Acked, r.Retries)
}

// leaderKiller crash-restarts whichever master currently leads; every
// choice derives from rng, which the caller seeds deterministically.
// With batchBoundary set, each strike is held until a group-commit
// flush lands, so the crash hits right at a batch boundary.
type leaderKiller struct {
	c             *cluster.Cluster
	rng           *rand.Rand
	batchBoundary bool
	stop          chan struct{}
	wg            sync.WaitGroup

	mu    sync.Mutex
	kills int
	err   error
}

// awaitBatch blocks until the plane's batch counter moves past base
// (a flush just committed) or the window expires; either way the kill
// proceeds. Counter resets from earlier kills only delay one strike.
func (k *leaderKiller) awaitBatch(base int64) {
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if k.c.MetaStats().MetaBatches != base {
			return
		}
		select {
		case <-k.stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

func startLeaderKiller(c *cluster.Cluster, seed int64, batchBoundary bool) *leaderKiller {
	k := &leaderKiller{
		c: c, rng: rand.New(rand.NewSource(seed)),
		batchBoundary: batchBoundary, stop: make(chan struct{}),
	}
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		for {
			select {
			case <-k.stop:
				return
			case <-time.After(time.Duration(10+k.rng.Intn(30)) * time.Millisecond):
			}
			if k.batchBoundary {
				k.awaitBatch(k.c.MetaStats().MetaBatches)
			}
			lead := k.c.MetaLeader()
			if lead < 0 {
				continue // mid-election already; let it settle
			}
			if err := k.c.KillMaster(lead); err != nil {
				k.fail(fmt.Errorf("kill master %d: %w", lead, err))
				return
			}
			// The leaderless window: clients' proposals ride it out via
			// the shard proposers' retry loops.
			time.Sleep(time.Duration(10+k.rng.Intn(40)) * time.Millisecond)
			if err := k.c.RestartMaster(lead); err != nil {
				k.fail(fmt.Errorf("restart master %d: %w", lead, err))
				return
			}
			k.mu.Lock()
			k.kills++
			k.mu.Unlock()
			// Recovery window: a crash cadence faster than the election
			// timeout keeps the group perpetually leaderless, and no
			// consensus protocol guarantees progress under that — the
			// storm would only exhaust its retry budget. Let the next
			// leader emerge and serve a burst before crashing it too.
			select {
			case <-k.stop:
				return
			case <-time.After(time.Duration(100+k.rng.Intn(150)) * time.Millisecond):
			}
		}
	}()
	return k
}

func (k *leaderKiller) fail(err error) {
	k.mu.Lock()
	if k.err == nil {
		k.err = err
	}
	k.mu.Unlock()
}

// halt stops the killer and returns (kills, error). Every master is
// back up when halt returns.
func (k *leaderKiller) halt() (int, error) {
	close(k.stop)
	k.wg.Wait()
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.kills, k.err
}

// metaName is rank r's i-th file.
func metaName(r, i int) string { return fmt.Sprintf("meta-r%d-f%d.dat", r, i) }

// metaPayload is the deterministic content of rank r's i-th file: the
// same bytes on the chaotic and shadow clusters, so images compare.
func metaPayload(seed int64, r, i int) []byte {
	rng := rand.New(rand.NewSource(seed ^ int64(r*7919+i)))
	b := make([]byte, 256+rng.Intn(1024))
	rng.Read(b)
	return b
}

// metaStorm drives the seeded create/write/stat storm against one
// cluster: Ranks concurrent clients each create Files files, write a
// deterministic payload, and stat (reopen) an earlier file of their
// own, exercising create, open, and setSize across every shard. Acked
// creates are recorded in acked as soon as Create returns success —
// the set the zero-loss check audits.
func metaStorm(c *cluster.Cluster, s MetaScenario, seed int64, acked *sync.Map, retries *atomic.Int64) error {
	cfg := striping.Config{PCount: s.NumIOD, StripeSize: 512}
	return cluster.RunRanks(s.Ranks, func(rank int) error {
		fs, err := c.Connect()
		if err != nil {
			return err
		}
		defer func() {
			retries.Add(fs.Counters().Retries.Load())
			fs.Close()
		}()
		fs.SetRetryPolicy(Policy())
		rng := rand.New(rand.NewSource(seed + int64(rank)*1009))
		for i := 0; i < s.Files; i++ {
			name := metaName(rank, i)
			f, err := fs.Create(name, cfg)
			if err != nil {
				return fmt.Errorf("rank %d create %s: %w", rank, name, err)
			}
			acked.Store(name, true)
			if _, err := f.WriteAt(metaPayload(seed, rank, i), 0); err != nil {
				return fmt.Errorf("rank %d write %s: %w", rank, name, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("rank %d close %s: %w", rank, name, err)
			}
			// Stat storm: reopen one of this rank's earlier files.
			j := rng.Intn(i + 1)
			prev := metaName(rank, j)
			g, err := fs.Open(prev)
			if err != nil {
				return fmt.Errorf("rank %d stat %s: %w", rank, prev, err)
			}
			got, want := g.RecordedSize(), int64(len(metaPayload(seed, rank, j)))
			g.Close()
			if got != want {
				return fmt.Errorf("rank %d stat %s: recorded size %d, want %d", rank, prev, got, want)
			}
		}
		return nil
	})
}

// metaImage reads every file the plane lists through a fresh client,
// returning name -> bytes.
func metaImage(c *cluster.Cluster) (map[string][]byte, error) {
	fs, err := c.Connect()
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	fs.SetRetryPolicy(Policy())
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	img := make(map[string][]byte, len(names))
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", name, err)
		}
		b := make([]byte, f.RecordedSize())
		if len(b) > 0 {
			if _, err := f.ReadAt(b, 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("read %s: %w", name, err)
			}
		}
		f.Close()
		img[name] = b
	}
	return img, nil
}

// RunMeta executes one metadata scenario under seed: the storm runs
// against a chaotic cluster whose master leader is crash-restarted
// throughout, then against a healthy shadow cluster, and the two
// planes must agree exactly — every acked create present with
// byte-identical content, no create lost to a failover window.
func RunMeta(seed int64, s MetaScenario) (MetaReport, error) {
	s.normalize()
	rep := MetaReport{Seed: seed}

	mo := func() *cluster.MetaOptions {
		return &cluster.MetaOptions{Masters: s.Masters, Shards: s.Shards}
	}
	chaotic, err := cluster.Start(cluster.Options{NumIOD: s.NumIOD, Meta: mo()})
	if err != nil {
		return rep, err
	}
	defer chaotic.Close()
	shadow, err := cluster.Start(cluster.Options{NumIOD: s.NumIOD, Meta: mo()})
	if err != nil {
		return rep, err
	}
	defer shadow.Close()

	var acked sync.Map
	var retries atomic.Int64
	var k *leaderKiller
	if s.Kill {
		k = startLeaderKiller(chaotic, seed+1, s.BatchBoundary)
	}
	chaosErr := metaStorm(chaotic, s, seed, &acked, &retries)
	if k != nil {
		kills, kerr := k.halt()
		rep.Kills = kills
		if kerr != nil && chaosErr == nil {
			chaosErr = kerr
		}
	}
	rep.Retries = retries.Load()
	if chaosErr != nil {
		return rep, fmt.Errorf("chaotic run: %w", chaosErr)
	}
	var shadowAcked sync.Map
	var shadowRetries atomic.Int64
	if err := metaStorm(shadow, s, seed, &shadowAcked, &shadowRetries); err != nil {
		return rep, fmt.Errorf("shadow run: %w", err)
	}

	// Verification: every master is back up (halt returned); now the
	// plane must still know every create it ever acked.
	chaosImg, err := metaImage(chaotic)
	if err != nil {
		return rep, fmt.Errorf("reading chaotic namespace: %w", err)
	}
	shadowImg, err := metaImage(shadow)
	if err != nil {
		return rep, fmt.Errorf("reading shadow namespace: %w", err)
	}
	var lost []string
	acked.Range(func(key, _ any) bool {
		rep.Acked++
		if _, ok := chaosImg[key.(string)]; !ok {
			lost = append(lost, key.(string))
		}
		return true
	})
	if len(lost) > 0 {
		sort.Strings(lost)
		return rep, fmt.Errorf("%d acked creates lost across failover: %v", len(lost), lost)
	}
	if len(chaosImg) != len(shadowImg) {
		return rep, fmt.Errorf("namespace diverged: chaotic lists %d files, shadow %d", len(chaosImg), len(shadowImg))
	}
	for name, b := range chaosImg {
		sb, ok := shadowImg[name]
		if !ok {
			return rep, fmt.Errorf("chaotic file %s missing from shadow", name)
		}
		if !bytes.Equal(b, sb) {
			return rep, fmt.Errorf("file %s diverged from shadow: %s", name, firstDiff(b, sb))
		}
	}
	return rep, nil
}
