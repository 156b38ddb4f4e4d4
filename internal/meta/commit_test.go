package meta

// Commit propagation and shared address slices: after a batch commits
// the leader sends no append that carries only the commit index —
// followers learn it from the next round with entries or the next
// heartbeat — except for a committed shard map, which goes out at
// once. Every namespace shares one IOD address slice per distinct
// list, and a shard map that swaps an IOD address keeps old and new
// files on their own lists.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// slowBeatTiming spaces heartbeats far enough apart that a test can
// tell a commit carried by a heartbeat from one sent at once.
func slowBeatTiming() Timing {
	tm := testTiming()
	tm.Heartbeat = 400 * time.Millisecond
	tm.ElectionLo = 1200 * time.Millisecond
	tm.ElectionHi = 1800 * time.Millisecond
	return tm
}

// commitOf reads a replica's commit index.
func commitOf(n *Node) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.c.commit
}

// fenceBeat pushes the leader's next heartbeat a full interval away
// and returns when it is due.
func fenceBeat(n *Node) time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.c.lastBeat = time.Now()
	return n.c.lastBeat.Add(n.timing.Heartbeat)
}

// waitFor polls cond until it holds or the deadline passes, and
// returns when it first held.
func waitFor(t *testing.T, what string, within time.Duration, cond func() bool) time.Time {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Now()
}

// roundCommits records, per follower and log index, the commit index
// the append that shipped that entry carried. A round built once the
// entry had committed carries the commit with it: a follower whose
// replicator ran after the other follower's ack learns the commit from
// its own entry round, at no extra round.
type roundCommits struct {
	mu sync.Mutex
	m  map[[2]uint64]uint64 // (follower, entry index) → commit carried
}

func (r *roundCommits) tap(to int, req wire.Message) {
	var ar wire.MetaAppendReq
	if req.Type != wire.TMetaAppend || ar.Unmarshal(req.Body) != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range ar.Entries {
		r.m[[2]uint64{uint64(to), e.Index}] = ar.Commit
	}
}

// learnedEarly reports whether follower f knows commit idx though the
// round that shipped entry idx left before it committed: only a
// commit-only append could have told it.
func (r *roundCommits) learnedEarly(f *Node, idx uint64) bool {
	if commitOf(f) < idx {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	carried, ok := r.m[[2]uint64{uint64(f.ID()), idx}]
	return !ok || carried < idx
}

func TestCommitIndexRidesNextAppend(t *testing.T) {
	tm := slowBeatTiming()
	g := startGroupTiming(t, 3, singleShardBoot, tm)
	rounds := &roundCommits{m: make(map[[2]uint64]uint64)}
	tap := rounds.tap
	g.tap.Store(&tap)
	lead := g.waitLeader()
	ln := g.nodes[lead]
	var followers []*Node
	for i, n := range g.nodes {
		if i != lead {
			followers = append(followers, n)
		}
	}
	ctx := context.Background()
	caughtUp := func(idx uint64) func() bool {
		return func() bool {
			for _, f := range followers {
				if commitOf(f) < idx {
					return false
				}
			}
			return true
		}
	}
	if _, _, idx, _, err := ln.Propose(ctx, createRec("settle", 0, 0, 1, testIODs())); err != nil {
		t.Fatal(err)
	} else {
		waitFor(t, "followers to settle", 3*tm.Heartbeat, caughtUp(idx))
	}

	// A lone proposal costs one entry-carrying round per follower and
	// nothing more: its commit index waits for the next heartbeat.
	beat := fenceBeat(ln)
	ln.mu.Lock()
	empty := ln.c.emptyRounds
	ln.mu.Unlock()
	st, _, idx, _, err := ln.Propose(ctx, createRec("lone", 1, 0, 1, testIODs()))
	if err != nil || st != wire.StatusOK {
		t.Fatalf("propose: %v %v", st, err)
	}
	time.Sleep(tm.Heartbeat / 8)
	if time.Now().After(beat) {
		t.Fatal("test too slow: the heartbeat fell due before the check")
	}
	ln.mu.Lock()
	sent := ln.c.emptyRounds - empty
	ln.mu.Unlock()
	if sent != 0 {
		t.Errorf("leader sent %d entry-less appends after a lone commit, want 0 before the heartbeat", sent)
	}
	for _, f := range followers {
		switch {
		case rounds.learnedEarly(f, idx):
			t.Errorf("follower %d learned commit %d before the heartbeat (entry %d)", f.ID(), commitOf(f), idx)
		case commitOf(f) >= idx:
			t.Logf("follower %d's entry round left after the commit and carried it", f.ID())
		}
	}
	// Followers lag the leader by at most one heartbeat.
	at := waitFor(t, "followers to learn the commit", 3*tm.Heartbeat, caughtUp(idx))
	if late := at.Sub(beat); late > tm.Heartbeat/2 {
		t.Errorf("followers learned the commit %v after the heartbeat fell due", late)
	}

	// A committed shard map reaches follower CurrentMap at once.
	beat = fenceBeat(ln)
	m, err := ln.ProposeConfig(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	at = waitFor(t, "followers to apply the new map", 3*tm.Heartbeat, func() bool {
		for _, f := range followers {
			if cur := f.CurrentMap(); cur == nil || cur.Epoch != m.Epoch {
				return false
			}
		}
		return true
	})
	if !at.Before(beat) {
		t.Errorf("followers saw epoch %d only after the heartbeat fell due", m.Epoch)
	}

	// A follower that never learned a commit applies it under the next
	// leader.
	fenceBeat(ln)
	if _, _, idx, _, err = ln.Propose(ctx, createRec("orphan", 2, 0, 1, testIODs())); err != nil {
		t.Fatal(err)
	}
	behind := 0
	for _, f := range followers {
		if rounds.learnedEarly(f, idx) {
			t.Fatalf("follower %d learned commit %d before the heartbeat (entry %d)", f.ID(), commitOf(f), idx)
		}
		if commitOf(f) < idx {
			behind++
		}
	}
	if behind == 0 {
		t.Fatalf("every follower already learned commit %d; the kill tests nothing", idx)
	}
	g.kill(lead)
	g.waitLeader()
	waitFor(t, "survivors to apply the orphaned commit", 3*tm.ElectionHi, func() bool {
		for _, f := range followers {
			f.mu.Lock()
			_, ok := f.c.states[0].files["orphan"]
			f.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	})
}

// checkShared asserts every file of ns points at the one table slice
// equal to its address list.
func checkShared(t *testing.T, where string, ns *namespace) {
	t.Helper()
	for name, info := range ns.files {
		k := addrKey{info.Striping.Base, len(info.IODAddrs)}
		found := 0
		for _, c := range ns.addrs[k] {
			if fmt.Sprint(c) == fmt.Sprint(info.IODAddrs) {
				found++
				if &c[0] != &info.IODAddrs[0] {
					t.Fatalf("%s: file %s holds its own copy of %v", where, name, c)
				}
			}
		}
		if found != 1 {
			t.Fatalf("%s: file %s's list %v appears %d times in the table", where, name, info.IODAddrs, found)
		}
	}
}

func TestAddressSlicesShared(t *testing.T) {
	iods := testIODs()
	ns := newNamespace()
	const files = 10000
	for i := 0; i < files; i++ {
		cfg := striping.Config{Base: i % 3, PCount: 1 + (i/3)%3, StripeSize: striping.DefaultStripeSize}
		addrs := make([]string, cfg.PCount) // a fresh list per record, as a decoder makes
		for j := range addrs {
			addrs[j] = iods[(cfg.Base+j)%len(iods)]
		}
		cr := wire.MetaCreateRec{Name: fmt.Sprintf("f%d", i), Info: wire.FileInfo{
			Handle: wire.MetaHandle(uint64(i), 0, 1), Striping: cfg, IODAddrs: addrs,
		}}
		rec := wire.MetaRecord{Op: wire.TCreate, Body: cr.Marshal()}
		if st, _ := ns.apply(&rec, 1); st != wire.StatusOK {
			t.Fatalf("create %d: %v", i, st)
		}
	}
	lists := func(ns *namespace) int {
		n := 0
		for _, l := range ns.addrs {
			n += len(l)
		}
		return n
	}
	if got := lists(ns); got != 9 {
		t.Errorf("apply: %d shared lists for 9 distinct (Base, PCount), want 9", got)
	}
	checkShared(t, "apply", ns)

	st := ns.state(0)
	installed := newNamespace()
	installed.install(&st)
	if got := lists(installed); got != 9 {
		t.Errorf("install: %d shared lists, want 9", got)
	}
	checkShared(t, "install", installed)

	// The shard's create path takes the same slices.
	cfg := striping.Config{Base: 2, PCount: 2, StripeSize: striping.DefaultStripeSize}
	a, b := installed.rotatedAddrs(cfg, iods), installed.rotatedAddrs(cfg, iods)
	if &a[0] != &b[0] || lists(installed) != 9 {
		t.Errorf("rotatedAddrs built a new list for a known (Base, PCount)")
	}
}

// TestIODSwapKeepsEachFilesAddresses swaps one IOD address through a
// shard-map change. Files created before keep the old list and files
// created after get the new one — on every master (apply), in a
// snapshot install, and in the shard's write-back and resync.
func TestIODSwapKeepsEachFilesAddresses(t *testing.T) {
	pl := startPlane(t, 3, 1)
	c, err := pvfsnet.Dial(pl.shardAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	create := func(epoch uint64, name string) {
		cr := wire.CreateReq{Name: name}
		if resp := callShard(t, c, epoch, wire.TCreate, cr.Marshal(), 0); resp.Status != wire.StatusOK {
			t.Fatalf("create %s: %v", name, resp.Status)
		}
	}
	create(1, "old")

	oldAddrs := testIODs()
	newAddrs := append([]string(nil), oldAddrs...)
	newAddrs[1] = "10.0.0.9:7001"
	lead := pl.g.waitLeader()
	m, err := pl.g.nodes[lead].ProposeConfig(context.Background(), func(m *wire.ShardMap) {
		m.IODs[1] = newAddrs[1]
	})
	if err != nil {
		t.Fatal(err)
	}
	pl.shards[0].InstallMap(m)
	create(m.Epoch, "new")

	want := map[string]string{"old": fmt.Sprint(oldAddrs), "new": fmt.Sprint(newAddrs)}
	check := func(where string, ns *namespace) {
		t.Helper()
		for name, w := range want {
			info, ok := ns.files[name]
			if !ok {
				t.Fatalf("%s: %s missing", where, name)
			}
			if got := fmt.Sprint(info.IODAddrs); got != w {
				t.Errorf("%s: %s has %s, want %s", where, name, got, w)
			}
		}
		checkShared(t, where, ns)
	}
	for i, n := range pl.g.nodes {
		waitFor(t, "masters to apply both creates", 2*time.Second, func() bool {
			n.mu.Lock()
			defer n.mu.Unlock()
			return len(n.c.states) > 0 && len(n.c.states[0].files) == 2
		})
		n.mu.Lock()
		check(fmt.Sprintf("master %d", i), n.c.states[0])
		n.mu.Unlock()
	}
	s := pl.shards[0]
	s.mu.Lock()
	check("shard write-back", s.ns)
	s.mu.Unlock()

	snap, err := pl.g.nodes[lead].FetchShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	installed := newNamespace()
	installed.install(&snap.Shards[0])
	check("install", installed)

	if !s.syncState() {
		t.Fatal("shard resync failed")
	}
	s.mu.Lock()
	check("shard resync", s.ns)
	s.mu.Unlock()
}
