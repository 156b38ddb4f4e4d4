package meta

// The birth rule and the re-ask: replica 0 of a fresh group campaigns
// inside start, so the group's first leader needs no election timeout;
// a candidate asks again every peer that has not answered, backing off
// from one tick to ElectionLo/4 while a peer's calls fail, so peers
// that come up late still elect it, and in a pre-vote round to
// ElectionHi, so a lone replica does not spin; a lone replica's
// pre-vote rounds move no term and write nothing; and every start over
// recovered state keeps its randomized deadline.

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

// slowElectionTiming parks every election timer for seconds, so a
// leader inside a few hundred milliseconds can only come from the
// birth rule.
func slowElectionTiming() Timing {
	tm := testTiming()
	tm.ElectionLo, tm.ElectionHi = 2*time.Second, 4*time.Second
	return tm
}

// checkBirth asserts replica 0 leads term 1 after one election, and
// every replica reaches term 1 (a replica whose vote was not needed
// learns it from the leader's first round) and stays there.
func checkBirth(t *testing.T, g *group) {
	t.Helper()
	waitFor(t, "every replica to learn a term", g.timing.ElectionLo, func() bool {
		for _, n := range g.nodes {
			if n.Term() == 0 {
				return false
			}
		}
		return true
	})
	var elections int64
	for i, n := range g.nodes {
		if term := n.Term(); term != 1 {
			t.Errorf("replica %d at term %d, want 1", i, term)
		}
		elections += n.Stats().ElectionCount
	}
	if !g.nodes[0].IsLeader() {
		t.Error("replica 0 does not lead")
	}
	if elections != 1 {
		t.Errorf("%d elections, want 1", elections)
	}
}

func TestFreshGroupElectsAtBoot(t *testing.T) {
	tm := slowElectionTiming()
	start := time.Now()
	g := startGroupTiming(t, 3, singleShardBoot, tm)
	at := waitFor(t, "replica 0 to lead", tm.ElectionLo, g.nodes[0].IsLeader)
	if took := at.Sub(start); took > 200*time.Millisecond {
		t.Errorf("replica 0 led %v after boot, want within 200ms", took)
	}
	checkBirth(t, g)
}

// TestFreshLeaderWinsLateListeners starts replica 0 alone: both vote
// requests of its birth campaign are refused. Replicas 1 and 2 bind
// their listeners 50 ms later, and replica 0's re-asks still win it
// term 1, long before any election timer could fire.
func TestFreshLeaderWinsLateListeners(t *testing.T) {
	tm := slowElectionTiming()
	g := &group{t: t, timing: tm, nodes: make([]*Node, 3), srvs: make([]*pvfsnet.Server, 3)}
	t.Cleanup(g.closeAll)
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g.addrs = []string{ln0.Addr().String(), deadAddr(t), deadAddr(t)}
	g.boot = singleShardBoot(g.addrs)
	for range g.addrs {
		g.dirs = append(g.dirs, t.TempDir())
	}
	start := func(i int, ln net.Listener) {
		n, err := NewNode(NodeOptions{ID: i, Peers: g.addrs, Bootstrap: g.boot, Dir: g.dirs[i], Timing: tm})
		if err != nil {
			t.Fatal(err)
		}
		g.serve(i, n, ln)
	}
	start(0, ln0)
	time.Sleep(50 * time.Millisecond)
	if g.nodes[0].IsLeader() {
		t.Fatal("replica 0 leads with no peer listening")
	}
	bound := time.Now()
	for i := 1; i < 3; i++ {
		ln, err := net.Listen("tcp", g.addrs[i])
		if err != nil {
			t.Skipf("address %s taken meanwhile: %v", g.addrs[i], err)
		}
		start(i, ln)
	}
	at := waitFor(t, "replica 0 to lead", tm.ElectionLo, g.nodes[0].IsLeader)
	if took := at.Sub(bound); took > tm.ElectionLo/4 {
		t.Errorf("replica 0 led %v after its peers listened, want within %v", took, tm.ElectionLo/4)
	}
	checkBirth(t, g)
}

// startLoneCandidate starts replica 0 of a fresh three-replica group
// alone, against two peers that accept each connection and close it at
// once, so every vote call fails. It returns the node and the accepts
// each peer has counted.
func startLoneCandidate(t *testing.T, tm Timing) (*Node, *[2]atomic.Int64) {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String()}
	accepts := new([2]atomic.Int64)
	for i := range accepts {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs = append(addrs, ln.Addr().String())
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				accepts[i].Add(1)
				c.Close()
			}
		}()
	}
	g := &group{t: t, timing: tm, addrs: addrs, nodes: make([]*Node, 1), srvs: make([]*pvfsnet.Server, 1)}
	t.Cleanup(g.closeAll)
	n, err := NewNode(NodeOptions{ID: 0, Peers: addrs, Bootstrap: singleShardBoot(addrs), Dir: t.TempDir(), Timing: tm})
	if err != nil {
		t.Fatal(err)
	}
	g.serve(0, n, ln0)
	return n, accepts
}

// TestCandidateBacksOffFailedPeers starts replica 0 alone against two
// peers whose every vote call fails. Asking each peer every tick would
// make about 300 calls per peer in a second; the backoff makes a
// handful.
func TestCandidateBacksOffFailedPeers(t *testing.T) {
	n, accepts := startLoneCandidate(t, slowElectionTiming())
	time.Sleep(time.Second)
	if n.IsLeader() {
		t.Fatal("replica 0 leads with no peer answering")
	}
	for i := range accepts {
		if calls := accepts[i].Load(); calls < 2 || calls > 15 {
			t.Errorf("peer %d: %d vote calls in 1 s, want 2..15", i+1, calls)
		}
	}
}

// TestBackoffOutlivesCandidacies runs the lone candidate on the default
// Timing, where an election timeout of 75–150 ms starts a new pre-vote
// round several times a second. Restarting the backoff with each one
// would ask each dead peer about 60 times a second; carried across them
// and grown to ElectionHi, it asks a few times. Past its birth
// candidacy the replica stays at term 1: a round that wins no
// pre-majority moves no term and writes nothing.
func TestBackoffOutlivesCandidacies(t *testing.T) {
	n, accepts := startLoneCandidate(t, Timing{})
	time.Sleep(time.Second)
	var before [2]int64
	for i := range accepts {
		before[i] = accepts[i].Load()
	}
	syncs := n.Stats().MetaWALSyncs
	time.Sleep(time.Second)
	if n.IsLeader() {
		t.Fatal("replica 0 leads with no peer answering")
	}
	if term := n.Term(); term != 1 {
		t.Errorf("term %d after 2 s, want 1", term)
	}
	if got := n.Stats().MetaWALSyncs - syncs; got != 0 {
		t.Errorf("%d WAL syncs in the second second, want 0", got)
	}
	for i := range accepts {
		if calls := accepts[i].Load() - before[i]; calls < 1 || calls > 15 {
			t.Errorf("peer %d: %d vote calls in the second second, want 1..15", i+1, calls)
		}
	}
}

// checkTimerArmed asserts replica n is a follower whose election
// deadline is a full randomized timeout past since.
func checkTimerArmed(t *testing.T, n *Node, since time.Time) {
	t.Helper()
	n.mu.Lock()
	role, deadline := n.c.role, n.c.deadline
	n.mu.Unlock()
	if role != follower {
		t.Errorf("replica %d restarted as %v, want a follower", n.ID(), role)
	}
	if deadline.Before(since.Add(n.timing.ElectionLo)) {
		t.Errorf("replica %d restarted with its election %v away, want at least %v",
			n.ID(), deadline.Sub(since), n.timing.ElectionLo)
	}
}

// TestRestartedGroupKeepsElectionTimer restarts a whole group over its
// state dirs, each replica with the bootstrap map a restarted process
// passes again: recovered state wins, and no replica campaigns before
// its deadline.
func TestRestartedGroupKeepsElectionTimer(t *testing.T) {
	tm := slowElectionTiming()
	g := startGroupTiming(t, 3, singleShardBoot, tm)
	waitFor(t, "replica 0 to lead", tm.ElectionLo, g.nodes[0].IsLeader)
	// A vote from replica 1 alone elects replica 0, so replica 2 may not
	// have persisted term 1 yet.
	checkBirth(t, g)
	g.closeAll()

	since := time.Now()
	for i := range g.nodes {
		g.restartBoot(i, g.boot)
		checkTimerArmed(t, g.nodes[i], since)
	}
	time.Sleep(200 * time.Millisecond)
	for i, n := range g.nodes {
		if term, lead := n.Term(), n.IsLeader(); term != 1 || lead {
			t.Errorf("replica %d at term %d (leading %v) before any deadline, want a follower at term 1", i, term, lead)
		}
	}
}

// TestRestartedReplicaZeroKeepsElectionTimer kills the birth leader,
// lets the others elect, and restarts replica 0 over its state dir
// with the bootstrap map: it rejoins as a follower with its timer
// armed, and the live leader keeps its term.
func TestRestartedReplicaZeroKeepsElectionTimer(t *testing.T) {
	tm := testTiming()
	tm.ElectionLo, tm.ElectionHi = 300*time.Millisecond, 600*time.Millisecond
	g := startGroupTiming(t, 3, singleShardBoot, tm)
	waitFor(t, "replica 0 to lead", tm.ElectionLo, g.nodes[0].IsLeader)
	g.kill(0)
	lead := g.waitLeader()
	term := g.nodes[lead].Term()

	since := time.Now()
	g.restartBoot(0, g.boot)
	checkTimerArmed(t, g.nodes[0], since)
	waitFor(t, "replica 0 to follow the live leader", tm.ElectionLo, func() bool {
		return g.nodes[0].Term() == term
	})
	time.Sleep(tm.ElectionHi)
	if now, leading := g.nodes[lead].Term(), g.nodes[lead].IsLeader(); now != term || !leading {
		t.Errorf("live leader %d at term %d (leading %v) after replica 0 rejoined, was term %d", lead, now, leading, term)
	}
}

// TestFollowerNewTermAppendOneSync: an append that makes a follower
// adopt a new term and log its entries persists both in one WAL write
// and one fsync before the ack.
func TestFollowerNewTermAppendOneSync(t *testing.T) {
	tm := testTiming()
	tm.ElectionLo, tm.ElectionHi = time.Hour, 2*time.Hour
	n, err := NewNode(NodeOptions{
		ID: 1, Peers: []string{deadAddr(t), "self", deadAddr(t)}, Bootstrap: singleShardBoot(nil),
		Dir: t.TempDir(), Timing: tm,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	before := n.Stats().MetaWALSyncs
	ar := wire.MetaAppendReq{Term: 1, Leader: 0, PrevIndex: 1, Entries: []wire.MetaEntry{
		{Index: 2, Term: 1, Rec: wire.MetaRecord{Op: wire.TPing}},
	}}
	var resp wire.MetaAppendResp
	if err := resp.Unmarshal(n.Handle(wire.Message{Header: wire.Header{Type: wire.TMetaAppend}, Body: ar.Marshal()}).Body); err != nil {
		t.Fatal(err)
	}
	if !resp.Success || resp.Term != 1 || resp.Match != 2 {
		t.Fatalf("append: %+v, want success at term 1, match 2", resp)
	}
	if got := n.Stats().MetaWALSyncs - before; got != 1 {
		t.Errorf("new-term append cost %d WAL syncs, want 1", got)
	}
}
