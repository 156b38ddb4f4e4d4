package meta

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

// role is a replica's place in the current term.
type role int

const (
	follower role = iota
	candidate
	leader
)

// NodeOptions configures one master replica.
type NodeOptions struct {
	// ID is this replica's index into Peers.
	ID int
	// Peers lists every master replica's address, ID order, self
	// included. The list is fixed for the deployment.
	Peers []string
	// Bootstrap, when non-nil, seeds the replicated log with the
	// initial shard map as entry 1 (term 0). Every replica of a fresh
	// deployment must bootstrap with an identical map; a replica
	// rejoining an existing deployment passes nil and receives the log
	// (or a snapshot) from the current leader.
	Bootstrap *wire.ShardMap
	// Timing overrides protocol clocks (zero fields take defaults).
	Timing Timing
	// MaxLog bounds the in-memory log: once the applied prefix exceeds
	// it, the prefix is folded into a snapshot and lagging replicas are
	// caught up by snapshot install instead of entry replay. 0 selects
	// a default; negative disables compaction.
	MaxLog int
	// Dir, when non-empty, persists the replica's Raft state — term,
	// vote, log, snapshot — under it, fsynced before the replica
	// answers a vote, acks an append, or acks a proposal, and recovers
	// it on restart. This is what makes a replica's promises durable: a
	// replica restarted amnesiac could double-vote in a term or grant
	// its vote over an empty log to a candidate missing entries it
	// helped commit, losing acked mutations. Empty keeps state in
	// memory — acceptable only for the solo mgr wrapper (no elections)
	// and tests that never restart replicas.
	Dir string
	// Logger receives protocol events; nil silences them.
	Logger *log.Logger
}

// defaultMaxLog is the compaction threshold when MaxLog is 0.
const defaultMaxLog = 4096

// applyResult is the committed verdict delivered to a proposal waiter.
type applyResult struct {
	status wire.Status
	info   *wire.FileInfo // applied file metadata, creates only
	idx    uint64         // committed log index (zero on error)
	hint   string         // leader hint, NotLeader verdicts only
	err    error
}

// pendingProposal is one Propose call queued for the next group-commit
// batch. The committer assigns idx when it folds the proposal into a
// batch; until then the proposal can still be withdrawn (ctx cancel).
type pendingProposal struct {
	rec wire.MetaRecord
	ch  chan applyResult // buffered(1); receives exactly one verdict
	idx uint64           // assigned log index; 0 while queued (under mu)
}

// errLostEntry fails waiters whose entry was truncated by a new
// leader's log: the proposal definitively did not commit.
var errLostEntry = errors.New("meta: proposal superseded by new leader")

// ErrNotLeader is returned by local propose/fetch on a non-leader.
var ErrNotLeader = errors.New("meta: not the leader")

// errClosed is returned once the node has shut down.
var errClosed = errors.New("meta: node closed")

// errNoShard rejects a fetch for a partition outside the shard map.
var errNoShard = errors.New("meta: no state for that shard")

// Node is one master replica: a member of the leader-elected group
// that owns the shard map, striping placement, and the replicated
// metadata log. It is transport-free — Handle serves the wire
// protocol and callers attach it to a listener via pvfsnet.NewServer —
// but dials its peers itself for votes and replication.
type Node struct {
	id     int
	peers  []string
	timing Timing
	maxLog int
	// adaptiveLog marks the default (MaxLog == 0) compaction policy:
	// the threshold grows with the namespace so the O(files) snapshot
	// serialization amortizes — a fixed 4096-entry trigger would cost
	// O(files²/4096) total marshaling over a large fill.
	adaptiveLog bool
	logger      *log.Logger
	pool        *pvfsnet.Pool
	stable      *stable // durable Raft state; nil keeps state in memory

	// walMu serializes writes to stable so the WAL's record order
	// always matches the in-memory log's mutation order (recovery's
	// contiguous-suffix filter silently drops out-of-order records).
	// Lock order is mu → walMu; the committer acquires walMu while
	// still holding mu, then releases mu for the batch fsync — so the
	// disk wait leaves mu free for votes, appends, and heartbeats, yet
	// any later log mutation queues behind the in-flight batch.
	walMu sync.Mutex

	mu        sync.Mutex
	wounded   bool   // a persist failed: stop making durable promises
	durable   uint64 // highest log index fsynced locally (== last index in-memory)
	rng       *rand.Rand
	term      uint64
	votedFor  int
	role      role
	leaderID  int
	snapIndex uint64 // log entries <= snapIndex are folded into states
	snapTerm  uint64
	log       []wire.MetaEntry // log[i] holds index snapIndex+1+i
	commit    uint64
	applied   uint64
	states    []*namespace // per-shard materialized state at `applied`
	smap      *wire.ShardMap
	waiters   map[uint64]chan applyResult
	matchIdx  []uint64
	nextIdx   []uint64
	// sendDue marks a follower owed an append even if it carries no
	// entries: a heartbeat, a new leader's first round, or a committed
	// shard map. Any append sent to the follower clears it.
	sendDue []bool
	// resync marks a replica that restarted over damaged state
	// (errCorruptState): it grants no votes and stands for no election
	// until a leader's append has matched its log to the leader's end.
	resync    bool
	deadline  time.Time // election deadline (non-leaders)
	lastBeat  time.Time // last heartbeat broadcast (leader)
	elections int64
	closed    bool

	// Group-commit state (under mu) and accounting.
	pending      []*pendingProposal // proposals queued for the next batch
	proposals    int64              // mutation entries appended via propose
	batches      int64              // group-commit flushes
	appendRounds int64              // append RPCs shipped carrying entries
	emptyRounds  int64              // append RPCs shipped with no entries and no snapshot

	propC    chan struct{} // committer wakeup, cap 1
	compactC chan struct{} // compactor wakeup, cap 1
	stopC    chan struct{}
	notify   []chan struct{} // per-peer replication kicks
	wg       sync.WaitGroup
}

// NewNode starts a master replica: its clock loop and one replicator
// per peer. The caller owns the listener: attach n.Handle via
// pvfsnet.NewServer on the address Peers[ID]. With Dir set, any state
// a previous incarnation persisted there is recovered first and wins
// over Bootstrap.
func NewNode(o NodeOptions) (*Node, error) {
	t := o.Timing.withDefaults()
	maxLog := o.MaxLog
	if maxLog == 0 {
		maxLog = defaultMaxLog
	}
	n := &Node{
		id:          o.ID,
		peers:       append([]string(nil), o.Peers...),
		timing:      t,
		maxLog:      maxLog,
		adaptiveLog: o.MaxLog == 0,
		logger:      o.Logger,
		pool:        pvfsnet.NewPool(),
		rng:         rand.New(rand.NewSource(time.Now().UnixNano() + int64(o.ID)<<32)),
		votedFor:    -1,
		leaderID:    -1,
		waiters:     make(map[uint64]chan applyResult),
		matchIdx:    make([]uint64, len(o.Peers)),
		nextIdx:     make([]uint64, len(o.Peers)),
		sendDue:     make([]bool, len(o.Peers)),
		propC:       make(chan struct{}, 1),
		compactC:    make(chan struct{}, 1),
		stopC:       make(chan struct{}),
	}
	if o.Dir != "" {
		st, rec, err := openStable(o.Dir)
		if errors.Is(err, errCorruptState) && len(o.Peers) > 1 {
			// Damaged state cannot be trusted to hold this replica's
			// votes and acks. Set it aside and rejoin empty: the leader
			// refills the log, and the replica votes again only once it
			// has. A solo replica has no leader to resync from, so it
			// refuses to start instead.
			logf(n.logger, "meta[%d]: %v; resyncing from the leader", o.ID, err)
			st, rec, err = quarantineStable(o.Dir, rec)
			n.resync = true
		}
		if err != nil {
			n.pool.Close()
			return nil, err
		}
		n.stable = st
		n.term = rec.hard.Term
		n.votedFor = int(rec.hard.VotedFor)
		if rec.snap != nil {
			n.restoreSnapshotLocked(rec.snap)
		}
		n.log = rec.entries
		if len(n.log) > 0 {
			logf(n.logger, "meta[%d]: recovered term %d, log %d..%d (snap %d)",
				n.id, n.term, n.snapIndex+1, n.lastIndexLocked(), n.snapIndex)
		}
	}
	// Whatever was recovered came off disk, so it is durable by
	// definition; with no stable dir the log is trivially "durable"
	// (there is no promise a restart could break).
	n.durable = n.lastIndexLocked()
	if o.Bootstrap != nil && !n.resync && n.snapIndex == 0 && len(n.log) == 0 {
		boot := o.Bootstrap.Clone()
		n.log = append(n.log, wire.MetaEntry{
			Index: 1, Term: 0,
			Rec: wire.MetaRecord{Op: wire.TShardMap, Body: boot.Marshal()},
		})
		n.persistLogLocked(1, n.log)
	}
	n.resetDeadlineLocked()
	n.notify = make([]chan struct{}, len(n.peers))
	for p := range n.peers {
		if p == n.id {
			continue
		}
		n.notify[p] = make(chan struct{}, 1)
		n.wg.Add(1)
		go n.replicate(p)
	}
	if len(n.peers) == 1 {
		// A solo deployment (the mgr compatibility wrapper) needs no
		// election: become leader immediately so the first create never
		// waits out an election timeout. The term bump mirrors an
		// election so a recovered log's entries stay in older terms.
		n.mu.Lock()
		n.term++
		n.votedFor = n.id
		n.persistHardLocked()
		n.becomeLeaderLocked()
		n.mu.Unlock()
	}
	n.wg.Add(1)
	go n.clockLoop()
	n.wg.Add(1)
	go n.commitLoop()
	n.wg.Add(1)
	go n.compactLoop()
	return n, nil
}

// restoreSnapshotLocked rebuilds log base and materialized state from
// a snapshot (recovery and follower install share it). Snapshots are
// committed state by construction.
func (n *Node) restoreSnapshotLocked(snap *wire.MetaSnapshot) {
	n.snapIndex = snap.LastIndex
	n.snapTerm = snap.LastTerm
	n.log = nil
	n.commit = snap.LastIndex
	n.applied = snap.LastIndex
	n.durable = snap.LastIndex
	m := snap.Map
	n.smap = &m
	n.states = make([]*namespace, len(m.Shards))
	for i := range n.states {
		n.states[i] = newNamespace()
	}
	for i := range snap.Shards {
		s := &snap.Shards[i]
		if int(s.Shard) < len(n.states) {
			n.states[s.Shard].install(s)
		}
	}
}

// --- persistence ---

// errPersist fails proposals once a stable-state write has failed: the
// replica can no longer make durable promises.
var errPersist = errors.New("meta: persistent state write failed")

// persistHardLocked durably records term/votedFor. On failure the
// replica wounds itself — it stops granting votes, acking appends,
// and acking proposals — because an unpersisted promise could be
// broken by a restart.
func (n *Node) persistHardLocked() {
	if n.stable == nil || n.wounded {
		return
	}
	h := wire.MetaHardState{Term: n.term, VotedFor: int32(n.votedFor)}
	n.walMu.Lock()
	err := n.stable.saveHard(h)
	n.walMu.Unlock()
	if err != nil {
		n.wounded = true
		logf(n.logger, "meta[%d]: persist hard state: %v", n.id, err)
	}
}

// persistLogLocked durably records one log mutation (truncate to
// < from, then append entries). On success the whole in-memory log is
// durable: stable failures are sticky (a failed batch wound's the
// node), so a successful later write implies no earlier gap.
func (n *Node) persistLogLocked(from uint64, entries []wire.MetaEntry) {
	if n.stable == nil {
		n.durable = n.lastIndexLocked()
		return
	}
	if n.wounded {
		return
	}
	n.walMu.Lock()
	err := n.stable.appendLog(from, entries)
	n.walMu.Unlock()
	if err != nil {
		n.wounded = true
		logf(n.logger, "meta[%d]: persist log: %v", n.id, err)
		return
	}
	n.durable = n.lastIndexLocked()
}

// persistSnapshotLocked durably replaces the snapshot and resets the
// WAL to the surviving log tail.
func (n *Node) persistSnapshotLocked(snap *wire.MetaSnapshot) {
	if n.stable == nil {
		n.durable = n.lastIndexLocked()
		return
	}
	if n.wounded {
		return
	}
	h := wire.MetaHardState{Term: n.term, VotedFor: int32(n.votedFor)}
	n.walMu.Lock()
	err := n.stable.saveSnapshot(snap, n.log, h)
	n.walMu.Unlock()
	if err != nil {
		n.wounded = true
		logf(n.logger, "meta[%d]: persist snapshot: %v", n.id, err)
		return
	}
	// The WAL reset rewrote the whole surviving tail.
	n.durable = n.lastIndexLocked()
}

// Close shuts the replica down; outstanding proposals fail.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stopC)
	for idx, ch := range n.waiters {
		ch <- applyResult{err: errClosed}
		delete(n.waiters, idx)
	}
	for _, p := range n.pending {
		p.ch <- applyResult{err: errClosed}
	}
	n.pending = nil
	n.mu.Unlock()
	n.pool.Close()
	n.wg.Wait()
	if n.stable != nil {
		n.stable.close()
	}
	return nil
}

// --- basic introspection ---

// ID returns the replica's index.
func (n *Node) ID() int { return n.id }

// Addr returns the replica's configured address.
func (n *Node) Addr() string { return n.peers[n.id] }

// IsLeader reports whether the replica currently leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == leader
}

// Term returns the current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Stats reports master-side accounting: leadership changes plus the
// group-commit efficiency counters (proposals per batch and per append
// round, WAL fsyncs).
func (n *Node) Stats() wire.ServerStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := wire.ServerStats{
		ElectionCount:    n.elections,
		MetaProposals:    n.proposals,
		MetaBatches:      n.batches,
		MetaAppendRounds: n.appendRounds,
	}
	if n.stable != nil {
		st.MetaWALSyncs = n.stable.syncs.Load()
	}
	return st
}

// CurrentMap returns the committed shard map, or nil before the
// bootstrap entry commits.
func (n *Node) CurrentMap() *wire.ShardMap {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.smap == nil {
		return nil
	}
	return n.smap.Clone()
}

// waitMap returns the committed shard map, riding out boot and the
// first election: a fresh replica has no committed map until a leader
// emerges and replicates the bootstrap entry (~one election timeout),
// and failing the query instantly would force every client to carry
// its own election-aware retry loop. Bounded by ProposeWait so a
// partitioned minority replica still answers Unavailable promptly.
func (n *Node) waitMap() *wire.ShardMap {
	deadline := time.Now().Add(n.timing.ProposeWait)
	for {
		if m := n.CurrentMap(); m != nil && m.Epoch > 0 {
			return m
		}
		if time.Now().After(deadline) {
			return nil
		}
		t := time.NewTimer(n.timing.Heartbeat)
		select {
		case <-t.C:
		case <-n.stopC:
			t.Stop()
			return nil
		}
	}
}

func (n *Node) lastIndexLocked() uint64 { return n.snapIndex + uint64(len(n.log)) }

func (n *Node) termAtLocked(idx uint64) uint64 {
	switch {
	case idx == n.snapIndex:
		return n.snapTerm
	case idx > n.snapIndex && idx <= n.lastIndexLocked():
		return n.log[idx-n.snapIndex-1].Term
	default:
		return 0
	}
}

func (n *Node) entryAtLocked(idx uint64) *wire.MetaEntry {
	return &n.log[idx-n.snapIndex-1]
}

func (n *Node) resetDeadlineLocked() {
	lo, hi := n.timing.ElectionLo, n.timing.ElectionHi
	n.deadline = time.Now().Add(lo + time.Duration(n.rng.Int63n(int64(hi-lo)+1)))
}

func (n *Node) leaderHintLocked() string {
	if n.leaderID >= 0 && n.leaderID < len(n.peers) && n.leaderID != n.id {
		return n.peers[n.leaderID]
	}
	return ""
}

// stepDownLocked adopts a higher term observed from a peer. Only a
// role change restarts the election timer: a follower that merely
// learns a term (say, from a vote request it then denies) keeps its
// deadline, or a candidate whose log is too short to win could keep
// resetting the timers of the replicas that could (Raft, Fig. 2).
func (n *Node) stepDownLocked(term uint64) {
	if term > n.term {
		n.term = term
		n.votedFor = -1
		n.persistHardLocked()
	}
	if n.role != follower {
		logf(n.logger, "meta[%d]: stepping down at term %d", n.id, n.term)
		n.role = follower
		n.resetDeadlineLocked()
	}
}

// becomeLeaderLocked transitions candidate → leader for n.term.
func (n *Node) becomeLeaderLocked() {
	n.role = leader
	n.leaderID = n.id
	n.elections++
	last := n.lastIndexLocked()
	for p := range n.peers {
		n.nextIdx[p] = last + 1
		n.matchIdx[p] = 0
	}
	// A no-op entry of the new term lets prior-term entries commit
	// immediately (the commit rule only counts current-term entries),
	// so proposals stranded by the old leader's death settle without
	// waiting for fresh traffic.
	n.log = append(n.log, wire.MetaEntry{
		Index: last + 1, Term: n.term,
		Rec: wire.MetaRecord{Op: wire.TPing},
	})
	n.persistLogLocked(last+1, n.log[len(n.log)-1:])
	n.lastBeat = time.Now()
	logf(n.logger, "meta[%d]: leading term %d (log %d)", n.id, n.term, last+1)
	n.advanceCommitLocked()
	n.sendDueLocked()
}

// sendDueLocked owes every follower one append, with or without
// entries, and wakes the replicators.
func (n *Node) sendDueLocked() {
	for p := range n.sendDue {
		n.sendDue[p] = true
	}
	n.kickAllLocked()
}

// kickAllLocked wakes the replicators; each sends only if it has
// entries, a snapshot, or a due append for its follower.
func (n *Node) kickAllLocked() {
	for p, ch := range n.notify {
		if p == n.id || ch == nil {
			continue
		}
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// --- clock: election timeouts and heartbeats ---

func (n *Node) clockLoop() {
	defer n.wg.Done()
	tick := n.timing.Heartbeat / 3
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-n.stopC:
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		if n.role == leader {
			if time.Since(n.lastBeat) >= n.timing.Heartbeat {
				n.lastBeat = time.Now()
				n.sendDueLocked()
			}
		} else if len(n.peers) > 1 && !n.resync && time.Now().After(n.deadline) {
			n.startElectionLocked()
		}
		n.mu.Unlock()
	}
}

func (n *Node) startElectionLocked() {
	if n.wounded {
		return // an unpersisted self-vote is a promise we cannot keep
	}
	n.term++
	n.votedFor = n.id
	n.persistHardLocked()
	if n.wounded {
		return
	}
	n.role = candidate
	n.leaderID = -1
	n.resetDeadlineLocked()
	term := n.term
	lastIdx := n.lastIndexLocked()
	lastTerm := n.termAtLocked(lastIdx)
	logf(n.logger, "meta[%d]: candidate for term %d (log %d/%d)", n.id, term, lastIdx, lastTerm)
	n.wg.Add(1)
	go n.runElection(term, lastIdx, lastTerm)
}

func (n *Node) runElection(term, lastIdx, lastTerm uint64) {
	defer n.wg.Done()
	req := wire.MetaVoteReq{Term: term, Candidate: uint32(n.id), LastIndex: lastIdx, LastTerm: lastTerm}
	body := req.Marshal()
	results := make(chan wire.MetaVoteResp, len(n.peers))
	for p := range n.peers {
		if p == n.id {
			continue
		}
		addr := n.peers[p]
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), n.timing.CallTimeout)
			defer cancel()
			resp, err := n.callPeer(ctx, addr, wire.Message{
				Header: wire.Header{Type: wire.TMetaVote}, Body: body,
			})
			if err != nil {
				results <- wire.MetaVoteResp{}
				return
			}
			var vr wire.MetaVoteResp
			uerr := vr.Unmarshal(resp.Body)
			resp.Release()
			if uerr != nil {
				vr = wire.MetaVoteResp{}
			}
			results <- vr
		}()
	}
	votes := 1 // self
	needed := len(n.peers)/2 + 1
	for i := 0; i < len(n.peers)-1; i++ {
		var vr wire.MetaVoteResp
		select {
		case vr = <-results:
		case <-n.stopC:
			return
		}
		n.mu.Lock()
		if n.closed || n.term != term || n.role != candidate {
			n.mu.Unlock()
			return
		}
		if vr.Term > n.term {
			n.stepDownLocked(vr.Term)
			n.mu.Unlock()
			return
		}
		if vr.Granted {
			votes++
			if votes >= needed {
				n.becomeLeaderLocked()
				n.mu.Unlock()
				return
			}
		}
		n.mu.Unlock()
	}
}

// callPeer issues one RPC to a master peer, discarding the pooled
// connection on transport failure so the next attempt redials.
func (n *Node) callPeer(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	conn, err := n.pool.GetContext(ctx, addr)
	if err != nil {
		return wire.Message{}, err
	}
	resp, err := conn.CallContext(ctx, req)
	if err != nil {
		var serr *wire.StatusError
		if !errors.As(err, &serr) {
			n.pool.Discard(addr)
			return wire.Message{}, err
		}
	}
	return resp, nil
}

// --- replication (leader side) ---

// maxAppendEntries caps entries per append frame; a far-behind
// follower catches up over several rounds (or one snapshot).
const maxAppendEntries = 512

func (n *Node) replicate(p int) {
	defer n.wg.Done()
	addr := n.peers[p]
	for {
		select {
		case <-n.notify[p]:
		case <-n.stopC:
			return
		}
		// Sync this follower until it is caught up, we lose leadership,
		// or its transport fails (the next heartbeat kick retries).
		for n.syncPeer(p, addr) {
		}
	}
}

// syncPeer ships one append (or snapshot) to a follower and processes
// the response. It returns true when another round should follow
// immediately (more entries pending or a consistency backoff). An
// append with no entries goes out only when one is due (sendDue): the
// commit index otherwise rides the next round that carries entries or
// the next heartbeat, so a batch costs one round per follower.
func (n *Node) syncPeer(p int, addr string) bool {
	n.mu.Lock()
	if n.closed || n.role != leader {
		n.mu.Unlock()
		return false
	}
	term := n.term
	req := wire.MetaAppendReq{Term: term, Leader: uint32(n.id), Commit: n.commit}
	var snapLast uint64
	ni := n.nextIdx[p]
	if last := n.lastIndexLocked(); ni > last+1 {
		// The log shrank under this cursor: a wounded-mid-batch truncate
		// can erase entries a follower already acked (pre-durable
		// shipping). Resume from the new end — the follower's surplus
		// suffix is resolved by the next election, not by us.
		ni = last + 1
	}
	var installRefs *snapRefs
	if ni <= n.snapIndex {
		// The follower is behind the compacted prefix: ship the
		// snapshot wholesale and resume entry replay above it. Capture
		// it as shared references here; the O(namespace) serialization
		// happens after mu is released.
		r := n.snapshotRefsLocked()
		installRefs = &r
		snapLast = r.lastIndex
	} else {
		req.PrevIndex = ni - 1
		req.PrevTerm = n.termAtLocked(ni - 1)
		// Entries ship as soon as they are in the in-memory log — before
		// the leader's own WAL fsync lands. That overlap is safe: each
		// follower fsyncs before acking, the leader's own commit vote is
		// gated on n.durable, and advanceCommit counts only durable
		// copies — so a majority is durable by definition at commit. It
		// also means two followers can commit an entry the leader never
		// managed to fsync; wounded-mid-batch truncation is guarded by
		// the commit index so an entry acked that way is never erased.
		last := n.lastIndexLocked()
		count := 0
		if last >= ni {
			count = int(last - ni + 1)
		}
		if count > maxAppendEntries {
			count = maxAppendEntries
		}
		switch {
		case count > 0:
			req.Entries = make([]wire.MetaEntry, count)
			copy(req.Entries, n.log[ni-n.snapIndex-1:])
			n.appendRounds++
		case !n.sendDue[p]:
			n.mu.Unlock()
			return false
		default:
			n.emptyRounds++
		}
	}
	n.sendDue[p] = false
	n.mu.Unlock()
	if installRefs != nil {
		req.Snap = installRefs.snapshot().Marshal()
	}

	ctx, cancel := context.WithTimeout(context.Background(), n.timing.CallTimeout)
	resp, err := n.callPeer(ctx, addr, wire.Message{
		Header: wire.Header{Type: wire.TMetaAppend}, Body: req.Marshal(),
	})
	cancel()
	if err != nil {
		return false
	}
	var ar wire.MetaAppendResp
	uerr := ar.Unmarshal(resp.Body)
	resp.Release()
	if uerr != nil {
		return false
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.role != leader || n.term != term {
		return false
	}
	if ar.Term > n.term {
		n.stepDownLocked(ar.Term)
		return false
	}
	if !ar.Success {
		// Consistency miss: the response's Match is the follower's own
		// last consistent index, so back up in one round.
		next := ar.Match + 1
		if next < 1 {
			next = 1
		}
		if next < n.nextIdx[p] {
			n.nextIdx[p] = next
		} else {
			n.nextIdx[p]--
			if n.nextIdx[p] < 1 {
				n.nextIdx[p] = 1
			}
		}
		return true
	}
	match := ar.Match
	if req.Snap != nil && match < snapLast {
		match = snapLast
	}
	if match > n.matchIdx[p] {
		n.matchIdx[p] = match
	}
	n.nextIdx[p] = n.matchIdx[p] + 1
	n.advanceCommitLocked()
	return n.nextIdx[p] <= n.lastIndexLocked()
}

// advanceCommitLocked moves the commit index to the highest entry of
// the current term replicated on a majority, then applies and fires
// waiters. Only current-term entries are counted directly (the Raft
// commit rule); earlier-term entries commit transitively.
func (n *Node) advanceCommitLocked() {
	if n.role != leader {
		return
	}
	majority := len(n.peers)/2 + 1
	for idx := n.lastIndexLocked(); idx > n.commit; idx-- {
		if n.termAtLocked(idx) != n.term {
			break // older terms cannot be counted; nothing above matched
		}
		// The leader's own vote counts only once the entry is fsynced
		// locally: a batch mid-flight (or wounded mid-batch and about to
		// be truncated) is not a durable promise yet.
		votes := 0
		if n.durable >= idx {
			votes++
		}
		for p := range n.peers {
			if p != n.id && n.matchIdx[p] >= idx {
				votes++
			}
		}
		if votes >= majority {
			n.commit = idx
			break
		}
	}
	if n.applyLocked() {
		// A committed shard map goes to the followers now rather than
		// at the next heartbeat: their CurrentMap serves map readers.
		n.sendDueLocked()
	}
}

// applyLocked folds committed entries into the materialized state,
// answers proposal waiters, and compacts the log when it outgrows
// MaxLog. It reports whether a shard-map entry was applied.
func (n *Node) applyLocked() bool {
	config := false
	for n.applied < n.commit {
		n.applied++
		e := n.entryAtLocked(n.applied)
		config = config || e.Rec.Op == wire.TShardMap
		res := n.applyEntryLocked(e)
		res.idx = n.applied
		if ch, ok := n.waiters[n.applied]; ok {
			delete(n.waiters, n.applied)
			ch <- res
		}
	}
	if n.maxLog > 0 && n.applied > n.snapIndex && len(n.log) > n.compactThresholdLocked() {
		// Wake the background compactor rather than folding inline:
		// serializing and fsyncing the whole namespace under mu would
		// stall every vote, append and proposal for the duration —
		// long enough at large namespaces that clients time out and
		// retry, which turns one acked create into a spurious
		// "exists" on the retry.
		select {
		case n.compactC <- struct{}{}:
		default:
		}
	}
	return config
}

func (n *Node) applyEntryLocked(e *wire.MetaEntry) applyResult {
	rec := &e.Rec
	switch rec.Op {
	case wire.TShardMap:
		var m wire.ShardMap
		if err := m.Unmarshal(rec.Body); err != nil {
			return applyResult{status: wire.StatusProtocol}
		}
		if len(n.states) > 0 && len(m.Shards) != len(n.states) {
			// Shard count is fixed per deployment: handles encode their
			// creation-time count, so a resizing config would break
			// handle routing and orphan per-shard state. ProposeConfig
			// rejects these up front; refuse deterministically here too
			// in case one reaches the log anyway.
			return applyResult{status: wire.StatusInvalid}
		}
		n.smap = &m
		if len(n.states) == 0 {
			// First config (bootstrap or replay from empty): size the
			// per-shard states. Later config entries only bump the epoch
			// or swap addresses.
			n.states = make([]*namespace, len(m.Shards))
			for i := range n.states {
				n.states[i] = newNamespace()
			}
		}
		return applyResult{status: wire.StatusOK}
	case wire.TPing:
		return applyResult{status: wire.StatusOK}
	default:
		if int(rec.Shard) >= len(n.states) {
			return applyResult{status: wire.StatusProtocol}
		}
		st, info := n.states[rec.Shard].apply(rec, len(n.states))
		return applyResult{status: st, info: info}
	}
}

// snapRefs is a capture of the applied state as shared references:
// the *FileInfo values are immutable once inserted (apply
// clones-and-swaps on mutation), so the holder may read and marshal
// them after mu is released. Taking it costs O(entries) pointer
// copies, not O(bytes) — the difference between a blink and a
// multi-second stall under mu at million-file namespaces.
type snapRefs struct {
	lastIndex uint64
	lastTerm  uint64
	smap      *wire.ShardMap
	shards    []uint32
	files     []map[string]*wire.FileInfo
	nextSeq   []uint64
}

// addShardLocked appends one partition's refs to the capture.
func (r *snapRefs) addShardLocked(shard uint32, ns *namespace) {
	m := make(map[string]*wire.FileInfo, len(ns.files))
	for k, v := range ns.files {
		m[k] = v
	}
	r.shards = append(r.shards, shard)
	r.files = append(r.files, m)
	r.nextSeq = append(r.nextSeq, ns.nextSeq)
}

// snapshotRefsLocked captures the full applied state for an off-lock
// serialization (the background compactor, follower installs, shard
// recovery fetches).
func (n *Node) snapshotRefsLocked() snapRefs {
	r := snapRefs{lastIndex: n.applied, lastTerm: n.termAtLocked(n.applied)}
	if n.smap != nil {
		r.smap = n.smap.Clone()
	}
	for i, ns := range n.states {
		r.addShardLocked(uint32(i), ns)
	}
	return r
}

// snapshot materializes the capture; safe without any node lock.
func (r snapRefs) snapshot() *wire.MetaSnapshot {
	snap := &wire.MetaSnapshot{LastIndex: r.lastIndex, LastTerm: r.lastTerm}
	if r.smap != nil {
		snap.Map = *r.smap
	}
	for i, m := range r.files {
		st := wire.MetaShardState{Shard: r.shards[i], NextSeq: r.nextSeq[i]}
		for name, info := range m {
			st.Files = append(st.Files, wire.MetaFileRec{Name: name, Info: *info})
		}
		snap.Shards = append(snap.Shards, st)
	}
	return snap
}

// compactThresholdLocked returns the log length that wakes the
// compactor. With an explicit MaxLog it is exactly that. Under the
// default policy it scales with the namespace: folding the log costs
// O(files) (serialize + write + fsync the whole state), so a fixed
// trigger pays that every maxLog commits — O(files²/maxLog) total
// over a big fill, and each individual fold eventually outlasts
// client timeouts. Scaling the trigger to files/8 keeps total
// compaction work at O(files·log files) while bounding the WAL tail
// a recovery must replay to ~12% of the namespace.
func (n *Node) compactThresholdLocked() int {
	t := n.maxLog
	if n.adaptiveLog {
		files := 0
		for _, ns := range n.states {
			files += len(ns.files)
		}
		if files/8 > t {
			t = files / 8
		}
	}
	return t
}

// compactLoop runs log compaction off every hot path. applyLocked
// nudges compactC when the log outgrows the threshold.
func (n *Node) compactLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.compactC:
		case <-n.stopC:
			return
		}
		n.compactOnce()
	}
}

// compactOnce folds the applied prefix into the snapshot base. The
// expensive half — marshaling and fsyncing the whole namespace — runs
// with no node locks held, so proposals, votes and appends proceed
// against the old WAL meanwhile. Only the bookkeeping at either end
// takes mu, and only the bounded WAL reset rides the mu→walMu
// handoff.
func (n *Node) compactOnce() {
	n.mu.Lock()
	if n.closed || n.wounded || n.applied <= n.snapIndex ||
		len(n.log) <= n.compactThresholdLocked() {
		n.mu.Unlock()
		return
	}
	refs := n.snapshotRefsLocked()
	newBase := n.applied
	n.snapTerm = n.termAtLocked(newBase)
	n.log = append([]wire.MetaEntry(nil), n.log[newBase-n.snapIndex:]...)
	n.snapIndex = newBase
	if n.stable == nil {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()

	if err := n.stable.writeSnap(refs.snapshot()); err != nil {
		n.mu.Lock()
		n.wounded = true
		logf(n.logger, "meta[%d]: persist snapshot: %v", n.id, err)
		n.mu.Unlock()
		return
	}

	n.mu.Lock()
	if n.closed || n.wounded || n.snapIndex != newBase {
		// A snapshot install superseded this fold while the file was
		// being written (writeSnap skipped the stale image); the
		// installer already reset the WAL to match its own snapshot.
		n.mu.Unlock()
		return
	}
	tail := append([]wire.MetaEntry(nil), n.log...)
	hard := wire.MetaHardState{Term: n.term, VotedFor: int32(n.votedFor)}
	n.walMu.Lock()
	n.mu.Unlock()
	err := n.stable.resetWAL(tail, hard)
	n.walMu.Unlock()
	n.mu.Lock()
	if err != nil {
		n.wounded = true
		logf(n.logger, "meta[%d]: persist snapshot: %v", n.id, err)
	}
	// n.durable needs no update: every entry in the rewritten tail
	// was already in the old WAL (its writer held the handoff before
	// this one), so nothing became durable that wasn't.
	n.mu.Unlock()
}

// installSnapshotLocked replaces log and state wholesale (a follower
// that fell behind the leader's compacted prefix).
func (n *Node) installSnapshotLocked(snap *wire.MetaSnapshot) {
	if snap.LastIndex <= n.commit {
		return // we already have everything the snapshot covers
	}
	n.restoreSnapshotLocked(snap)
	n.persistSnapshotLocked(snap)
	// Any waiter below the snapshot horizon was resolved elsewhere;
	// followers hold no waiters, but be safe on role transitions.
	for idx, ch := range n.waiters {
		if idx <= n.commit {
			ch <- applyResult{err: errLostEntry}
			delete(n.waiters, idx)
		}
	}
}

// --- proposals ---

// Propose submits one mutation record for replication and waits for
// its committed verdict: the applied status, (for creates) file info,
// and the entry's committed log index — shards order snapshot
// installs against it. A StatusNotLeader status carries no verdict —
// the caller should retry against hint (the leader's address, when
// known).
//
// Every proposal goes through the group committer, which folds
// everything queued into one batch — one multi-entry WAL append with a
// single fsync (performed off the mu critical section) and one
// replication wave — and answers every waiter from the same
// advanceCommit pass. A lone proposal is a batch of one.
func (n *Node) Propose(ctx context.Context, rec wire.MetaRecord) (wire.Status, *wire.FileInfo, uint64, string, error) {
	ps, hint, err := n.enqueue([]wire.MetaRecord{rec})
	if errors.Is(err, ErrNotLeader) {
		return wire.StatusNotLeader, nil, 0, hint, nil
	}
	if err != nil {
		return 0, nil, 0, "", err
	}
	return n.waitProposal(ctx, ps[0])
}

// enqueue queues recs, in order, for the committer's next batch and
// wakes it. On a non-leader it queues nothing and returns the leader
// hint with ErrNotLeader.
func (n *Node) enqueue(recs []wire.MetaRecord) ([]*pendingProposal, string, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, "", errClosed
	}
	if n.wounded {
		n.mu.Unlock()
		return nil, "", errPersist
	}
	if n.role != leader {
		hint := n.leaderHintLocked()
		n.mu.Unlock()
		return nil, hint, ErrNotLeader
	}
	ps := make([]*pendingProposal, len(recs))
	for i := range recs {
		ps[i] = &pendingProposal{rec: recs[i], ch: make(chan applyResult, 1)}
	}
	n.pending = append(n.pending, ps...)
	n.mu.Unlock()
	select {
	case n.propC <- struct{}{}:
	default:
	}
	return ps, "", nil
}

// waitProposal blocks until p's verdict, the context's end, or
// shutdown.
func (n *Node) waitProposal(ctx context.Context, p *pendingProposal) (wire.Status, *wire.FileInfo, uint64, string, error) {
	unpack := func(res applyResult) (wire.Status, *wire.FileInfo, uint64, string, error) {
		if res.err != nil {
			return 0, nil, 0, "", res.err
		}
		return res.status, res.info, res.idx, res.hint, nil
	}
	select {
	case res := <-p.ch:
		return unpack(res)
	case <-ctx.Done():
		// Prefer a verdict that raced in over the cancellation: only if
		// the proposal is still queued, or its waiter still registered,
		// is the outcome truly unknown.
		n.mu.Lock()
		for i, q := range n.pending {
			if q == p {
				n.pending = append(n.pending[:i], n.pending[i+1:]...)
				n.mu.Unlock()
				return 0, nil, 0, "", ctx.Err()
			}
		}
		if p.idx != 0 {
			if ch, ok := n.waiters[p.idx]; ok && ch == p.ch {
				delete(n.waiters, p.idx) // the entry may still commit later
				n.mu.Unlock()
				return 0, nil, 0, "", ctx.Err()
			}
		}
		n.mu.Unlock()
		return unpack(<-p.ch)
	case <-n.stopC:
		return 0, nil, 0, "", errClosed
	}
}

// commitLoop is the group committer: it drains every proposal queued
// while the previous batch was on disk into one log append with a
// single WAL fsync, performed outside the mu critical section so
// votes, appends, and heartbeats never wait on the disk.
//
// Coalescing comes from two sources. First, backpressure: while one
// batch's fsync holds walMu (mu released), every proposal that
// arrives queues behind it and is drained into the next flush — the
// slower the disk, the larger the batches. Second, a yield linger:
// before flushing, the committer cedes the processor until the queue
// stops growing, so proposal handlers that are already runnable land
// in this fsync instead of the next. The linger is Gosched, never a
// timer — Go rounds sub-millisecond sleeps up, which was measured to
// tax every proposal's latency far more than the fsync it saves,
// while Gosched returns immediately once no other goroutine wants
// the processor.
func (n *Node) commitLoop() {
	defer n.wg.Done()
	const (
		lingerIdleYields = 8   // consecutive no-growth yields that end the linger
		lingerMaxYields  = 512 // hard bound under sustained arrival
	)
	for {
		select {
		case <-n.propC:
		case <-n.stopC:
			return
		}
		n.mu.Lock()
		prev := len(n.pending)
		n.mu.Unlock()
		if prev > 0 {
			idle := 0
			for spins := 0; spins < lingerMaxYields && idle < lingerIdleYields; spins++ {
				runtime.Gosched()
				n.mu.Lock()
				cur := len(n.pending)
				n.mu.Unlock()
				if cur != prev {
					prev = cur
					idle = 0
				} else {
					idle++
				}
			}
		}
		n.flushBatches()
	}
}

// flushBatches appends queued proposals batch by batch until the queue
// is empty (proposals arriving during a batch's fsync form the next
// batch — classic group commit).
func (n *Node) flushBatches() {
	n.mu.Lock()
	for len(n.pending) > 0 && !n.closed {
		batch := n.pending
		n.pending = nil
		if n.wounded {
			n.mu.Unlock()
			for _, p := range batch {
				p.ch <- applyResult{err: errPersist}
			}
			n.mu.Lock()
			continue
		}
		if n.role != leader {
			hint := n.leaderHintLocked()
			n.mu.Unlock()
			for _, p := range batch {
				p.ch <- applyResult{status: wire.StatusNotLeader, hint: hint}
			}
			n.mu.Lock()
			continue
		}
		term := n.term
		first := n.lastIndexLocked() + 1
		for i, p := range batch {
			p.idx = first + uint64(i)
			n.log = append(n.log, wire.MetaEntry{Index: p.idx, Term: term, Rec: p.rec})
			n.waiters[p.idx] = p.ch
		}
		last := first + uint64(len(batch)) - 1
		n.proposals += int64(len(batch))
		n.batches++
		if n.stable == nil {
			n.durable = n.lastIndexLocked()
			n.advanceCommitLocked()
			n.kickAllLocked()
			continue
		}
		// Wake the replicators before the fsync starts: followers append
		// and fsync the batch in parallel with the leader's own disk
		// wait, so the round costs max(leader sync, follower round trip)
		// instead of their sum. Follower acks may even commit the batch
		// (two durable followers are a majority) while the leader's sync
		// is still in flight — applyLocked then answers the waiters and
		// the post-fsync bookkeeping below finds them already gone.
		n.kickAllLocked()
		// ONE fsync for the whole batch, off the critical section. walMu
		// is acquired before mu is released so no later log mutation can
		// reach the WAL ahead of this batch: WAL record order must match
		// log order, or recovery's contiguous-suffix filter would
		// silently drop entries.
		entries := make([]wire.MetaEntry, len(batch))
		copy(entries, n.log[first-n.snapIndex-1:])
		n.walMu.Lock()
		n.mu.Unlock()
		err := n.stable.appendLog(first, entries)
		n.walMu.Unlock()
		n.mu.Lock()
		if err != nil {
			// Wounded mid-batch. The batch may already be on followers
			// (entries ship pre-durable), so drop it only while it is
			// provably uncommitted — the guard below refuses once any of
			// it reached the commit index via a follower majority. Unacked
			// waiters get errPersist, an unknown outcome: a follower
			// holding the suffix may still win the next election and
			// commit it, which is why records are idempotent and retried
			// whole.
			n.wounded = true
			logf(n.logger, "meta[%d]: persist batch %d..%d: %v", n.id, first, last, err)
			if n.commit < first && first > n.snapIndex &&
				n.lastIndexLocked() >= last && n.termAtLocked(first) == term {
				n.log = n.log[:first-n.snapIndex-1]
			}
			for _, p := range batch {
				if ch, ok := n.waiters[p.idx]; ok && ch == p.ch {
					delete(n.waiters, p.idx)
					ch <- applyResult{err: errPersist}
				}
			}
			continue
		}
		// The batch is durable — unless a higher term truncated it while
		// the fsync was in flight (then its owner updated durable).
		if n.lastIndexLocked() >= last && n.termAtLocked(last) == term && last > n.durable {
			n.durable = last
		}
		// No replication kick here: the pre-fsync kick already shipped
		// the batch, and followers learn the new commit index from the
		// next round that carries entries or the next heartbeat.
		if n.role == leader && n.term == term {
			n.advanceCommitLocked()
		}
	}
	n.mu.Unlock()
}

// ProposeBatch submits several records as one group-commit batch and
// waits for every verdict, in order. On a non-leader the hint is
// returned with ErrNotLeader; any unknown-outcome record fails the
// whole call (records are idempotent, so the caller retries the whole
// batch).
func (n *Node) ProposeBatch(ctx context.Context, recs []wire.MetaRecord) ([]wire.MetaProposeVerdict, string, error) {
	ps, hint, err := n.enqueue(recs)
	if err != nil {
		return nil, hint, err
	}
	verdicts := make([]wire.MetaProposeVerdict, len(recs))
	var firstErr error
	notLeader := false
	for i, p := range ps {
		st, info, idx, h, err := n.waitProposal(ctx, p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if st == wire.StatusNotLeader {
			notLeader = true
			if h != "" {
				hint = h
			}
			continue
		}
		verdicts[i] = wire.MetaProposeVerdict{Status: st, Index: idx}
		if info != nil {
			verdicts[i].Info = info.Marshal()
		}
	}
	if firstErr != nil {
		return nil, "", firstErr
	}
	if notLeader {
		return nil, hint, ErrNotLeader
	}
	return verdicts, "", nil
}

// ProposeConfig replicates a shard-map change built by mutate (applied
// to a copy of the current map with the epoch already bumped) and
// returns the committed map. A mutation that changes the shard count
// is rejected outright: handles encode their creation-time shard
// count, so resizing the partition space would break handle routing
// and orphan per-shard namespace state.
func (n *Node) ProposeConfig(ctx context.Context, mutate func(*wire.ShardMap)) (*wire.ShardMap, error) {
	n.mu.Lock()
	if n.smap == nil {
		n.mu.Unlock()
		return nil, errors.New("meta: no committed map yet")
	}
	next := n.smap.Clone()
	n.mu.Unlock()
	nshards := len(next.Shards)
	next.Epoch++
	if mutate != nil {
		mutate(next)
	}
	if len(next.Shards) != nshards {
		return nil, fmt.Errorf("meta: shard count is fixed per deployment (%d, proposed %d)",
			nshards, len(next.Shards))
	}
	st, _, _, _, err := n.Propose(ctx, wire.MetaRecord{Op: wire.TShardMap, Body: next.Marshal()})
	if err != nil {
		return nil, err
	}
	if st != wire.StatusOK {
		return nil, fmt.Errorf("meta: config proposal rejected: %v", st)
	}
	return next, nil
}

// readBarrier confirms this replica still leads by committing a no-op
// of its current term: the no-op can only commit if a majority still
// follows this leader, and its commit implies every entry any prior
// leader committed is in our applied state. Without it a partitioned
// deposed leader that still believes it leads would serve recovery
// snapshots missing majority-acked mutations.
func (n *Node) readBarrier(ctx context.Context) error {
	st, _, _, _, err := n.Propose(ctx, wire.MetaRecord{Op: wire.TPing})
	if err != nil {
		return err
	}
	if st == wire.StatusNotLeader {
		return ErrNotLeader
	}
	if st != wire.StatusOK {
		return fmt.Errorf("meta: read barrier: %v", st)
	}
	return nil
}

// fetchRefsLocked captures one partition's materialized state (or the
// full state for FetchFullSnapshot) with the current map, as shared
// references: at million-file namespaces the O(bytes) serialization
// must happen outside mu or every proposal stalls behind a recovering
// shard's fetch.
func (n *Node) fetchRefsLocked(shard uint32) (snapRefs, error) {
	if n.smap == nil {
		return snapRefs{}, fmt.Errorf("meta: no committed map yet")
	}
	if shard == wire.FetchFullSnapshot {
		return n.snapshotRefsLocked(), nil
	}
	if int(shard) >= len(n.states) {
		return snapRefs{}, errNoShard
	}
	r := snapRefs{
		lastIndex: n.applied,
		lastTerm:  n.termAtLocked(n.applied),
		smap:      n.smap.Clone(),
	}
	r.addShardLocked(shard, n.states[shard])
	return r, nil
}

// FetchShard returns one partition's materialized committed state with
// the current map; leader only, and only after a read barrier commit
// confirms the leadership is current — a deposed leader's stale state
// must never seed a restarting shard.
func (n *Node) FetchShard(ctx context.Context, shard uint32) (*wire.MetaSnapshot, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errClosed
	}
	if n.role != leader {
		n.mu.Unlock()
		return nil, ErrNotLeader
	}
	n.mu.Unlock()
	if err := n.readBarrier(ctx); err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errClosed
	}
	refs, err := n.fetchRefsLocked(shard)
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return refs.snapshot(), nil
}

// FetchMap returns the committed shard map from any role (shards use
// it for background refresh; epoch checking catches staleness).
func (n *Node) FetchMap(ctx context.Context) (*wire.ShardMap, error) {
	m := n.CurrentMap()
	if m == nil || m.Epoch == 0 {
		return nil, errors.New("meta: no committed map yet")
	}
	return m, nil
}

// --- wire handlers ---

// Handle serves the master wire protocol; attach it to a listener via
// pvfsnet.NewServer. It never retains req.Body: every decoded record
// copies its bytes.
func (n *Node) Handle(req wire.Message) wire.Message {
	switch req.Type {
	case wire.TMetaVote:
		return n.handleVote(req)
	case wire.TMetaAppend:
		return n.handleAppend(req)
	case wire.TMetaProposeBatch:
		return n.handleProposeBatch(req)
	case wire.TMetaFetch:
		return n.handleFetch(req)
	case wire.TShardMap:
		m := n.waitMap()
		if m == nil || m.Epoch == 0 {
			return wire.Message{Header: wire.Header{Status: wire.StatusUnavailable}}
		}
		return wire.Message{Body: m.Marshal()}
	case wire.TServerStats:
		st := n.Stats()
		return wire.Message{Body: st.Marshal()}
	case wire.TPing:
		return wire.Message{Header: wire.Header{Handle: req.Handle}}
	default:
		return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
	}
}

func (n *Node) handleVote(req wire.Message) wire.Message {
	var vr wire.MetaVoteReq
	if err := vr.Unmarshal(req.Body); err != nil {
		return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
	}
	n.mu.Lock()
	if vr.Term > n.term {
		n.stepDownLocked(vr.Term)
	}
	resp := wire.MetaVoteResp{Term: n.term}
	// A resyncing replica lost acks and votes with its damaged state,
	// so its vote could elect a candidate missing an entry it helped
	// commit: it grants none until a leader has refilled its log.
	if !n.wounded && !n.resync && vr.Term == n.term && (n.votedFor == -1 || n.votedFor == int(vr.Candidate)) {
		// Election restriction: only grant to candidates whose log is
		// at least as fresh as ours — this is what carries majority-
		// acked entries across leader failure.
		lastIdx := n.lastIndexLocked()
		lastTerm := n.termAtLocked(lastIdx)
		if vr.LastTerm > lastTerm || (vr.LastTerm == lastTerm && vr.LastIndex >= lastIdx) {
			n.votedFor = int(vr.Candidate)
			// The vote is a durable promise: it must reach disk before
			// the grant leaves, or a crash+restart could vote again in
			// this term.
			n.persistHardLocked()
			resp.Granted = !n.wounded
			n.resetDeadlineLocked()
		}
	}
	n.mu.Unlock()
	return wire.Message{Body: resp.Marshal()}
}

func (n *Node) handleAppend(req wire.Message) wire.Message {
	var ar wire.MetaAppendReq
	if err := ar.Unmarshal(req.Body); err != nil {
		return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
	}
	n.mu.Lock()
	resp := wire.MetaAppendResp{Term: n.term}
	if ar.Term < n.term {
		resp.Match = n.lastIndexLocked()
		n.mu.Unlock()
		return wire.Message{Body: resp.Marshal()}
	}
	if ar.Term > n.term || n.role != follower {
		n.stepDownLocked(ar.Term)
	}
	resp.Term = n.term
	n.leaderID = int(ar.Leader)
	n.resetDeadlineLocked()
	if n.wounded {
		// Acking replication we cannot persist would let the leader
		// count us toward commit and lose the entries on our restart.
		resp.Match = n.commit
		n.mu.Unlock()
		return wire.Message{Body: resp.Marshal()}
	}

	if len(ar.Snap) > 0 {
		var snap wire.MetaSnapshot
		if err := snap.Unmarshal(ar.Snap); err != nil {
			n.mu.Unlock()
			return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
		}
		n.installSnapshotLocked(&snap)
		resp.Success = !n.wounded
		resp.Match = n.commit
		n.mu.Unlock()
		return wire.Message{Body: resp.Marshal()}
	}

	// An append under the per-round cap ran to the leader's last index.
	toLeaderEnd := len(ar.Entries) < maxAppendEntries
	// Consistency check: our log must contain (PrevIndex, PrevTerm).
	prev := ar.PrevIndex
	switch {
	case prev > n.lastIndexLocked():
		resp.Match = n.lastIndexLocked()
		n.mu.Unlock()
		return wire.Message{Body: resp.Marshal()}
	case prev < n.snapIndex:
		// Entries below our snapshot are committed and by definition
		// consistent with any legitimate leader; skip them.
		keep := ar.Entries[:0]
		for i := range ar.Entries {
			if ar.Entries[i].Index > n.snapIndex {
				keep = append(keep, ar.Entries[i])
			}
		}
		ar.Entries = keep
	case n.termAtLocked(prev) != ar.PrevTerm:
		// Conflicting history. Everything at or below commit is known
		// good, so point the leader there.
		resp.Match = n.commit
		n.mu.Unlock()
		return wire.Message{Body: resp.Marshal()}
	}

	// Append, truncating any conflicting suffix.
	lastShipped := ar.PrevIndex
	firstChanged := uint64(0) // first index our log actually mutated at
	for i := range ar.Entries {
		e := ar.Entries[i]
		lastShipped = e.Index
		if e.Index <= n.lastIndexLocked() {
			if n.termAtLocked(e.Index) == e.Term {
				continue // already have it
			}
			// Conflict: drop our suffix (it was never committed) and
			// fail its waiters.
			n.log = n.log[:e.Index-n.snapIndex-1]
			for idx, ch := range n.waiters {
				if idx >= e.Index {
					ch <- applyResult{err: errLostEntry}
					delete(n.waiters, idx)
				}
			}
		}
		if firstChanged == 0 {
			firstChanged = e.Index
		}
		n.log = append(n.log, e)
	}
	if firstChanged != 0 {
		// Persist the mutation before acking: the leader will count
		// this ack toward commit, so losing the entries on a restart
		// would lose committed state.
		n.persistLogLocked(firstChanged, n.log[firstChanged-n.snapIndex-1:])
		if n.wounded {
			resp.Match = n.commit
			n.mu.Unlock()
			return wire.Message{Body: resp.Marshal()}
		}
	}
	if ar.Commit > n.commit {
		// Only the prefix this append matched may commit: entries past
		// lastShipped can be a stale suffix of an older term.
		c := ar.Commit
		if c > lastShipped {
			c = lastShipped
		}
		if c > n.commit {
			n.commit = c
			n.applyLocked()
		}
	}
	resp.Success = true
	resp.Match = lastShipped
	if n.resync && toLeaderEnd {
		// The log now matches the leader's through its last index, so
		// it holds every committed entry, any this replica acked before
		// its state was damaged included. Recording the vote for this
		// leader keeps the replica from granting a second one in this
		// term.
		n.resync = false
		n.votedFor = int(ar.Leader)
		n.persistHardLocked()
		logf(n.logger, "meta[%d]: resynced from leader %d at term %d (log %d)",
			n.id, ar.Leader, n.term, n.lastIndexLocked())
	}
	n.mu.Unlock()
	return wire.Message{Body: resp.Marshal()}
}

// notLeaderResp is every NotLeader answer a replica sends: the status
// plus the leader hint GroupProposer.call follows.
func notLeaderResp(hint string) wire.Message {
	hr := wire.MetaProposeResp{LeaderAddr: hint}
	return wire.Message{Header: wire.Header{Status: wire.StatusNotLeader}, Body: hr.Marshal()}
}

func (n *Node) handleProposeBatch(req wire.Message) wire.Message {
	var br wire.MetaProposeBatchReq
	if err := br.Unmarshal(req.Body); err != nil {
		return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
	}
	if len(br.Recs) == 0 {
		return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.timing.ProposeWait)
	defer cancel()
	verdicts, hint, err := n.ProposeBatch(ctx, br.Recs)
	if errors.Is(err, ErrNotLeader) {
		return notLeaderResp(hint)
	}
	if err != nil {
		// Some record's outcome is unknown (no majority within the
		// window, shutdown mid-batch): the records are idempotent, so the
		// caller retries the whole batch after rediscovery.
		return wire.Message{Header: wire.Header{Status: wire.StatusUnavailable}}
	}
	hr := wire.MetaProposeBatchResp{Verdicts: verdicts}
	return wire.Message{Body: hr.Marshal()}
}

func (n *Node) handleFetch(req wire.Message) wire.Message {
	var fr wire.MetaFetchReq
	if err := fr.Unmarshal(req.Body); err != nil {
		return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
	}
	n.mu.Lock()
	if n.role != leader {
		hint := n.leaderHintLocked()
		n.mu.Unlock()
		return notLeaderResp(hint)
	}
	n.mu.Unlock()
	// Read barrier: a deposed leader partitioned from the majority
	// must answer NotLeader/Unavailable here, never a stale snapshot —
	// a restarting shard would install it and serve NotFound for files
	// whose creates the real group acked.
	ctx, cancel := context.WithTimeout(context.Background(), n.timing.ProposeWait)
	err := n.readBarrier(ctx)
	cancel()
	if errors.Is(err, ErrNotLeader) {
		n.mu.Lock()
		hint := n.leaderHintLocked()
		n.mu.Unlock()
		return notLeaderResp(hint)
	}
	if err != nil {
		return wire.Message{Header: wire.Header{Status: wire.StatusUnavailable}}
	}
	n.mu.Lock()
	refs, serr := n.fetchRefsLocked(fr.Shard)
	n.mu.Unlock()
	if errors.Is(serr, errNoShard) {
		return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
	}
	if serr != nil {
		return wire.Message{Header: wire.Header{Status: wire.StatusUnavailable}}
	}
	return wire.Message{Body: refs.snapshot().Marshal()}
}
