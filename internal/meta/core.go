package meta

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pvfs/internal/wire"
)

// core is one master replica's consensus state machine (DESIGN.md §13,
// "Core and shell"): term, vote, role, log, snapshot base, commit and
// apply, replication cursors and the group-commit queue. Each method
// takes one input — a received vote, append or propose, a reply from a
// peer, a tick carrying the current time, or the shell's report that
// records were written — and returns what to do as an output. The core
// has no goroutines, locks, clock or I/O: the shell (Node) calls it
// under one mutex and carries its outputs out.
type core struct {
	id     int
	peers  []string // every replica's address, ID order; opaque here
	timing Timing
	rng    *rand.Rand // election jitter, seeded by the shell
	// maxLog is the compaction floor: the log folds into a snapshot
	// once it outgrows max(maxLog, files/8) entries.
	maxLog int

	term     uint64
	votedFor int
	role     role
	leaderID int
	// wounded: a persist failed, so the replica makes no more durable
	// promises — no votes, acks, elections or proposals.
	wounded bool
	// resync marks a replica that restarted over damaged state
	// (errCorruptState): it grants no votes and stands for no election
	// until a leader's append has matched its log to the leader's end.
	resync    bool
	snapIndex uint64 // log entries <= snapIndex are folded into states
	snapTerm  uint64
	log       []wire.MetaEntry // log[i] holds index snapIndex+1+i
	commit    uint64
	applied   uint64
	durable   uint64         // highest log index the shell reported written
	states    []*namespace   // per-shard materialized state at applied
	smap      *wire.ShardMap // committed shard map
	matchIdx  []uint64       // leader: highest index known on each follower
	nextIdx   []uint64       // leader: next index to ship each follower
	// sendDue marks a follower owed an append even if it carries no
	// entries: a heartbeat, a new leader's first round, or a committed
	// shard map. Any append sent to the follower clears it.
	sendDue  []bool
	pre      bool   // candidate: this round asks for pre-votes at term+1
	granted  []bool // candidate: the replicas that granted this round's vote
	answered []bool // candidate: the replicas that granted or denied it
	// askAt and askGap back off the re-ask of a peer whose vote call
	// failed: it is not asked again before askAt, and askGap is the
	// last wait. The backoff lasts across the replica's own consecutive
	// rounds, and ends when the peer answers or the replica stops being
	// a candidate.
	askAt    []time.Time
	askGap   []time.Duration
	deadline time.Time // election deadline (non-leaders)
	heard    time.Time // the last leader's append this replica accepted
	lastBeat time.Time // last heartbeat round (leader)

	spare   []record             // a persist buffer the shell handed back
	pending []*proposal          // queued for the next group-commit batch
	waiters map[uint64]*proposal // appended proposals by log index

	elections    int64
	proposals    int64 // mutation entries appended by flush
	batches      int64 // group-commit flushes
	appendRounds int64 // appends shipped carrying entries
	emptyRounds  int64 // appends shipped with no entries and no snapshot

	out output // accumulates the current input's output
}

// role is a replica's place in the current term.
type role int

const (
	follower role = iota
	candidate
	leader
)

// defaultMaxLog is the compaction floor.
const defaultMaxLog = 4096

// maxAppendEntries caps entries per append frame; a far-behind
// follower catches up over several rounds (or one snapshot).
const maxAppendEntries = 512

// output is what one core input asks the shell to do.
type output struct {
	// persist lists the records to write, in order. Replies and vote
	// requests of the same input leave only once all are durable; if
	// one fails, the shell reports it through persisted and refuses.
	persist []record
	kick    bool // wake the replicators (not gated on persist)
	compact bool // wake the compactor
	// vote goes to the peers in voteTo once persist, and every record
	// asked for before it, is durable.
	vote   *wire.MetaVoteReq
	voteTo []int
	// verdicts go to proposal waiters. The slice is the core's own and
	// is valid only until the next call.
	verdicts []verdict
	notes    []string // protocol events for the log
}

type verdict struct {
	p   *proposal
	res applyResult
}

// record is one durable write. The shell makes the records of an
// output durable in order, and the records of successive outputs in the
// order the core returned them, so WAL record order is log order.
type record struct {
	kind    recKind
	hard    wire.MetaHardState // recHard, recInstall, recReset
	from    uint64             // recLog: truncate below from, then append
	entries []wire.MetaEntry   // recLog; the surviving tail for recInstall, recReset
	snap    *wire.MetaSnapshot // recInstall
}

type recKind int

const (
	recHard    recKind = iota // term and vote
	recLog                    // one log mutation
	recInstall                // a leader's snapshot, then a WAL reset
	recReset                  // a WAL reset after the compactor wrote its snapshot
)

// applyResult is the committed verdict delivered to a proposal waiter.
type applyResult struct {
	status wire.Status
	info   *wire.FileInfo // applied file metadata, creates only
	idx    uint64         // committed log index (zero on error)
	hint   string         // leader hint, NotLeader verdicts only
	err    error
}

var (
	// ErrNotLeader is returned by local propose/fetch on a non-leader.
	ErrNotLeader = errors.New("meta: not the leader")
	// errPersist fails proposals once a stable-state write has failed.
	errPersist = errors.New("meta: persistent state write failed")
	// errLostEntry fails waiters whose entry a new leader's log
	// truncated: the proposal definitively did not commit.
	errLostEntry = errors.New("meta: proposal superseded by new leader")
	// errNoShard rejects a fetch for a partition outside the shard map.
	errNoShard = errors.New("meta: no state for that shard")
)

func newCore(id int, peers []string, t Timing, rng *rand.Rand) *core {
	return &core{
		id: id, peers: peers, timing: t, rng: rng, maxLog: defaultMaxLog,
		votedFor: -1, leaderID: -1,
		waiters:  make(map[uint64]*proposal),
		matchIdx: make([]uint64, len(peers)),
		nextIdx:  make([]uint64, len(peers)),
		sendDue:  make([]bool, len(peers)),
		granted:  make([]bool, len(peers)),
		answered: make([]bool, len(peers)),
		askAt:    make([]time.Time, len(peers)),
		askGap:   make([]time.Duration, len(peers)),
	}
}

// recover loads what a previous incarnation persisted. It came off
// disk, so it is durable by definition.
func (c *core) recover(rec *recovered, resync bool) {
	c.term = rec.hard.Term
	c.votedFor = int(rec.hard.VotedFor)
	c.resync = resync
	if rec.snap != nil {
		c.restore(rec.snap)
	}
	c.log = rec.entries
	c.durable = c.lastIndex()
}

// start seeds a fresh log with the bootstrap map as entry 1 (term 0)
// and arms the election timer. A solo replica has no one to out-vote,
// so it leads at once; the term bump mirrors an election so a
// recovered log's entries stay in older terms. In a fresh group (term
// 0, nothing logged before the seed) replica 0 campaigns at once: every
// replica holds the same one-entry log, so the first election has no
// rival worth a timer. Every other start waits out its deadline.
func (c *core) start(now time.Time, boot *wire.ShardMap) output {
	seed := boot != nil && !c.resync && c.snapIndex == 0 && len(c.log) == 0
	if seed {
		c.log = append(c.log, wire.MetaEntry{Index: 1, Rec: wire.MetaRecord{Op: wire.TShardMap, Body: boot.Clone().Marshal()}})
		c.persistLog(1, c.log)
	}
	c.resetDeadline(now)
	switch {
	case len(c.peers) == 1:
		c.term++
		c.votedFor = c.id
		c.persistHard()
		c.becomeLeader(now)
	case seed && c.term == 0 && c.id == 0:
		c.campaign(now, false)
	}
	return c.take()
}

// take hands the accumulated output over, keeping the verdict buffer.
func (c *core) take() output {
	o := c.out
	c.out = output{verdicts: o.verdicts[:0]}
	return o
}

func (c *core) note(format string, args ...any) {
	c.out.notes = append(c.out.notes, fmt.Sprintf("meta[%d]: "+format, append([]any{c.id}, args...)...))
}

// persist asks for r to be made durable after the records before it.
func (c *core) persist(r record) {
	if c.out.persist == nil {
		c.out.persist, c.spare = c.spare, nil
	}
	c.out.persist = append(c.out.persist, r)
}

func (c *core) persistHard() {
	if !c.wounded {
		c.persist(record{kind: recHard, hard: c.hardState()})
	}
}

func (c *core) persistLog(from uint64, entries []wire.MetaEntry) {
	if !c.wounded {
		c.persist(record{kind: recLog, from: from, entries: entries})
	}
}

func (c *core) hardState() wire.MetaHardState {
	return wire.MetaHardState{Term: c.term, VotedFor: int32(c.votedFor)}
}

func (c *core) lastIndex() uint64 { return c.snapIndex + uint64(len(c.log)) }

func (c *core) termAt(idx uint64) uint64 {
	switch {
	case idx == c.snapIndex:
		return c.snapTerm
	case idx > c.snapIndex && idx <= c.lastIndex():
		return c.log[idx-c.snapIndex-1].Term
	default:
		return 0
	}
}

func (c *core) resetDeadline(now time.Time) {
	lo, hi := c.timing.ElectionLo, c.timing.ElectionHi
	c.deadline = now.Add(lo + time.Duration(c.rng.Int63n(int64(hi-lo)+1)))
}

func (c *core) hint() string {
	if c.leaderID >= 0 && c.leaderID < len(c.peers) && c.leaderID != c.id {
		return c.peers[c.leaderID]
	}
	return ""
}

// truncate drops the log from idx on. The capacity goes too, so a
// later append copies the log rather than overwrite the dropped
// entries: no log entry is ever modified in place, which lets records
// alias the log while the shell writes them without the core's lock.
func (c *core) truncate(idx uint64) {
	n := idx - c.snapIndex - 1
	c.log = c.log[:n:n]
	c.durable = min(c.durable, idx-1)
}

// failWaiters answers every waiter whose index satisfies drop.
func (c *core) failWaiters(err error, drop func(idx uint64) bool) {
	for idx, p := range c.waiters {
		if drop(idx) {
			delete(c.waiters, idx)
			c.out.verdicts = append(c.out.verdicts, verdict{p, applyResult{err: err}})
		}
	}
}

// restore rebuilds log base and materialized state from a snapshot
// (recovery and follower install share it). Snapshots are committed
// state by construction.
func (c *core) restore(snap *wire.MetaSnapshot) {
	c.snapIndex, c.snapTerm = snap.LastIndex, snap.LastTerm
	c.log = nil
	c.commit, c.applied, c.durable = snap.LastIndex, snap.LastIndex, snap.LastIndex
	m := snap.Map
	c.smap = &m
	c.states = make([]*namespace, len(m.Shards))
	for i := range c.states {
		c.states[i] = newNamespace()
	}
	for i := range snap.Shards {
		if s := &snap.Shards[i]; int(s.Shard) < len(c.states) {
			c.states[s.Shard].install(s)
		}
	}
}

// persisted is the shell's report on an output's records, which it
// hands back: the first done were written, and err, if not nil, failed
// the next. A failure
// wounds the replica. A log record that failed is dropped from the
// log while it is provably uncommitted — entries ship before the
// leader's own write, so followers may already have committed it — and
// its waiters get errPersist, an unknown outcome.
func (c *core) persisted(recs []record, done int, err error) output {
	for _, r := range recs[:done] {
		if r.kind == recLog && len(r.entries) > 0 {
			e := &r.entries[len(r.entries)-1]
			if e.Index <= c.lastIndex() && c.termAt(e.Index) == e.Term && e.Index > c.durable {
				c.durable = e.Index
			}
		}
	}
	if err != nil {
		c.wounded = true
		for _, r := range recs[done:] {
			if r.kind != recLog || len(r.entries) == 0 {
				continue
			}
			first, last := r.entries[0], r.entries[len(r.entries)-1]
			c.failWaiters(errPersist, func(idx uint64) bool {
				return idx >= first.Index && idx <= last.Index && c.termAt(idx) == first.Term
			})
			if c.commit < first.Index && first.Index > c.snapIndex &&
				c.lastIndex() >= last.Index && c.termAt(first.Index) == first.Term {
				c.truncate(first.Index)
			}
		}
	}
	clear(recs)
	c.spare = recs[:0]
	c.advanceCommit()
	return c.take()
}

// --- elections ---

// tick advances the clock: a leader owes every follower a heartbeat
// each interval; anyone else starts a pre-vote round once its deadline
// passes, and a candidate asks again every peer that has not answered
// and is not backed off, so a peer that was not listening yet can still
// elect it.
func (c *core) tick(now time.Time) output {
	switch {
	case c.role == leader:
		if now.Sub(c.lastBeat) >= c.timing.Heartbeat {
			c.lastBeat = now
			c.sendDueAll()
		}
	case len(c.peers) == 1 || c.resync || c.wounded:
		// No election to stand for.
	case now.After(c.deadline):
		c.campaign(now, true)
	case c.role == candidate:
		c.askVotes(now)
	}
	return c.take()
}

// campaign stands for election in the next term, asking every peer not
// backed off. A pre-vote round (pre) changes and persists nothing; the
// real candidacy that a pre-majority starts makes a durable vote for
// itself. A round that follows one of its own keeps the backoffs: a
// peer that failed every call of the last round is most likely down.
func (c *core) campaign(now time.Time, pre bool) {
	if c.role != candidate {
		clear(c.askAt)
		clear(c.askGap)
	}
	if !pre {
		c.term++
		c.votedFor = c.id
		c.persistHard()
		last := c.lastIndex()
		c.note("candidate for term %d (log %d/%d)", c.term, last, c.termAt(last))
	}
	c.pre = pre
	c.role = candidate
	c.leaderID = -1
	c.resetDeadline(now)
	clear(c.granted)
	clear(c.answered)
	c.granted[c.id], c.answered[c.id] = true, true
	c.askVotes(now)
}

// askTerm is the term this round asks votes for.
func (c *core) askTerm() uint64 {
	if c.pre {
		return c.term + 1
	}
	return c.term
}

// askVotes asks every peer that has not answered this round and whose
// backoff has run out.
func (c *core) askVotes(now time.Time) {
	for p, a := range c.answered {
		if !a && !now.Before(c.askAt[p]) {
			c.out.voteTo = append(c.out.voteTo, p)
		}
	}
	if len(c.out.voteTo) > 0 {
		last := c.lastIndex()
		c.out.vote = &wire.MetaVoteReq{Term: c.askTerm(), Candidate: uint32(c.id), LastIndex: last, LastTerm: c.termAt(last), Pre: c.pre}
	}
}

// stepDown adopts a higher term observed from a peer. Only a role
// change restarts the election timer: a follower that merely learns a
// term (say, from a vote request it then denies) keeps its deadline,
// or a candidate whose log is too short to win could keep resetting
// the timers of the replicas that could (Raft, Fig. 2).
func (c *core) stepDown(now time.Time, term uint64) {
	if term > c.term {
		c.term = term
		c.votedFor = -1
		c.persistHard()
	}
	if c.role != follower {
		if !c.pre { // a pre-vote round stood for nothing
			c.note("stepping down at term %d", c.term)
		}
		c.role = follower
		c.resetDeadline(now)
	}
}

// vote answers a candidate. A resyncing replica lost acks and votes
// with its damaged state, so its vote could elect a candidate missing
// an entry it helped commit: it grants none until a leader has refilled
// its log. A grant is a durable promise: the shell sends it only once
// the vote record is written. A pre-vote promises nothing and changes
// nothing; no leader, and no replica that accepted a leader's append
// within ElectionLo, grants one (leader stickiness), so a replica cut
// off from a live leader cannot win (DESIGN.md §13, "Pre-vote").
func (c *core) vote(now time.Time, vr *wire.MetaVoteReq) (wire.MetaVoteResp, output) {
	if vr.Pre {
		ok := !c.wounded && !c.resync && c.role != leader && vr.Term > c.term &&
			c.upToDate(vr) && now.Sub(c.heard) >= c.timing.ElectionLo
		return wire.MetaVoteResp{Term: c.term, Granted: ok}, c.take()
	}
	if vr.Term > c.term {
		c.stepDown(now, vr.Term)
	}
	resp := wire.MetaVoteResp{Term: c.term}
	if !c.wounded && !c.resync && vr.Term == c.term && (c.votedFor == -1 || c.votedFor == int(vr.Candidate)) && c.upToDate(vr) {
		c.votedFor = int(vr.Candidate)
		c.persistHard()
		resp.Granted = true
		c.resetDeadline(now)
	}
	return resp, c.take()
}

// upToDate is the election restriction: a candidate's log must be at
// least as fresh as ours, which carries acked entries across failover.
func (c *core) upToDate(vr *wire.MetaVoteReq) bool {
	last := c.lastIndex()
	lt := c.termAt(last)
	return vr.LastTerm > lt || (vr.LastTerm == lt && vr.LastIndex >= last)
}

// voteResp counts peer p's answer to the vote, or pre-vote if pre, this
// replica asked in term. An answer to another round, such as a late
// pre-grant in the real candidacy for its term, is not counted. Any
// answer ends p's backoff.
func (c *core) voteResp(now time.Time, term uint64, pre bool, p int, vr wire.MetaVoteResp) output {
	c.askAt[p], c.askGap[p] = time.Time{}, 0
	switch {
	case c.role != candidate || c.pre != pre || c.askTerm() != term:
	case vr.Term > c.term:
		c.stepDown(now, vr.Term)
	case !vr.Granted:
		c.answered[p] = true
	case !c.granted[p]:
		c.granted[p], c.answered[p] = true, true
		votes := 0
		for _, g := range c.granted {
			if g {
				votes++
			}
		}
		switch {
		case votes < len(c.peers)/2+1:
		case c.pre:
			c.campaign(now, false)
		default:
			c.becomeLeader(now)
		}
	}
	return c.take()
}

// voteFailed backs off the re-ask of peer p, whose vote call got no
// answer: one tick, then twice the last wait. In a real candidacy the
// wait stays under ElectionLo/4, so a peer that starts listening late
// (the birth campaign's) is still asked well before a rival's election
// timer fires; in a pre-vote round it grows to ElectionHi, so a lone
// replica asks a dead peer a few times a second.
func (c *core) voteFailed(now time.Time, p int) output {
	if c.role == candidate {
		limit := c.timing.ElectionLo / 4
		if c.pre {
			limit = c.timing.ElectionHi
		}
		c.askGap[p] = min(max(2*c.askGap[p], c.timing.tick()), limit)
		c.askAt[p] = now.Add(c.askGap[p])
	}
	return c.take()
}

// becomeLeader takes the lead for the current term. A no-op entry of
// the new term lets prior-term entries commit at once (the commit rule
// counts only current-term entries), so proposals stranded by the old
// leader settle without waiting for fresh traffic.
func (c *core) becomeLeader(now time.Time) {
	c.role = leader
	c.leaderID = c.id
	c.elections++
	last := c.lastIndex()
	for p := range c.peers {
		c.nextIdx[p] = last + 1
		c.matchIdx[p] = 0
	}
	c.log = append(c.log, wire.MetaEntry{Index: last + 1, Term: c.term, Rec: wire.MetaRecord{Op: wire.TPing}})
	c.persistLog(last+1, c.log[len(c.log)-1:])
	c.lastBeat = now
	c.note("leading term %d (log %d)", c.term, last+1)
	c.advanceCommit()
	c.sendDueAll()
}

// sendDueAll owes every follower one append, with or without entries.
func (c *core) sendDueAll() {
	for p := range c.sendDue {
		c.sendDue[p] = true
	}
	c.out.kick = true
}

// --- replication, leader side ---

// appendFor builds the next append for follower p, or reports none is
// due. An append with no entries goes out only when one is owed
// (sendDue): the commit index otherwise rides the next round that
// carries entries or the next heartbeat, so a batch costs one round per
// follower. A follower behind the compacted prefix gets the snapshot,
// as shared references the shell serializes after releasing the core.
func (c *core) appendFor(p int) (wire.MetaAppendReq, *snapRefs, bool) {
	req := wire.MetaAppendReq{Term: c.term, Leader: uint32(c.id), Commit: c.commit}
	if c.role != leader {
		return req, nil, false
	}
	// The log can shrink under the cursor (a failed batch is dropped
	// after followers acked it): resume from the new end. The
	// follower's surplus suffix is resolved by the next election.
	ni := min(c.nextIdx[p], c.lastIndex()+1)
	var refs *snapRefs
	if ni <= c.snapIndex {
		r := c.snapshotRefs()
		refs = &r
	} else {
		// Entries ship as soon as they are in the log, before the
		// leader's own write lands. Each follower writes before it acks
		// and the leader's own vote counts only once durable, so a
		// majority is durable at commit.
		req.PrevIndex = ni - 1
		req.PrevTerm = c.termAt(ni - 1)
		count := min(int(c.lastIndex()+1-ni), maxAppendEntries)
		switch {
		case count > 0:
			req.Entries = make([]wire.MetaEntry, count)
			copy(req.Entries, c.log[ni-c.snapIndex-1:])
			c.appendRounds++
		case !c.sendDue[p]:
			return req, nil, false
		default:
			c.emptyRounds++
		}
	}
	c.sendDue[p] = false
	return req, refs, true
}

// appendResp takes follower p's answer to an append of term (snapLast:
// the index of the snapshot it carried, else 0). It reports whether
// another round should follow at once.
func (c *core) appendResp(now time.Time, p int, term, snapLast uint64, ar wire.MetaAppendResp) (bool, output) {
	more := false
	switch {
	case c.role != leader || c.term != term:
	case ar.Term > c.term:
		c.stepDown(now, ar.Term)
	case !ar.Success:
		// Consistency miss: Match is the follower's own last consistent
		// index, so back up in one round.
		if next := max(ar.Match+1, 1); next < c.nextIdx[p] {
			c.nextIdx[p] = next
		} else {
			c.nextIdx[p] = max(c.nextIdx[p]-1, 1)
		}
		more = true
	default:
		c.matchIdx[p] = max(c.matchIdx[p], ar.Match, snapLast)
		c.nextIdx[p] = c.matchIdx[p] + 1
		c.advanceCommit()
		more = c.nextIdx[p] <= c.lastIndex()
	}
	return more, c.take()
}

// advanceCommit moves the commit index to the highest entry of the
// current term replicated on a majority, then applies. Only
// current-term entries are counted directly (the Raft commit rule);
// earlier ones commit transitively.
func (c *core) advanceCommit() {
	if c.role != leader {
		return
	}
	for idx := c.lastIndex(); idx > c.commit && c.termAt(idx) == c.term; idx-- {
		// The leader's own vote counts only once the entry is durable: a
		// batch mid-write (or failed and about to be dropped) is not a
		// promise yet.
		votes := 0
		if c.durable >= idx {
			votes++
		}
		for p := range c.peers {
			if p != c.id && c.matchIdx[p] >= idx {
				votes++
			}
		}
		if votes >= len(c.peers)/2+1 {
			c.commit = idx
			break
		}
	}
	if c.apply() {
		// A committed shard map goes to the followers now rather than
		// at the next heartbeat: their CurrentMap serves map readers.
		c.sendDueAll()
	}
}

// apply folds committed entries into the materialized state and
// answers their waiters; it asks for a compaction once the log
// outgrows the threshold, and reports whether a shard map applied.
func (c *core) apply() bool {
	config := false
	for c.applied < c.commit {
		c.applied++
		e := &c.log[c.applied-c.snapIndex-1]
		config = config || e.Rec.Op == wire.TShardMap
		res := c.applyEntry(e)
		res.idx = c.applied
		if p, ok := c.waiters[c.applied]; ok {
			delete(c.waiters, c.applied)
			c.out.verdicts = append(c.out.verdicts, verdict{p, res})
		}
	}
	if c.applied > c.snapIndex && len(c.log) > c.compactThreshold() {
		c.out.compact = true
	}
	return config
}

func (c *core) applyEntry(e *wire.MetaEntry) applyResult {
	rec := &e.Rec
	switch rec.Op {
	case wire.TShardMap:
		var m wire.ShardMap
		if err := m.Unmarshal(rec.Body); err != nil {
			return applyResult{status: wire.StatusProtocol}
		}
		if len(c.states) > 0 && len(m.Shards) != len(c.states) {
			// The shard count is fixed per deployment: handles encode it.
			// ProposeConfig refuses a resize up front; refuse it
			// deterministically here too.
			return applyResult{status: wire.StatusInvalid}
		}
		c.smap = &m
		if len(c.states) == 0 {
			c.states = make([]*namespace, len(m.Shards))
			for i := range c.states {
				c.states[i] = newNamespace()
			}
		}
		return applyResult{status: wire.StatusOK}
	case wire.TPing:
		return applyResult{status: wire.StatusOK}
	default:
		if int(rec.Shard) >= len(c.states) {
			return applyResult{status: wire.StatusProtocol}
		}
		st, info := c.states[rec.Shard].apply(rec, len(c.states))
		return applyResult{status: st, info: info}
	}
}

// --- replication, follower side ---

// append takes a leader's append (snap: its decoded snapshot, if it
// carried one). A positive reply is a durable promise: the shell sends
// it only once the output's records are written.
func (c *core) append(now time.Time, ar *wire.MetaAppendReq, snap *wire.MetaSnapshot) (wire.MetaAppendResp, output) {
	resp := wire.MetaAppendResp{Term: c.term}
	if ar.Term < c.term {
		resp.Match = c.lastIndex()
		return resp, c.take()
	}
	if ar.Term > c.term || c.role != follower {
		c.stepDown(now, ar.Term)
	}
	resp.Term = c.term
	c.leaderID = int(ar.Leader)
	c.heard = now
	c.resetDeadline(now)
	// A wounded replica acks nothing: the leader would count the ack
	// toward commit and the entries would be lost on restart.
	resp.Match = c.commit
	if c.wounded {
		return resp, c.take()
	}
	if snap != nil {
		if snap.LastIndex > c.commit {
			c.restore(snap)
			c.persist(record{kind: recInstall, snap: snap, hard: c.hardState()})
			c.failWaiters(errLostEntry, func(idx uint64) bool { return idx <= c.commit })
		}
		resp.Success, resp.Match = true, c.commit
		return resp, c.take()
	}

	// An append under the per-round cap ran to the leader's last index.
	toLeaderEnd := len(ar.Entries) < maxAppendEntries
	// Consistency check: the log must hold (PrevIndex, PrevTerm).
	entries := ar.Entries
	switch prev := ar.PrevIndex; {
	case prev > c.lastIndex():
		resp.Match = c.lastIndex()
		return resp, c.take()
	case prev < c.snapIndex:
		// Entries below the snapshot are committed, hence consistent
		// with any legitimate leader; skip them.
		for len(entries) > 0 && entries[0].Index <= c.snapIndex {
			entries = entries[1:]
		}
	case c.termAt(prev) != ar.PrevTerm:
		// Conflicting history; everything up to commit is known good.
		return resp, c.take()
	}
	// Skip what the log already holds, truncate a conflicting suffix
	// (never committed) and append the rest.
	lastShipped := ar.PrevIndex
	if len(entries) > 0 {
		lastShipped = entries[len(entries)-1].Index
	}
	for len(entries) > 0 && entries[0].Index <= c.lastIndex() && c.termAt(entries[0].Index) == entries[0].Term {
		entries = entries[1:]
	}
	if len(entries) > 0 {
		if first := entries[0].Index; first <= c.lastIndex() {
			c.truncate(first)
			c.failWaiters(errLostEntry, func(idx uint64) bool { return idx >= first })
		}
		c.log = append(c.log, entries...)
		c.persistLog(entries[0].Index, entries)
	}
	if ar.Commit > c.commit {
		// Only the prefix this append matched may commit: entries past
		// lastShipped can be a stale suffix of an older term.
		if cm := min(ar.Commit, lastShipped); cm > c.commit {
			c.commit = cm
			c.apply()
		}
	}
	resp.Success, resp.Match = true, lastShipped
	if c.resync && toLeaderEnd {
		// The log now matches the leader's through its last index, so it
		// holds every committed entry, any this replica acked before its
		// state was damaged included. Recording the vote for this leader
		// keeps the replica from granting a second one in this term.
		c.resync = false
		c.votedFor = int(ar.Leader)
		c.persistHard()
		c.note("resynced from leader %d at term %d (log %d)", ar.Leader, c.term, c.lastIndex())
	}
	return resp, c.take()
}

// --- proposals ---

// enqueue queues a proposal for the next batch.
func (c *core) enqueue(p *proposal) (hint string, err error) {
	if c.wounded {
		return "", errPersist
	}
	if c.role != leader {
		return c.hint(), ErrNotLeader
	}
	c.pending = append(c.pending, p)
	return "", nil
}

// flush turns everything queued into one batch: consecutive log
// entries, one log record (one fsync), one replication wave. The
// replicators are kicked before the write, so followers write the
// batch in parallel with the leader.
func (c *core) flush() output {
	batch := c.pending
	c.pending = nil
	if c.wounded || c.role != leader {
		res := applyResult{err: errPersist}
		if !c.wounded {
			res = applyResult{status: wire.StatusNotLeader, hint: c.hint()}
		}
		for _, p := range batch {
			c.out.verdicts = append(c.out.verdicts, verdict{p, res})
		}
		return c.take()
	}
	first := c.lastIndex() + 1
	for i, p := range batch {
		p.idx = first + uint64(i)
		c.log = append(c.log, wire.MetaEntry{Index: p.idx, Term: c.term, Rec: p.rec})
		c.waiters[p.idx] = p
	}
	c.proposals += int64(len(batch))
	c.batches++
	c.out.kick = true
	c.persistLog(first, c.log[len(c.log)-len(batch):])
	return c.take()
}

// withdraw takes back a proposal whose caller gave up, if its verdict
// is not yet out: it is still queued, or its waiter still registered
// (the entry itself may still commit).
func (c *core) withdraw(p *proposal) bool {
	for i, q := range c.pending {
		if q == p {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return true
		}
	}
	if p.idx != 0 && c.waiters[p.idx] == p {
		delete(c.waiters, p.idx)
		return true
	}
	return false
}

// nextConfig builds a shard-map change: mutate applied to cur, a copy
// of the committed map, with the epoch already bumped. A change of the
// shard count is refused: handles encode their creation-time count, so
// resizing the partition space would break handle routing and orphan
// per-shard state.
func nextConfig(cur *wire.ShardMap, mutate func(*wire.ShardMap)) (*wire.ShardMap, error) {
	if cur == nil {
		return nil, errors.New("meta: no committed map yet")
	}
	nshards := len(cur.Shards)
	cur.Epoch++
	if mutate != nil {
		mutate(cur)
	}
	if len(cur.Shards) != nshards {
		return nil, fmt.Errorf("meta: shard count is fixed per deployment (%d, proposed %d)",
			nshards, len(cur.Shards))
	}
	return cur, nil
}

// stats reports leadership changes and the group-commit counters.
func (c *core) stats() wire.ServerStats {
	return wire.ServerStats{ElectionCount: c.elections, MetaProposals: c.proposals,
		MetaBatches: c.batches, MetaAppendRounds: c.appendRounds}
}

// drain removes every queued and waiting proposal (shutdown).
func (c *core) drain() []*proposal {
	ps := c.pending
	for _, p := range c.waiters {
		ps = append(ps, p)
	}
	c.pending = nil
	clear(c.waiters)
	return ps
}

// --- snapshots and compaction ---

// snapRefs is a capture of the applied state as shared references: the
// *FileInfo values are immutable once inserted (apply clones and swaps
// on mutation), so the holder may marshal them after the core moves
// on. Taking it costs O(files) pointer copies, not O(bytes).
type snapRefs struct {
	lastIndex uint64
	lastTerm  uint64
	smap      *wire.ShardMap
	shards    []uint32
	files     []map[string]*wire.FileInfo
	nextSeq   []uint64
}

// addShard appends one partition's refs to the capture.
func (r *snapRefs) addShard(shard uint32, ns *namespace) {
	m := make(map[string]*wire.FileInfo, len(ns.files))
	for k, v := range ns.files {
		m[k] = v
	}
	r.shards = append(r.shards, shard)
	r.files = append(r.files, m)
	r.nextSeq = append(r.nextSeq, ns.nextSeq)
}

// snapshotRefs captures the full applied state.
func (c *core) snapshotRefs() snapRefs {
	r := snapRefs{lastIndex: c.applied, lastTerm: c.termAt(c.applied)}
	if c.smap != nil {
		r.smap = c.smap.Clone()
	}
	for i, ns := range c.states {
		r.addShard(uint32(i), ns)
	}
	return r
}

// snapshot materializes the capture.
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

// fetchRefs captures one partition with the current map.
func (c *core) fetchRefs(shard uint32) (snapRefs, error) {
	if c.smap == nil {
		return snapRefs{}, errors.New("meta: no committed map yet")
	}
	if int(shard) >= len(c.states) {
		return snapRefs{}, errNoShard
	}
	r := snapRefs{lastIndex: c.applied, lastTerm: c.termAt(c.applied), smap: c.smap.Clone()}
	r.addShard(shard, c.states[shard])
	return r, nil
}

// compactThreshold is the log length that asks for a compaction. It
// scales with the namespace: a fold costs O(files), so a fixed trigger
// would pay O(files²/maxLog) over a big fill. files/8 keeps the total
// at O(files·log files) and recovery replay at ~12% of the namespace.
func (c *core) compactThreshold() int {
	files := 0
	for _, ns := range c.states {
		files += len(ns.files)
	}
	return max(c.maxLog, files/8)
}

// fold folds the applied prefix into the snapshot base and returns the
// capture for the shell to write; ok is false when no fold is due.
func (c *core) fold() (refs snapRefs, base uint64, ok bool) {
	if c.wounded || c.applied <= c.snapIndex || len(c.log) <= c.compactThreshold() {
		return snapRefs{}, 0, false
	}
	refs = c.snapshotRefs()
	base = c.applied
	c.snapTerm = c.termAt(base)
	c.log = append([]wire.MetaEntry(nil), c.log[base-c.snapIndex:]...)
	c.snapIndex = base
	return refs, base, true
}

// folded reports the fold at base written; the WAL is then reset to
// the surviving tail. A snapshot install that superseded the fold
// meanwhile already reset the WAL to its own snapshot.
func (c *core) folded(base uint64) output {
	if !c.wounded && c.snapIndex == base {
		tail := append([]wire.MetaEntry(nil), c.log...)
		c.persist(record{kind: recReset, entries: tail, hard: c.hardState()})
	}
	return c.take()
}
