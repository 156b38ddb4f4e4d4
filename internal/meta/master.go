package meta

import (
	"context"
	"errors"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

// NodeOptions configures one master replica.
type NodeOptions struct {
	// ID is this replica's index into Peers.
	ID int
	// Peers lists every master replica's address, ID order, self
	// included. The list is fixed for the deployment.
	Peers []string
	// Bootstrap, when non-nil, seeds a fresh log with the initial shard
	// map as entry 1 (term 0); every replica of a fresh deployment
	// passes the same map. Replica 0 of a fresh group (term 0, no log
	// before the seed) then campaigns for term 1 at once and asks its
	// peers again, backing off while their calls fail, until they
	// answer, so the group elects as soon as a majority listens, in any
	// start order; every other start waits out a randomized election
	// timeout. A rejoining replica passes nil and gets the log (or a
	// snapshot) from the leader; state recovered from Dir wins over
	// Bootstrap.
	Bootstrap *wire.ShardMap
	// Timing overrides protocol clocks (zero fields take defaults).
	Timing Timing
	// Dir, when non-empty, holds the replica's durable Raft state (term,
	// vote, log, snapshot), written before any vote, ack or verdict
	// leaves and recovered on restart. Empty keeps state in memory: only
	// for the solo mgr wrapper and tests that never restart replicas.
	Dir string
	// Logger receives protocol events; nil silences them.
	Logger *log.Logger
}

// proposal is one proposed record: queued, then appended at idx. It
// receives exactly one verdict on ch (buffered(1)).
type proposal struct {
	rec wire.MetaRecord
	idx uint64
	ch  chan applyResult
}

// errClosed is returned once the node has shut down.
var errClosed = errors.New("meta: node closed")

// Node is one master replica: a member of the leader-elected group
// that owns the shard map, striping placement and the replicated
// metadata log. It is the I/O shell around the consensus core
// (DESIGN.md §13): it owns the peer pool, the durable state, the clocks
// and the goroutines, and calls the core under mu. Handle serves the
// wire protocol; Serve attaches it to a listener.
type Node struct {
	timing Timing
	logger *log.Logger
	pool   *pvfsnet.Pool
	stable *stable // durable Raft state; nil keeps state in memory

	mu     sync.Mutex
	c      *core
	closed bool
	srv    *pvfsnet.Server // the listener Serve started; nil before
	// walMu orders writes to stable: carry takes it before releasing
	// mu, so records reach the WAL in the order the core returned them,
	// while the write leaves mu free. Lock order is mu → walMu.
	walMu sync.Mutex

	asking []bool // per peer: a vote call is in flight (under mu)

	propC    chan struct{} // committer wakeup, cap 1
	compactC chan struct{} // compactor wakeup, cap 1
	stopC    chan struct{}
	notify   []chan struct{} // per-peer replication kicks
	wg       sync.WaitGroup
}

// NewNode starts a master replica: its clock, committer, compactor and
// one replicator per peer. The caller serves it on a listener on
// Peers[ID] (Serve). With Dir set, any state a previous incarnation
// persisted there is recovered first and wins over Bootstrap.
func NewNode(o NodeOptions) (*Node, error) {
	t := o.Timing.withDefaults()
	rng := rand.New(rand.NewSource(time.Now().UnixNano() + int64(o.ID)<<32))
	n := &Node{
		timing:   t,
		logger:   o.Logger,
		pool:     pvfsnet.NewPool(),
		c:        newCore(o.ID, append([]string(nil), o.Peers...), t, rng),
		propC:    make(chan struct{}, 1),
		compactC: make(chan struct{}, 1),
		stopC:    make(chan struct{}),
		notify:   make([]chan struct{}, len(o.Peers)),
		asking:   make([]bool, len(o.Peers)),
	}
	if o.Dir != "" {
		st, rec, damage, err := openReplica(o.Dir, len(o.Peers) > 1)
		if damage != nil {
			logf(n.logger, "meta[%d]: %v; resyncing from the leader", o.ID, damage)
		}
		if err != nil {
			n.pool.Close()
			return nil, err
		}
		n.stable = st
		n.c.recover(rec, damage != nil)
		if len(rec.entries) > 0 {
			logf(n.logger, "meta[%d]: recovered term %d, log %d..%d (snap %d)",
				o.ID, n.c.term, n.c.snapIndex+1, n.c.lastIndex(), n.c.snapIndex)
		}
	}
	for p := range n.notify {
		if p != o.ID {
			n.notify[p] = make(chan struct{}, 1)
			n.wg.Add(1)
			go n.replicate(p)
		}
	}
	n.mu.Lock()
	n.carry(n.c.start(time.Now(), o.Bootstrap))
	n.wg.Add(3)
	go n.clockLoop()
	go n.commitLoop()
	go n.compactLoop()
	return n, nil
}

// carry does what the core asked. It is entered with mu held and
// returns with it released. Verdicts and replication kicks go out at
// once. Records are written in order with mu released, then reported
// back to the core; a vote request leaves only once they are durable
// (a pre-vote round's output has none), to each peer with no vote call
// of its own in flight. It returns the write's error.
func (n *Node) carry(o output) error {
	n.deliver(&o)
	var err error
	if len(o.persist) > 0 {
		done := len(o.persist)
		if n.stable != nil {
			n.walMu.Lock()
			n.mu.Unlock()
			done, err = n.stable.write(o.persist)
			n.walMu.Unlock()
			n.mu.Lock()
		}
		more := n.c.persisted(o.persist, done, err)
		n.deliver(&more)
		o.compact = o.compact || more.compact
		o.notes = append(o.notes, more.notes...)
	}
	var ask []int
	if o.vote != nil && err == nil {
		for _, p := range o.voteTo {
			if !n.asking[p] {
				n.asking[p] = true
				ask = append(ask, p)
			}
		}
		n.wg.Add(len(ask))
	}
	n.mu.Unlock()
	if err != nil {
		logf(n.logger, "meta[%d]: persist: %v", n.c.id, err)
	}
	for _, s := range o.notes {
		logf(n.logger, "%s", s)
	}
	if o.compact {
		wake(n.compactC)
	}
	if len(ask) > 0 {
		body := o.vote.Marshal()
		for _, p := range ask {
			go n.askVote(p, o.vote.Term, o.vote.Pre, body)
		}
	}
	return err
}

// deliver sends an output's verdicts and kicks, under mu.
func (n *Node) deliver(o *output) {
	for _, v := range o.verdicts {
		v.p.ch <- v.res
	}
	for _, ch := range n.notify {
		if ch != nil && o.kick {
			wake(ch)
		}
	}
}

func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// locked runs f under mu.
func (n *Node) locked(f func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f()
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
	for _, p := range n.c.drain() {
		p.ch <- applyResult{err: errClosed}
	}
	n.mu.Unlock()
	n.pool.Close()
	n.wg.Wait()
	if n.stable != nil {
		n.walMu.Lock()
		n.stable.close()
		n.walMu.Unlock()
	}
	return nil
}

// ID returns the replica's index.
func (n *Node) ID() int { return n.c.id }

// IsLeader reports whether the replica currently leads.
func (n *Node) IsLeader() (b bool) {
	n.locked(func() { b = n.c.role == leader })
	return b
}

// Term returns the current term.
func (n *Node) Term() (t uint64) {
	n.locked(func() { t = n.c.term })
	return t
}

// Serve starts answering the master wire protocol on ln, every request
// on a goroutine of its own. The listener's recovered handler panics
// count in the node's Stats. Close the returned server before the node.
func (n *Node) Serve(ln net.Listener, logger *log.Logger) (srv *pvfsnet.Server) {
	n.locked(func() {
		srv = pvfsnet.NewServer(ln, n.Handle, logger)
		n.srv = srv
	})
	return srv
}

// Stats reports leadership changes, the group-commit counters and the
// handler panics its listener recovered.
func (n *Node) Stats() (st wire.ServerStats) {
	n.locked(func() {
		st = n.c.stats()
		st.HandlerPanics = n.srv.HandlerPanics()
	})
	if n.stable != nil {
		st.MetaWALSyncs = n.stable.syncs.Load()
	}
	return st
}

// CurrentMap returns the committed shard map, or nil before the
// bootstrap entry commits.
func (n *Node) CurrentMap() (m *wire.ShardMap) {
	n.locked(func() {
		if n.c.smap != nil {
			m = n.c.smap.Clone()
		}
	})
	return m
}

// waitMap returns the committed shard map, riding out boot and the
// first election (~one election timeout) so clients need no
// election-aware retry loop of their own. Bounded by ProposeWait so a
// partitioned minority replica still answers Unavailable promptly.
func (n *Node) waitMap() *wire.ShardMap {
	deadline := time.Now().Add(n.timing.ProposeWait)
	for {
		if m, _ := n.FetchMap(context.Background()); m != nil || time.Now().After(deadline) {
			return m
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

// --- clocks and peers ---

func (n *Node) clockLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.timing.tick())
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-n.stopC:
			return
		}
		if n.step(func(c *core) output { return c.tick(time.Now()) }) == errClosed {
			return
		}
	}
}

// askVote asks peer p for its vote in term, or its pre-vote if pre. A
// real re-ask carries no record of its own, so it first waits out the
// WAL writes under way: the candidacy's vote for itself may be among
// them. A call that gets no answer backs off the next re-ask of p. The
// answer frees p first, so a candidacy it completes asks p at once.
func (n *Node) askVote(p int, term uint64, pre bool, body []byte) {
	defer n.wg.Done()
	var vr wire.MetaVoteResp
	err := errPersist
	if pre || n.synced() == nil {
		err = n.callPeer(p, wire.TMetaVote, body, &vr)
	}
	n.step(func(c *core) output {
		n.asking[p] = false
		if err != nil {
			return c.voteFailed(time.Now(), p)
		}
		return c.voteResp(time.Now(), term, pre, p, vr)
	})
}

// step hands the core one input under mu, unless the node is closed,
// and carries the output out.
func (n *Node) step(input func(*core) output) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errClosed
	}
	return n.carry(input(n.c))
}

// callPeer issues one RPC to master peer p and decodes the answer into
// out. A call that fails without an answer closes the connection it
// used, so the next call redials: a transport failure has killed it
// already, and a peer that let the call time out gets a fresh session.
func (n *Node) callPeer(p int, typ wire.MsgType, body []byte, out interface{ Unmarshal([]byte) error }) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.timing.CallTimeout)
	defer cancel()
	addr := n.c.peers[p]
	conn, err := n.pool.GetContext(ctx, addr)
	if err != nil {
		return err
	}
	resp, err := conn.CallContext(ctx, wire.Message{Header: wire.Header{Type: typ}, Body: body})
	if err != nil {
		var serr *wire.StatusError
		if !errors.As(err, &serr) {
			conn.Close()
			return err
		}
	}
	defer resp.Release()
	return out.Unmarshal(resp.Body)
}

// replicate keeps follower p in sync: each kick runs append rounds
// until the follower is caught up, this replica stops leading, or the
// transport fails (the next heartbeat kick retries). One RPC is in
// flight per follower.
func (n *Node) replicate(p int) {
	defer n.wg.Done()
	for {
		select {
		case <-n.notify[p]:
		case <-n.stopC:
			return
		}
		for n.syncPeer(p) {
		}
	}
}

// syncPeer ships one append (or snapshot, serialized with mu released)
// to follower p and hands the answer to the core; it reports whether
// another round should follow at once. A snapshot install that outlasts
// the follower's election timeout deposes no one: the follower's
// pre-vote is refused by every replica that hears from us.
func (n *Node) syncPeer(p int) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	req, refs, ok := n.c.appendFor(p)
	n.mu.Unlock()
	if !ok {
		return false
	}
	var snapLast uint64
	if refs != nil {
		req.Snap = refs.snapshot().Marshal()
		snapLast = refs.lastIndex
	}
	var ar wire.MetaAppendResp
	if n.callPeer(p, wire.TMetaAppend, req.Marshal(), &ar) != nil {
		return false
	}
	more := false
	n.step(func(c *core) (o output) {
		more, o = c.appendResp(time.Now(), p, req.Term, snapLast, ar)
		return o
	})
	return more
}

// compactLoop folds the log, off every hot path, when the core asks.
// The expensive half — marshaling and fsyncing the whole namespace —
// holds no lock, so proposals, votes and appends proceed against the
// old WAL meanwhile; only the bounded WAL reset goes through carry.
func (n *Node) compactLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.compactC:
		case <-n.stopC:
			return
		}
		n.mu.Lock()
		refs, base, ok := n.c.fold()
		n.mu.Unlock()
		if !ok || n.stable == nil {
			continue
		}
		err := n.stable.writeSnap(refs.snapshot())
		n.mu.Lock()
		switch {
		case n.closed:
			n.mu.Unlock()
		case err != nil:
			logf(n.logger, "meta[%d]: persist snapshot: %v", n.c.id, err)
			n.carry(n.c.persisted(nil, 0, err))
		default:
			n.carry(n.c.folded(base))
		}
	}
}

// commitLoop is the group committer: each batch drains everything
// queued into one log append, one WAL sync (written with mu released)
// and one replication wave. Proposals that arrive during a batch's sync
// form the next one.
func (n *Node) commitLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.propC:
		case <-n.stopC:
			return
		}
		for {
			n.mu.Lock()
			if n.closed || len(n.c.pending) == 0 {
				n.mu.Unlock()
				break
			}
			n.carry(n.c.flush())
		}
	}
}

// --- wire handlers ---

// Handle serves the master wire protocol. It never retains req.Body:
// every decoded record copies its bytes.
func (n *Node) Handle(req wire.Message) wire.Message {
	switch req.Type {
	case wire.TMetaVote:
		var vr wire.MetaVoteReq
		if err := vr.Unmarshal(req.Body); err != nil || !n.isPeer(vr.Candidate) {
			return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
		}
		var resp wire.MetaVoteResp
		if n.step(func(c *core) (o output) { resp, o = c.vote(time.Now(), &vr); return o }) != nil {
			resp.Granted = false
		}
		return wire.Message{Body: resp.Marshal()}
	case wire.TMetaAppend:
		return n.handleAppend(req)
	case wire.TMetaPropose:
		return n.handlePropose(req)
	case wire.TMetaFetch:
		return n.handleFetch(req)
	case wire.TShardMap:
		if len(req.Body) > 0 {
			return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
		}
		if m := n.waitMap(); m != nil {
			return wire.Message{Body: m.Marshal()}
		}
		return wire.Message{Header: wire.Header{Status: wire.StatusUnavailable}}
	case wire.TServerStats:
		st := n.Stats()
		return wire.Message{Body: st.Marshal()}
	case wire.TPing:
		return wire.Message{Header: wire.Header{Handle: req.Handle}}
	default:
		return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
	}
}

// isPeer reports whether id names another replica of the group. A vote
// request or append from anyone else is refused: its higher term would
// depose a solo replica, which never campaigns, for good.
func (n *Node) isPeer(id uint32) bool {
	return int(id) != n.c.id && int(id) < len(n.c.peers)
}

// handleAppend decodes an append (and any snapshot it carries) with mu
// released; the ack leaves only once every write it leans on is
// durable. A leader ships a run of its log: entries numbered on from
// PrevIndex, none of a later term than its own. Anything else would
// break the core's index arithmetic, so it is refused.
func (n *Node) handleAppend(req wire.Message) wire.Message {
	var ar wire.MetaAppendReq
	if err := ar.Unmarshal(req.Body); err != nil || !n.isPeer(ar.Leader) {
		return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
	}
	for i, e := range ar.Entries {
		if e.Index != ar.PrevIndex+1+uint64(i) || e.Term > ar.Term {
			return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
		}
	}
	var snap *wire.MetaSnapshot
	if len(ar.Snap) > 0 {
		snap = new(wire.MetaSnapshot)
		if err := snap.Unmarshal(ar.Snap); err != nil {
			return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
		}
	}
	var resp wire.MetaAppendResp
	err := n.step(func(c *core) (o output) { resp, o = c.append(time.Now(), &ar, snap); return o })
	if err == nil && resp.Success {
		err = n.synced()
	}
	if err != nil {
		n.locked(func() { resp.Success, resp.Match = false, n.c.commit })
	}
	return wire.Message{Body: resp.Marshal()}
}

// synced waits out the WAL writes already under way and reports
// whether all succeeded. An ack whose entries an earlier append already
// logged has no record of its own, yet promises that write.
func (n *Node) synced() error {
	if n.stable == nil {
		return nil
	}
	n.walMu.Lock()
	defer n.walMu.Unlock()
	if n.stable.dead.Load() {
		return errPersist
	}
	return nil
}

// notLeaderResp is every NotLeader answer a replica sends: the status
// plus the leader hint GroupProposer.call follows.
func notLeaderResp(hint string) wire.Message {
	hr := wire.MetaProposeResp{LeaderAddr: hint}
	return wire.Message{Header: wire.Header{Status: wire.StatusNotLeader}, Body: hr.Marshal()}
}

// handlePropose serves a shard's TMetaPropose: exactly one record in,
// its verdict out. Only the namespace mutations a shard proposes are
// taken; shard-map changes and read barriers enter in-process only.
func (n *Node) handlePropose(req wire.Message) wire.Message {
	var rec wire.MetaRecord
	if err := rec.Unmarshal(req.Body); err != nil {
		return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
	}
	switch rec.Op {
	case wire.TCreate, wire.TRemove, wire.TSetSize:
	default:
		return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.timing.ProposeWait)
	defer cancel()
	st, info, idx, hint, err := n.Propose(ctx, rec)
	switch {
	case err != nil:
		// An unknown outcome: the caller retries.
		return wire.Message{Header: wire.Header{Status: wire.StatusUnavailable}}
	case st == wire.StatusNotLeader:
		return notLeaderResp(hint)
	}
	v := wire.MetaProposeVerdict{Status: st, Index: idx, Info: info}
	return wire.Message{Body: v.Marshal()}
}

// handleFetch serves FetchShard. A deposed leader partitioned from the
// majority answers NotLeader or Unavailable, never a stale snapshot.
func (n *Node) handleFetch(req wire.Message) wire.Message {
	var fr wire.MetaFetchReq
	if err := fr.Unmarshal(req.Body); err != nil {
		return wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.timing.ProposeWait)
	snap, err := n.FetchShard(ctx, fr.Shard)
	cancel()
	switch {
	case errors.Is(err, ErrNotLeader):
		var hint string
		n.locked(func() { hint = n.c.hint() })
		return notLeaderResp(hint)
	case errors.Is(err, errNoShard):
		return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
	case err != nil:
		return wire.Message{Header: wire.Header{Status: wire.StatusUnavailable}}
	}
	return wire.Message{Body: snap.Marshal()}
}
