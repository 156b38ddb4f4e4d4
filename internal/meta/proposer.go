package meta

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

// Proposer is a shard's path to the master group: submit a mutation
// and wait for its committed verdict, or fetch partition state. The
// mgr compatibility wrapper injects the in-process Node directly
// (LocalProposer); standalone shards talk to the replica group over
// the wire (GroupProposer), riding out elections by retrying against
// whichever replica currently leads. Each Propose carries one record
// and gets one verdict (over the wire, one TMetaPropose); concurrent
// ones coalesce in the leader's committer.
type Proposer interface {
	// Propose replicates rec and returns the applied verdict. The
	// returned info is non-nil for committed creates; the uint64 is
	// the committed entry's log index (shards order snapshot installs
	// against it). An error means the outcome is unknown (no leader
	// reachable within the window).
	Propose(ctx context.Context, rec wire.MetaRecord) (wire.Status, *wire.FileInfo, uint64, error)
	// FetchShard returns one partition's committed state and the map.
	FetchShard(ctx context.Context, shard uint32) (*wire.MetaSnapshot, error)
	// FetchMap returns the committed shard map.
	FetchMap(ctx context.Context) (*wire.ShardMap, error)
	// Close releases transport resources.
	Close() error
}

// LocalProposer adapts an in-process Node (the mgr wrapper's solo
// master) to the Proposer interface with no transport round trip.
type LocalProposer struct{ Node *Node }

func (l LocalProposer) Propose(ctx context.Context, rec wire.MetaRecord) (wire.Status, *wire.FileInfo, uint64, error) {
	st, info, idx, _, err := l.Node.Propose(ctx, rec)
	if err != nil {
		return 0, nil, 0, err
	}
	if st == wire.StatusNotLeader {
		return 0, nil, 0, ErrNotLeader
	}
	return st, info, idx, nil
}

func (l LocalProposer) FetchShard(ctx context.Context, shard uint32) (*wire.MetaSnapshot, error) {
	return l.Node.FetchShard(ctx, shard)
}

func (l LocalProposer) FetchMap(ctx context.Context) (*wire.ShardMap, error) {
	return l.Node.FetchMap(ctx)
}

func (l LocalProposer) Close() error { return nil }

// --- the Node's in-process propose API ---
//
// Every mutation enters the log through one queue and the group
// committer (Node.commitLoop): shards over the wire (TMetaPropose),
// LocalProposer, ProposeConfig and the read barrier alike.

// Propose submits one mutation record and waits for its committed
// verdict: the applied status, (for creates) file info, and the entry's
// log index — shards order snapshot installs against it. A
// StatusNotLeader status carries no verdict; the caller retries against
// hint, the leader's address when known. It waits for the verdict, the
// context's end, or shutdown; a verdict that raced in is preferred over
// the cancellation.
func (n *Node) Propose(ctx context.Context, rec wire.MetaRecord) (wire.Status, *wire.FileInfo, uint64, string, error) {
	p := &proposal{rec: rec, ch: make(chan applyResult, 1)}
	err := errClosed
	var hint string
	n.locked(func() {
		if !n.closed {
			hint, err = n.c.enqueue(p)
		}
	})
	if errors.Is(err, ErrNotLeader) {
		return wire.StatusNotLeader, nil, 0, hint, nil
	}
	if err != nil {
		return 0, nil, 0, "", err
	}
	wake(n.propC)
	var res applyResult
	select {
	case res = <-p.ch:
	case <-ctx.Done():
		gone := false
		n.locked(func() { gone = n.c.withdraw(p) })
		res = applyResult{err: ctx.Err()}
		if !gone {
			res = <-p.ch
		}
	case <-n.stopC:
		res = applyResult{err: errClosed}
	}
	return res.status, res.info, res.idx, res.hint, res.err
}

// ProposeConfig replicates a shard-map change built by mutate (see
// nextConfig) and returns the committed map.
func (n *Node) ProposeConfig(ctx context.Context, mutate func(*wire.ShardMap)) (*wire.ShardMap, error) {
	next, err := nextConfig(n.CurrentMap(), mutate)
	if err != nil {
		return nil, err
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

// FetchShard returns one partition's committed state with the current
// map; leader only, and only after a read barrier: a no-op of this term
// commits only if a majority still follows this leader, and then every
// entry any prior leader committed is applied here. A deposed leader's
// stale state must never seed a restarting shard.
func (n *Node) FetchShard(ctx context.Context, shard uint32) (*wire.MetaSnapshot, error) {
	if !n.IsLeader() {
		return nil, ErrNotLeader
	}
	st, _, _, _, err := n.Propose(ctx, wire.MetaRecord{Op: wire.TPing})
	switch {
	case err != nil:
		return nil, err
	case st == wire.StatusNotLeader:
		return nil, ErrNotLeader
	case st != wire.StatusOK:
		return nil, fmt.Errorf("meta: read barrier: %v", st)
	}
	var refs snapRefs
	err = errClosed
	n.locked(func() {
		if !n.closed {
			refs, err = n.c.fetchRefs(shard)
		}
	})
	if err != nil {
		return nil, err
	}
	return refs.snapshot(), nil
}

// FetchMap returns the committed shard map from any role (shards use
// it for background refresh; epoch checking catches staleness).
func (n *Node) FetchMap(ctx context.Context) (*wire.ShardMap, error) {
	if m := n.CurrentMap(); m != nil && m.Epoch > 0 {
		return m, nil
	}
	return nil, errors.New("meta: no committed map yet")
}

// GroupProposer talks to the master replica group over pvfsnet,
// tracking the leader across elections: NotLeader responses carry a
// hint, transport failures rotate to the next replica, and a retry
// round with no fresh leader hint backs off briefly so a mid-election
// group isn't hammered.
//
// It keeps no queue and starts no goroutine: Propose sends its record
// as one TMetaPropose, in the caller's goroutine, and
// concurrent proposals coalesce at the leader's committer
// (Node.commitLoop). Propose, FetchShard and FetchMap share one
// leader-routed call loop.
type GroupProposer struct {
	masters []string
	timing  Timing
	pool    *pvfsnet.Pool
	stopC   chan struct{} // closed by Close; aborts in-flight retry loops
	stopO   sync.Once

	backoffs atomic.Int64 // retry sleeps taken (white-box: a fresh
	// leader hint must retry immediately, not sleep out the backoff)

	mu     sync.Mutex
	leader string // last known leader address; "" when unknown
}

func (g *GroupProposer) loadLeader() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leader
}

func (g *GroupProposer) storeLeader(addr string) {
	g.mu.Lock()
	g.leader = addr
	g.mu.Unlock()
}

// NewGroupProposer builds a proposer for the given master addresses.
func NewGroupProposer(masters []string, t Timing) *GroupProposer {
	return &GroupProposer{
		masters: append([]string(nil), masters...),
		timing:  t.withDefaults(),
		pool:    pvfsnet.NewPool(),
		stopC:   make(chan struct{}),
	}
}

// Close fails every call loop, in flight or later, with
// errProposerClosed and closes the connections.
func (g *GroupProposer) Close() error {
	g.stopO.Do(func() { close(g.stopC) })
	return g.pool.Close()
}

// errProposerClosed terminates retry loops once Close has run, so a
// shard tearing down does not drain its full retry window against a
// dead pool.
var errProposerClosed = errors.New("meta: proposer closed")

// errNoVerdict marks one failed attempt inside the retry loop.
var errNoVerdict = errors.New("meta: no verdict from master")

// rotationAfter returns the rotation cursor naming the replica right
// after addr, so a failed cached leader resumes the scan at its
// successor instead of hammering masters[0] again.
func (g *GroupProposer) rotationAfter(addr string) int {
	for i, m := range g.masters {
		if m == addr {
			return i + 1
		}
	}
	return 0 // a hint outside the configured set; scan from the top
}

// call issues one leader-routed RPC. It tries the last known leader
// first, follows NotLeader hints, and rotates through the group on
// transport failure — resuming after the replica that just failed.
// Returns the response on any verdict status, and caches the replica
// that gave it as the leader (a follower's map answer may land there;
// the next proposal follows that follower's hint at once). The status
// is the caller's to judge. attemptTimeout bounds a single dial+call:
// propose- and map-sized requests pass CallTimeout, while snapshot
// fetches pass a window-scaled bound because their response grows with
// the namespace and must not be mistaken for a dead peer.
func (g *GroupProposer) call(ctx context.Context, req wire.Message, attemptTimeout time.Duration) (wire.Message, error) {
	if len(g.masters) == 0 {
		return wire.Message{}, errors.New("meta: no masters configured")
	}
	var lastErr error = errNoVerdict
	backoff := 2 * time.Millisecond
	rotation := 0
	for {
		select {
		case <-g.stopC:
			return wire.Message{}, errProposerClosed
		default:
		}
		if err := ctx.Err(); err != nil {
			return wire.Message{}, fmt.Errorf("%w (last: %v)", err, lastErr)
		}
		addr := g.loadLeader()
		if addr == "" {
			addr = g.masters[rotation%len(g.masters)]
			rotation++
		}
		attempt, cancel := context.WithTimeout(ctx, attemptTimeout)
		resp, err := g.attempt(attempt, addr, req)
		cancel()
		freshHint := false
		if err == nil {
			if resp.Status == wire.StatusNotLeader {
				var hint wire.MetaProposeResp
				if hint.Unmarshal(resp.Body) == nil && hint.LeaderAddr != "" {
					g.storeLeader(hint.LeaderAddr)
					// A hint naming another replica is actionable now:
					// sleeping out the backoff before following it only
					// stretches failover.
					freshHint = hint.LeaderAddr != addr
				} else {
					g.storeLeader("")
					rotation = g.rotationAfter(addr)
				}
				resp.Release()
				lastErr = errors.New("meta: replica is not the leader")
			} else if resp.Status == wire.StatusUnavailable {
				resp.Release()
				g.storeLeader("")
				rotation = g.rotationAfter(addr)
				lastErr = errors.New("meta: master unavailable")
			} else {
				g.storeLeader(addr)
				return resp, nil
			}
		} else {
			g.storeLeader("")
			rotation = g.rotationAfter(addr)
			lastErr = err
		}
		if freshHint {
			continue
		}
		// Back off briefly (election in progress, dead replica) without
		// sleeping past the caller's deadline.
		g.backoffs.Add(1)
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-g.stopC:
			timer.Stop()
			return wire.Message{}, errProposerClosed
		case <-ctx.Done():
			timer.Stop()
			return wire.Message{}, fmt.Errorf("%w (last: %v)", ctx.Err(), lastErr)
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// attempt is one dial+call against one replica. A broken session needs
// no cleanup here (the pool redials a dead connection), and a timeout
// abandons the tag and keeps the connection healthy.
func (g *GroupProposer) attempt(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	conn, err := g.pool.GetContext(ctx, addr)
	if err != nil {
		return wire.Message{}, err
	}
	resp, err := conn.CallContext(ctx, req)
	if err != nil {
		var serr *wire.StatusError
		if !errors.As(err, &serr) {
			return wire.Message{}, err
		}
	}
	return resp, nil // a verdict status, if any; the caller routes on it
}

// Propose sends rec to the leader as a TMetaPropose and returns its
// verdict. Any failure before a verdict arrives leaves the outcome
// unknown; records are idempotent, so the caller may retry.
func (g *GroupProposer) Propose(ctx context.Context, rec wire.MetaRecord) (wire.Status, *wire.FileInfo, uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, g.timing.RetryWindow)
	defer cancel()
	resp, err := g.call(ctx, wire.Message{
		Header: wire.Header{Type: wire.TMetaPropose}, Body: rec.Marshal(),
	}, g.timing.CallTimeout)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Release()
	if resp.Status != wire.StatusOK {
		return 0, nil, 0, fmt.Errorf("meta: propose: %v", resp.Status)
	}
	var v wire.MetaProposeVerdict
	if err := v.Unmarshal(resp.Body); err != nil {
		return 0, nil, 0, err
	}
	return v.Status, v.Info, v.Index, nil
}

func (g *GroupProposer) FetchShard(ctx context.Context, shard uint32) (*wire.MetaSnapshot, error) {
	freq := wire.MetaFetchReq{Shard: shard}
	wctx, cancel := context.WithTimeout(ctx, g.timing.RetryWindow)
	defer cancel()
	// A shard snapshot's size grows with the namespace: at a million
	// files the marshal+transfer takes far longer than CallTimeout, and
	// capping the attempt at the leader-discovery ping timeout turns
	// every large fetch into a spurious deadline, starving resync until
	// clients exhaust their retries. Bound one attempt at half the
	// window instead — slow-but-alive replicas finish, and a genuinely
	// hung one still leaves room to rotate to a peer.
	fetchTimeout := g.timing.RetryWindow / 2
	if fetchTimeout < g.timing.CallTimeout {
		fetchTimeout = g.timing.CallTimeout
	}
	resp, err := g.call(wctx, wire.Message{
		Header: wire.Header{Type: wire.TMetaFetch}, Body: freq.Marshal(),
	}, fetchTimeout)
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	if resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("meta: fetch shard %d: %v", shard, resp.Status)
	}
	snap := new(wire.MetaSnapshot)
	if err := snap.Unmarshal(resp.Body); err != nil {
		return nil, err
	}
	return snap, nil
}

// FetchMap returns the committed shard map through the call loop. Any
// replica answers it (a follower serves its CurrentMap; epoch checking
// catches staleness), so the loop stops at the first one that does.
func (g *GroupProposer) FetchMap(ctx context.Context) (*wire.ShardMap, error) {
	wctx, cancel := context.WithTimeout(ctx, g.timing.CallTimeout*time.Duration(len(g.masters)+1))
	defer cancel()
	resp, err := g.call(wctx, wire.Message{Header: wire.Header{Type: wire.TShardMap}}, g.timing.CallTimeout)
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	if resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("meta: map query: %v", resp.Status)
	}
	m := new(wire.ShardMap)
	if err := m.Unmarshal(resp.Body); err != nil {
		return nil, err
	}
	if m.Epoch == 0 {
		return nil, errors.New("meta: replica has no committed map")
	}
	return m, nil
}
