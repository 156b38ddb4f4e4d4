package meta

import (
	"context"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

// ShardOptions configures one metadata shard.
type ShardOptions struct {
	// Index is this shard's partition number in the shard map.
	Index int
	// Proposer is the shard's path to the master group: the mgr wrapper
	// passes the in-process node (LocalProposer), and a standalone shard
	// a GroupProposer over the master addresses. The Shard owns it and
	// closes it.
	Proposer Proposer
	// Timing overrides protocol clocks (zero fields take defaults).
	Timing Timing
	// Logger receives shard events; nil silences them.
	Logger *log.Logger
}

// Shard serves one partition of the file namespace with the classic
// manager request grammar (plus the TMetaForward envelope). Reads
// (open/stat/listDir) are answered from shard-local state; every
// mutation is proposed to the master leader and acknowledged only
// after majority commit, so an acked create survives any single
// failure. The local namespace is a faithful cache of the committed
// log restricted to this partition: it is installed from a master
// snapshot at startup, updated with each proposal's committed verdict,
// and re-synced from the master whenever a proposal's outcome was
// ambiguous (the dirty flag).
type Shard struct {
	idx    int
	timing Timing
	logger *log.Logger
	prop   Proposer

	mu      sync.Mutex
	ns      *namespace
	smap    *wire.ShardMap
	verIdx  uint64                   // highest master log index reflected in ns
	ready   bool                     // snapshot installed; serving
	dirty   bool                     // an ambiguous proposal may have committed: resync first
	syncing *syncRound               // in-flight snapshot fetch; nil when idle
	locks   map[string]chan struct{} // per-name mutation serialization
	stats   wire.ServerStats
	srv     *pvfsnet.Server // the listener Serve started; nil before
	closed  bool

	stopC chan struct{}
	wg    sync.WaitGroup
}

// NewShard starts a shard; Serve attaches it to a listener. The
// shard installs its partition snapshot from the masters in the
// background and answers StatusUnavailable (retry-safe) until it has.
func NewShard(o ShardOptions) *Shard {
	s := &Shard{
		idx:    o.Index,
		timing: o.Timing.withDefaults(),
		logger: o.Logger,
		prop:   o.Proposer,
		ns:     newNamespace(),
		locks:  make(map[string]chan struct{}),
		stopC:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.background()
	return s
}

// Close shuts the shard down.
func (s *Shard) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stopC)
	s.mu.Unlock()
	s.prop.Close()
	s.wg.Wait()
	return nil
}

// Serve starts answering the shard wire protocol on ln, its lookups on
// their connections' read loops (Local). The listener's recovered
// handler panics count in the shard's Stats. Close the returned server
// before the shard.
func (s *Shard) Serve(ln net.Listener, logger *log.Logger) *pvfsnet.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv = pvfsnet.NewLocalServer(ln, s.Handle, s.Local, logger)
	return s.srv
}

// Index returns the shard's partition number.
func (s *Shard) Index() int { return s.idx }

// Stats returns the shard's request accounting.
func (s *Shard) Stats() wire.ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.HandlerPanics = s.srv.HandlerPanics()
	return st
}

// CurrentMap returns the shard's installed map (nil before sync).
func (s *Shard) CurrentMap() *wire.ShardMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.smap == nil {
		return nil
	}
	return s.smap.Clone()
}

// InstallMap adopts a newer shard map: the shard's own map poll calls
// it, and so does an in-process owner that has just committed a config
// change (cluster.BumpEpoch). The wire offers no way in: a shard
// learns maps only from the masters.
func (s *Shard) InstallMap(m *wire.ShardMap) {
	s.mu.Lock()
	if s.smap == nil || m.Epoch > s.smap.Epoch {
		s.smap = m.Clone()
	}
	s.mu.Unlock()
}

// background performs the initial snapshot install, then keeps the
// map fresh. It does not repair a dirty shard: Handle resyncs one
// before it serves the next request, and until then nothing reads the
// ambiguous state.
func (s *Shard) background() {
	defer s.wg.Done()
	// Initial sync: retry until the masters elect a leader and answer.
	backoff := 5 * time.Millisecond
	for {
		if s.syncState() {
			break
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-s.stopC:
			timer.Stop()
			return
		}
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
	// Steady state: poll the map (cheap, any replica).
	poll := time.NewTicker(s.timing.MapPoll)
	defer poll.Stop()
	for {
		select {
		case <-s.stopC:
			return
		case <-poll.C:
			ctx, cancel := context.WithTimeout(context.Background(), s.timing.CallTimeout*4)
			m, err := s.prop.FetchMap(ctx)
			cancel()
			if err == nil {
				s.InstallMap(m)
			}
		}
	}
}

// syncRound is one single-flight snapshot fetch: the goroutine that
// starts it publishes the outcome, everyone else arriving meanwhile
// waits on done and shares it.
type syncRound struct {
	done chan struct{}
	ok   bool
}

// syncState installs a fresh partition snapshot from the masters,
// clearing the dirty flag. Reports success. Concurrent calls
// single-flight: one FetchShard serves every waiter, so a burst of
// not-yet-ready requests (clients retrying into a mid-election group)
// cannot stampede the masters with parallel snapshot fetches.
func (s *Shard) syncState() bool {
	s.mu.Lock()
	if r := s.syncing; r != nil {
		s.mu.Unlock()
		select {
		case <-r.done:
			return r.ok
		case <-s.stopC:
			return false
		}
	}
	r := &syncRound{done: make(chan struct{})}
	s.syncing = r
	s.mu.Unlock()
	r.ok = s.fetchAndInstall()
	s.mu.Lock()
	s.syncing = nil
	s.mu.Unlock()
	close(r.done)
	return r.ok
}

// fetchAndInstall is the body of one sync round.
func (s *Shard) fetchAndInstall() bool {
	ctx, cancel := context.WithTimeout(context.Background(), s.timing.RetryWindow)
	defer cancel()
	go func() { // abort the fetch promptly when the shard shuts down
		select {
		case <-s.stopC:
			cancel()
		case <-ctx.Done():
		}
	}()
	for {
		snap, err := s.prop.FetchShard(ctx, uint32(s.idx))
		if err != nil {
			logf(s.logger, "meta-shard[%d]: sync: %v", s.idx, err)
			return false
		}
		s.mu.Lock()
		if snap.LastIndex < s.verIdx {
			// The snapshot predates a committed write-back we already
			// hold: installing it would silently erase an acked mutation
			// from the serving cache. The master's applied index only
			// grows (and is at least verIdx at the leader that committed
			// our proposals), so a refetch converges — and it converges
			// quickly, because the dirty flag blocks new proposals while
			// the in-flight ones that keep bumping verIdx drain. Retry
			// inside the round rather than failing it: a failed round
			// answers Unavailable to every waiter, burning client retry
			// budgets over a race that resolves in a heartbeat or two.
			verIdx := s.verIdx
			s.mu.Unlock()
			logf(s.logger, "meta-shard[%d]: sync: stale snapshot (%d < %d), refetching",
				s.idx, snap.LastIndex, verIdx)
			select {
			case <-ctx.Done():
				return false
			case <-s.stopC:
				return false
			case <-time.After(s.timing.Heartbeat):
			}
			continue
		}
		if len(snap.Shards) == 1 && int(snap.Shards[0].Shard) == s.idx {
			s.ns.install(&snap.Shards[0])
		}
		s.verIdx = snap.LastIndex
		m := snap.Map
		if s.smap == nil || m.Epoch > s.smap.Epoch {
			s.smap = &m
		}
		s.ready = true
		s.dirty = false
		s.mu.Unlock()
		logf(s.logger, "meta-shard[%d]: synced (%d files, epoch %d)", s.idx, len(snap.Shards[0].Files), m.Epoch)
		return true
	}
}

func fail(st wire.Status) wire.Message {
	return wire.Message{Header: wire.Header{Status: st}}
}

// Handle serves the shard wire protocol. Handlers never retain
// req.Body: decoded names are copied by the codec.
func (s *Shard) Handle(req wire.Message) wire.Message {
	s.mu.Lock()
	s.stats.Requests++
	ready, dirty := s.ready, s.dirty
	s.mu.Unlock()
	if !ready || dirty {
		// Not yet synced (or ambiguous state): safe answers only.
		// StatusUnavailable is retry-safe, so clients ride this out.
		if !s.syncState() {
			if req.Type == wire.TPing {
				return wire.Message{Header: wire.Header{Handle: req.Handle}}
			}
			return fail(wire.StatusUnavailable)
		}
	}
	switch req.Type {
	case wire.TMetaForward:
		var env wire.MetaEnvelope
		if err := env.Unmarshal(req.Body); err != nil {
			return fail(wire.StatusProtocol)
		}
		return s.serveEnvelope(&env, req.Handle)
	case wire.TShardMap:
		if len(req.Body) > 0 {
			return fail(wire.StatusInvalid)
		}
		m := s.CurrentMap()
		if m == nil {
			return fail(wire.StatusUnavailable)
		}
		return wire.Message{Body: m.Marshal()}
	case wire.TServerStats:
		st := s.Stats()
		return wire.Message{Body: st.Marshal()}
	case wire.TPing:
		return wire.Message{Header: wire.Header{Handle: req.Handle}}
	default:
		// Plain manager grammar (raw-wire drivers such as the bench
		// replay, the single-shard wrapper): no epoch to check, but a
		// name another shard owns is refused as in an envelope.
		return s.serveInner(req.Type, req.Body, req.Handle)
	}
}

// Local is the shard's pvfsnet.Local: a lookup (open or stat, plain or
// enveloped) and a ping, stats or map query are answered from memory
// while the shard is synced, not dirty, and not behind an envelope's
// epoch. Anything that would resync, fetch a map or propose is not
// local. A state flip after Local answers only sends that one request
// down Handle's slow path on the read loop.
func (s *Shard) Local(req wire.Message) bool {
	var epoch uint64
	switch req.Type {
	case wire.TOpen, wire.TStat, wire.TPing, wire.TServerStats, wire.TShardMap:
	case wire.TMetaForward:
		var env wire.MetaEnvelope
		if env.Unmarshal(req.Body) != nil || (env.Inner != wire.TOpen && env.Inner != wire.TStat) {
			return false
		}
		epoch = env.Epoch
	default:
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready && !s.dirty && epoch <= s.smap.Epoch // a ready shard has a map
}

// serveEnvelope validates a stamped envelope's epoch against the
// installed map, then executes the inner request. A client running
// ahead of us triggers a resync before judging; a mismatch earns
// StatusWrongEpoch with the current map in the body.
func (s *Shard) serveEnvelope(env *wire.MetaEnvelope, handle uint64) wire.Message {
	s.mu.Lock()
	cur := uint64(0)
	if s.smap != nil {
		cur = s.smap.Epoch
	}
	s.mu.Unlock()
	if env.Epoch > cur {
		// The client has seen a newer map than ours: catch up first.
		ctx, cancel := context.WithTimeout(context.Background(), s.timing.CallTimeout*4)
		if m, err := s.prop.FetchMap(ctx); err == nil {
			s.InstallMap(m)
		}
		cancel()
		s.mu.Lock()
		if s.smap != nil {
			cur = s.smap.Epoch
		}
		s.mu.Unlock()
	}
	if env.Epoch != cur {
		return s.wrongEpoch()
	}
	return s.serveInner(env.Inner, env.Body, handle)
}

// wrongEpoch answers StatusWrongEpoch with the installed map in the
// body: the client installs it and re-routes (FS.metaCall).
func (s *Shard) wrongEpoch() wire.Message {
	m := s.CurrentMap()
	if m == nil {
		return fail(wire.StatusUnavailable)
	}
	return wire.Message{
		Header: wire.Header{Status: wire.StatusWrongEpoch},
		Body:   m.Marshal(),
	}
}

// serveInner executes one manager-grammar request. A name or handle
// the installed map gives another shard is not forwarded: it is
// answered with wrongEpoch, so the client re-routes to the owner.
func (s *Shard) serveInner(t wire.MsgType, body []byte, handle uint64) wire.Message {
	switch t {
	case wire.TCreate:
		var cr wire.CreateReq
		if err := cr.Unmarshal(body); err != nil {
			return fail(wire.StatusProtocol)
		}
		if cr.Name == "" {
			return fail(wire.StatusInvalid)
		}
		if !s.ownsName(cr.Name) {
			return s.wrongEpoch()
		}
		return s.create(&cr)
	case wire.TOpen, wire.TStat:
		var nr wire.NameReq
		if err := nr.Unmarshal(body); err != nil {
			return fail(wire.StatusProtocol)
		}
		if nr.Name == "" && handle != 0 {
			// Stat-by-handle (fsck reconciliation): owned by the handle.
			if !s.ownsHandle(handle) {
				return s.wrongEpoch()
			}
			return s.statHandle(handle)
		}
		if !s.ownsName(nr.Name) {
			return s.wrongEpoch()
		}
		return s.open(nr.Name)
	case wire.TRemove:
		var nr wire.NameReq
		if err := nr.Unmarshal(body); err != nil {
			return fail(wire.StatusProtocol)
		}
		if !s.ownsName(nr.Name) {
			return s.wrongEpoch()
		}
		return s.remove(nr.Name)
	case wire.TSetSize:
		var sr wire.SetSizeReq
		if err := sr.Unmarshal(body); err != nil {
			return fail(wire.StatusProtocol)
		}
		if !s.ownsHandle(sr.Handle) {
			return s.wrongEpoch()
		}
		return s.setSize(&sr)
	case wire.TListDir:
		return s.listDir()
	case wire.TPing:
		return wire.Message{Header: wire.Header{Handle: handle}}
	default:
		return fail(wire.StatusInvalid)
	}
}

// ownsName reports whether the installed map gives name to this shard.
// Before a map is installed every name is this shard's.
func (s *Shard) ownsName(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.smap == nil || s.smap.ShardForName(name) == s.idx
}

// ownsHandle is ownsName for a handle.
func (s *Shard) ownsHandle(handle uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.smap == nil || s.smap.ShardForHandle(handle) == s.idx
}

// --- local execution ---

// lockName serializes mutations per name so local apply order matches
// commit order for any single name (cross-name operations commute).
func (s *Shard) lockName(name string) func() {
	for {
		s.mu.Lock()
		ch, held := s.locks[name]
		if !held {
			done := make(chan struct{})
			s.locks[name] = done
			s.mu.Unlock()
			return func() {
				s.mu.Lock()
				delete(s.locks, name)
				s.mu.Unlock()
				close(done)
			}
		}
		s.mu.Unlock()
		select {
		case <-ch:
		case <-s.stopC:
			// Shutting down: let the caller proceed and fail on propose.
			return func() {}
		}
	}
}

func (s *Shard) create(cr *wire.CreateReq) wire.Message {
	s.mu.Lock()
	m := s.smap
	if m == nil {
		s.mu.Unlock()
		return fail(wire.StatusUnavailable)
	}
	nshards := len(m.Shards)
	iods := m.IODs
	s.mu.Unlock()

	cfg, st := resolveStriping(cr.Striping, len(iods))
	if st != wire.StatusOK {
		return fail(st)
	}

	unlock := s.lockName(cr.Name)
	defer unlock()

	s.mu.Lock()
	if f, ok := s.ns.files[cr.Name]; ok {
		if cr.Token != 0 && f.CreateTok == cr.Token {
			// Retried create of the same logical call: the earlier
			// attempt committed but its ack was lost (the proposal's
			// outcome was ambiguous and the client saw Unavailable).
			// Re-ack the committed file instead of answering Exists.
			use := *f
			s.stats.MetaCreates++
			s.mu.Unlock()
			return wire.Message{Header: wire.Header{Handle: use.Handle}, Body: use.Marshal()}
		}
		s.mu.Unlock()
		return fail(wire.StatusExists)
	}
	s.mu.Unlock()

	// Up to three attempts ride out handle collisions (a lost sequence
	// counter after resync); each attempt burns a fresh handle.
	for attempt := 0; attempt < 3; attempt++ {
		s.mu.Lock()
		seq := s.ns.nextSeq
		s.ns.nextSeq++
		addrs := s.ns.rotatedAddrs(cfg, iods)
		s.mu.Unlock()
		info := wire.FileInfo{
			Handle:    wire.MetaHandle(seq, s.idx, nshards),
			Striping:  cfg,
			IODAddrs:  addrs,
			CreateTok: cr.Token,
		}
		rec := wire.MetaCreateRec{Name: cr.Name, Info: info}
		st, applied, idx, err := s.propose(wire.MetaRecord{
			Shard: uint32(s.idx), Seq: seq, Op: wire.TCreate, Body: rec.Marshal(),
		})
		if err != nil {
			return fail(wire.StatusUnavailable)
		}
		switch st {
		case wire.StatusOK:
			s.mu.Lock()
			use := info
			if applied != nil {
				use = *applied
			}
			if use.Handle != info.Handle {
				// First-wins replay of an earlier identical create: our
				// local state must mirror the committed one.
				s.dirty = true
			}
			cp := use
			s.ns.shareAddrs(&cp)
			s.ns.files[cr.Name] = &cp
			s.ns.byHandle[cp.Handle] = cr.Name
			s.markAppliedLocked(idx)
			s.stats.MetaCreates++
			s.mu.Unlock()
			return wire.Message{Header: wire.Header{Handle: use.Handle}, Body: use.Marshal()}
		case wire.StatusInvalid:
			// Handle collision at the master: our sequence counter was
			// stale. Learn the committed state and retry with a fresh
			// handle.
			s.syncState()
			continue
		default:
			return fail(st)
		}
	}
	return fail(wire.StatusIOError)
}

func (s *Shard) open(name string) wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.ns.files[name]
	if !ok {
		return fail(wire.StatusNotFound)
	}
	s.stats.MetaOpens++
	return wire.Message{Header: wire.Header{Handle: info.Handle}, Body: info.Marshal()}
}

func (s *Shard) statHandle(handle uint64) wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	name, ok := s.ns.byHandle[handle]
	if !ok {
		return fail(wire.StatusNotFound)
	}
	info := s.ns.files[name]
	s.stats.MetaOpens++
	return wire.Message{Header: wire.Header{Handle: info.Handle}, Body: info.Marshal()}
}

func (s *Shard) remove(name string) wire.Message {
	unlock := s.lockName(name)
	defer unlock()
	s.mu.Lock()
	info, ok := s.ns.files[name]
	if !ok {
		s.mu.Unlock()
		return fail(wire.StatusNotFound)
	}
	handle := info.Handle
	s.mu.Unlock()

	nr := wire.NameReq{Name: name}
	st, _, idx, err := s.propose(wire.MetaRecord{
		Shard: uint32(s.idx), Op: wire.TRemove, Body: nr.Marshal(),
	})
	if err != nil {
		return fail(wire.StatusUnavailable)
	}
	if st == wire.StatusOK || st == wire.StatusNotFound {
		s.mu.Lock()
		if cur, ok := s.ns.files[name]; ok && cur.Handle == handle {
			delete(s.ns.files, name)
			delete(s.ns.byHandle, handle)
		}
		s.markAppliedLocked(idx)
		s.mu.Unlock()
		// NotFound here is a retry artifact, not an error: the file
		// existed in the committed cache when we proposed (checked
		// under the name lock, and only this shard mutates its
		// partition), so an earlier attempt of this very remove — one
		// whose response was lost to a leader failover — must have
		// committed. The remove succeeded; answer as such.
		return wire.Message{Header: wire.Header{Handle: handle}}
	}
	return fail(st)
}

func (s *Shard) setSize(sr *wire.SetSizeReq) wire.Message {
	s.mu.Lock()
	name, ok := s.ns.byHandle[sr.Handle]
	s.mu.Unlock()
	if !ok {
		return fail(wire.StatusNotFound)
	}
	unlock := s.lockName(name)
	defer unlock()

	st, _, idx, err := s.propose(wire.MetaRecord{
		Shard: uint32(s.idx), Op: wire.TSetSize, Body: sr.Marshal(),
	})
	if err != nil {
		return fail(wire.StatusUnavailable)
	}
	if st != wire.StatusOK {
		return fail(st)
	}
	s.mu.Lock()
	if cur, ok := s.ns.byHandle[sr.Handle]; ok {
		if info := s.ns.files[cur]; info.Size < sr.Size {
			info.Size = sr.Size
		}
	}
	s.markAppliedLocked(idx)
	s.mu.Unlock()
	return wire.Message{Header: wire.Header{Handle: sr.Handle}}
}

func (s *Shard) listDir() wire.Message {
	s.mu.Lock()
	names := make([]string, 0, len(s.ns.files))
	for n := range s.ns.files {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	resp := wire.ListDirResp{Names: names}
	return wire.Message{Body: resp.Marshal()}
}

// markAppliedLocked records that ns reflects the committed log up to
// index (a proposal's committed verdict was written back). syncState
// refuses snapshots older than this watermark, so a snapshot fetched
// before the proposal committed can never erase its write-back.
func (s *Shard) markAppliedLocked(idx uint64) {
	if idx > s.verIdx {
		s.verIdx = idx
	}
}

// propose submits one record, marking the shard dirty when the
// outcome is unknown (it may have committed; the local cache must be
// reconciled before it serves again). On a committed verdict the
// third result is the entry's log index.
func (s *Shard) propose(rec wire.MetaRecord) (wire.Status, *wire.FileInfo, uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.timing.RetryWindow)
	defer cancel()
	st, info, idx, err := s.prop.Propose(ctx, rec)
	if err != nil {
		s.mu.Lock()
		s.dirty = true
		s.mu.Unlock()
		logf(s.logger, "meta-shard[%d]: propose %v: %v", s.idx, rec.Op, err)
		return 0, nil, 0, err
	}
	return st, info, idx, nil
}
