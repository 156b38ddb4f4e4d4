package meta

// Group commit: proposals queued together at the leader coalesce into
// one multi-entry WAL append with a single fsync and one replication
// wave, while proposals that arrive one at a time commit one at a
// time; the batched namespace must equal the state machine
// applied record by record; a WAL sync failure mid-batch wounds the
// node without acking any batch entry. Plus the GroupProposer side: it
// sends one record per frame, fresh leader hints retry without backoff,
// rotation resumes after the failed replica, and FetchMap honors Close.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

// soloDirNode boots a one-replica group over a durable state dir.
func soloDirNode(t *testing.T, opts NodeOptions) *Node {
	t.Helper()
	opts.ID = 0
	opts.Peers = []string{"solo"}
	opts.Bootstrap = singleShardBoot(opts.Peers)
	opts.Timing = testTiming()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	n, err := NewNode(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if !n.IsLeader() {
		t.Fatal("solo node must lead immediately")
	}
	return n
}

// TestQueuedProposalsShareOneSync pins the group-commit headline at the
// core: N proposals queued before one flush become one batch, one log
// record and one WAL fsync, and each gets its own OK verdict at
// consecutive log indexes.
func TestQueuedProposalsShareOneSync(t *testing.T) {
	n := soloDirNode(t, NodeOptions{})
	base := n.Stats()
	const count = 16
	ps := make([]*proposal, count)
	var enqErr error
	n.mu.Lock()
	for i := range ps {
		ps[i] = &proposal{rec: createRec(fmt.Sprintf("gc-%d", i), uint64(i), 0, 1, testIODs()), ch: make(chan applyResult, 1)}
		if _, err := n.c.enqueue(ps[i]); err != nil && enqErr == nil {
			enqErr = err
		}
	}
	o := n.c.flush()
	records, entries := len(o.persist), 0
	if records > 0 && o.persist[0].kind == recLog {
		entries = len(o.persist[0].entries)
	}
	n.carry(o)
	if enqErr != nil {
		t.Fatalf("enqueue: %v", enqErr)
	}
	if records != 1 || entries != count {
		t.Errorf("flush asked for %d records (%d entries in the first), want 1 log record of %d", records, entries, count)
	}
	for i, p := range ps {
		var res applyResult
		select {
		case res = <-p.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("proposal %d: no verdict", i)
		}
		if res.err != nil || res.status != wire.StatusOK || res.idx != ps[0].idx+uint64(i) {
			t.Fatalf("proposal %d: %+v, want OK at index %d", i, res, ps[0].idx+uint64(i))
		}
	}
	st := n.Stats()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"proposals", st.MetaProposals - base.MetaProposals, count},
		{"batches", st.MetaBatches - base.MetaBatches, 1},
		{"WAL syncs", st.MetaWALSyncs - base.MetaWALSyncs, 1},
	} {
		if c.got != c.want {
			t.Errorf("%s advanced by %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestConcurrentProposalsGroupCommit drives concurrent ranks through
// a GroupProposer against a replicated group: every create is acked,
// and the leader coalesced them — fewer flushes than proposals.
func TestConcurrentProposalsGroupCommit(t *testing.T) {
	g := startGroup(t, 3, singleShardBoot)
	lead := g.waitLeader()
	p := NewGroupProposer(g.addrs, g.timing)
	defer p.Close()

	const ranks, files = 8, 8
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < files; i++ {
				seq := uint64(r*files + i)
				rec := createRec(fmt.Sprintf("cc-r%d-f%d", r, i), seq, 0, 1, testIODs())
				st, _, idx, err := p.Propose(context.Background(), rec)
				if err != nil {
					errs[r] = fmt.Errorf("rank %d propose %d: %w", r, i, err)
					return
				}
				if st != wire.StatusOK || idx == 0 {
					errs[r] = fmt.Errorf("rank %d propose %d: status %v index %d", r, i, st, idx)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap, err := g.nodes[lead].FetchShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Shards[0].Files); got != ranks*files {
		t.Fatalf("namespace has %d files, want %d", got, ranks*files)
	}
	st := g.nodes[lead].Stats()
	if st.MetaProposals < ranks*files {
		t.Fatalf("leader saw %d proposals, want >= %d", st.MetaProposals, ranks*files)
	}
	if st.MetaBatches >= st.MetaProposals {
		t.Errorf("no coalescing: %d batches for %d proposals", st.MetaBatches, st.MetaProposals)
	}
}

// canonicalImage is a snapshot's namespace in a deterministic byte
// form: the shard states with files sorted by name (namespace
// iteration order is map order, so raw snapshots of identical
// namespaces can differ byte-wise), the map and log position zeroed.
func canonicalImage(snap *wire.MetaSnapshot) []byte {
	snap.LastIndex, snap.LastTerm, snap.Map = 0, 0, wire.ShardMap{}
	for i := range snap.Shards {
		files := snap.Shards[i].Files
		sort.Slice(files, func(a, b int) bool { return files[a].Name < files[b].Name })
	}
	return snap.Marshal()
}

// TestBatchedAndSoloNamespacesIdentical applies the same record set
// to a batching node (concurrently, so records really coalesce) and,
// solo — one record at a time, in order — to a bare state machine:
// the namespaces must be byte-identical. Group commit changes
// durability costs, never state.
func TestBatchedAndSoloNamespacesIdentical(t *testing.T) {
	batched := soloDirNode(t, NodeOptions{})

	const ranks, files = 4, 8
	recs := make([]wire.MetaRecord, ranks*files)
	for i := range recs {
		recs[i] = createRec(fmt.Sprintf("id-%d", i), uint64(i), 0, 1, testIODs())
	}
	var wg sync.WaitGroup
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r * files; i < (r+1)*files; i++ {
				st, _, _, _, err := batched.Propose(context.Background(), recs[i])
				if err != nil || st != wire.StatusOK {
					errs[r] = fmt.Errorf("batched propose %d: %v %v", i, st, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ns := newNamespace()
	for i := range recs {
		if st, _ := ns.apply(&recs[i], 1); st != wire.StatusOK {
			t.Fatalf("solo apply %d: %v", i, st)
		}
	}
	var solo snapRefs
	solo.addShard(0, ns)

	snap, err := batched.FetchShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bi, si := canonicalImage(snap), canonicalImage(solo.snapshot())
	if !bytes.Equal(bi, si) {
		t.Fatalf("namespaces diverged: batched %d bytes, solo %d bytes", len(bi), len(si))
	}
	// The batched node must not have paid per-record durability.
	if bst := batched.Stats(); bst.MetaBatches >= bst.MetaProposals {
		t.Errorf("batched node never coalesced: %d batches / %d proposals",
			bst.MetaBatches, bst.MetaProposals)
	}
}

// TestSequentialProposalsSyncEach pins the other end of group commit:
// N sequential proposals on a durable solo node cost exactly N flushes
// and N WAL fsyncs — the committer neither holds a lone proposal back
// for a later one nor splits it.
func TestSequentialProposalsSyncEach(t *testing.T) {
	n := soloDirNode(t, NodeOptions{})
	base := n.Stats()
	const count = 8
	for i := 0; i < count; i++ {
		rec := createRec(fmt.Sprintf("lone-%d", i), uint64(i), 0, 1, testIODs())
		st, _, idx, _, err := n.Propose(context.Background(), rec)
		if err != nil || st != wire.StatusOK || idx == 0 {
			t.Fatalf("propose %d: %v index %d err %v", i, st, idx, err)
		}
	}
	st := n.Stats()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"proposals", st.MetaProposals - base.MetaProposals, count},
		{"batches", st.MetaBatches - base.MetaBatches, count},
		{"WAL syncs", st.MetaWALSyncs - base.MetaWALSyncs, count},
	} {
		if c.got != c.want {
			t.Errorf("%s advanced by %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestWALSyncFailureMidBatchWoundsNode pins the failure contract: if
// the batch's one fsync fails, no entry of the batch is acked, the
// batch is truncated from the log, and the node is wounded — it stops
// making durable promises until restarted.
func TestWALSyncFailureMidBatchWoundsNode(t *testing.T) {
	n := soloDirNode(t, NodeOptions{})
	ctx := context.Background()
	st, _, idx, _, err := n.Propose(ctx, createRec("pre-wound", 0, 0, 1, testIODs()))
	if err != nil || st != wire.StatusOK {
		t.Fatalf("pre-wound propose: %v %v", st, err)
	}
	n.stable.failSync.Store(true)

	const ranks = 8
	var wg sync.WaitGroup
	var acked atomic.Int32
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rec := createRec(fmt.Sprintf("doomed-%d", r), uint64(r+1), 0, 1, testIODs())
			if _, _, _, _, err := n.Propose(ctx, rec); err == nil {
				acked.Add(1)
			}
		}(r)
	}
	wg.Wait()
	if got := acked.Load(); got != 0 {
		t.Fatalf("%d proposals acked across a failed batch fsync", got)
	}
	n.mu.Lock()
	wounded, last, durable := n.c.wounded, n.c.lastIndex(), n.c.durable
	n.mu.Unlock()
	if !wounded {
		t.Error("node not wounded after WAL sync failure")
	}
	if last != idx {
		t.Errorf("log tail at %d, want %d: the failed batch must be truncated", last, idx)
	}
	if durable != idx {
		t.Errorf("durable watermark %d, want %d", durable, idx)
	}
	// Wounded means wounded: later proposals fail fast.
	if _, _, _, _, err := n.Propose(ctx, createRec("after", 99, 0, 1, testIODs())); !errors.Is(err, errPersist) {
		t.Errorf("propose on wounded node: %v, want errPersist", err)
	}
}

// fakeReplica is a scripted master endpoint that counts calls.
type fakeReplica struct {
	addr  string
	calls atomic.Int32
	srv   *pvfsnet.Server
}

func startFakeReplica(t *testing.T, handler func(wire.Message) wire.Message) *fakeReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeReplica{addr: ln.Addr().String()}
	f.srv = pvfsnet.NewServer(ln, func(req wire.Message) wire.Message {
		f.calls.Add(1)
		return handler(req)
	}, nil)
	t.Cleanup(func() { f.srv.Close() })
	return f
}

// okVerdict answers a propose the way a leader does: the record's OK
// verdict.
func okVerdict(req wire.Message) wire.Message {
	var rec wire.MetaRecord
	if req.Type != wire.TMetaPropose || rec.Unmarshal(req.Body) != nil {
		return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
	}
	v := wire.MetaProposeVerdict{Status: wire.StatusOK, Index: 1}
	return wire.Message{Body: v.Marshal()}
}

// followerOf boots a real master replica that follows leaderAddr (one
// heartbeat taken, elections parked), so its NotLeader answers carry
// exactly the hint a live group sends.
func followerOf(t *testing.T, leaderAddr string) *Node {
	t.Helper()
	tm := testTiming()
	tm.ElectionLo, tm.ElectionHi = time.Hour, 2*time.Hour
	n, err := NewNode(NodeOptions{ID: 0, Peers: []string{"follower", leaderAddr}, Timing: tm})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	hb := wire.MetaAppendReq{Term: 1, Leader: 1}
	resp := n.Handle(wire.Message{Header: wire.Header{Type: wire.TMetaAppend}, Body: hb.Marshal()})
	var ar wire.MetaAppendResp
	if err := ar.Unmarshal(resp.Body); err != nil || !ar.Success {
		t.Fatalf("heartbeat: %+v err %v", ar, err)
	}
	return n
}

// deadAddr returns an address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRotationResumesAfterFailedLeader pins the failover scan order:
// when the cached leader dies, the proposer must try the replica
// AFTER the failed address — not start over at masters[0], which
// doubles failover latency whenever the dead leader sorts first.
func TestRotationResumesAfterFailedLeader(t *testing.T) {
	first := startFakeReplica(t, okVerdict)
	next := startFakeReplica(t, okVerdict)
	dead := deadAddr(t)
	// Group order: [healthy, dead, healthy]; the cached leader is the
	// dead middle replica.
	g := NewGroupProposer([]string{first.addr, dead, next.addr}, testTiming())
	defer g.Close()
	g.storeLeader(dead)

	st, _, _, err := g.Propose(context.Background(), createRec("r", 0, 0, 1, testIODs()))
	if err != nil || st != wire.StatusOK {
		t.Fatalf("propose: %v %v", st, err)
	}
	if got := next.calls.Load(); got == 0 {
		t.Error("replica after the failed leader was never tried")
	}
	if got := first.calls.Load(); got != 0 {
		t.Errorf("rotation restarted at masters[0] (%d calls), want resume after the failed replica", got)
	}
}

// TestNoBackoffAfterFreshLeaderHint pins hint following on the propose
// path: a real follower's NotLeader answer to a propose names
// the leader, and that is actionable immediately — the proposer must
// follow the hint without sleeping out a backoff round.
func TestNoBackoffAfterFreshLeaderHint(t *testing.T) {
	leader := startFakeReplica(t, okVerdict)
	follower := startFakeReplica(t, followerOf(t, leader.addr).Handle)
	g := NewGroupProposer([]string{follower.addr, leader.addr}, testTiming())
	defer g.Close()

	st, _, _, err := g.Propose(context.Background(), createRec("h", 0, 0, 1, testIODs()))
	if err != nil || st != wire.StatusOK {
		t.Fatalf("propose: %v %v", st, err)
	}
	if got := follower.calls.Load(); got != 1 {
		t.Errorf("follower saw %d calls, want 1", got)
	}
	if got := leader.calls.Load(); got != 1 {
		t.Errorf("leader saw %d calls, want 1", got)
	}
	if got := g.backoffs.Load(); got != 0 {
		t.Errorf("proposer slept %d backoff rounds after a fresh leader hint, want 0", got)
	}
}

// TestProposeSendsOneRecordPerFrame pins that a GroupProposer does
// not batch: eight concurrent Propose calls reach a fake leader, which
// holds every frame until eight have arrived (or a second has passed),
// as eight frames that each decode as exactly one record, and every
// caller gets the verdict of its own record. Coalescing is the
// leader's job.
func TestProposeSendsOneRecordPerFrame(t *testing.T) {
	const callers = 8
	verdict := func(seq uint64) wire.MetaProposeVerdict {
		st := wire.StatusOK
		if seq%2 == 1 {
			st = wire.StatusExists
		}
		return wire.MetaProposeVerdict{Status: st, Index: 1000 + seq}
	}
	var (
		mu      sync.Mutex
		frames  int
		arrived = make(chan struct{})
		arriveO sync.Once
	)
	leader := startFakeReplica(t, func(req wire.Message) wire.Message {
		var rec wire.MetaRecord
		if req.Type != wire.TMetaPropose || rec.Unmarshal(req.Body) != nil {
			return wire.Message{Header: wire.Header{Status: wire.StatusInvalid}}
		}
		mu.Lock()
		frames++
		if frames >= callers {
			arriveO.Do(func() { close(arrived) })
		}
		mu.Unlock()
		select {
		case <-arrived:
		case <-time.After(time.Second):
		}
		v := verdict(rec.Seq)
		return wire.Message{Body: v.Marshal()}
	})
	tm := testTiming()
	tm.CallTimeout = 2 * time.Second // outlasts the fake's hold: no retries
	g := NewGroupProposer([]string{leader.addr}, tm)
	defer g.Close()

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			rec := createRec(fmt.Sprintf("frame-%d", seq), seq, 0, 1, testIODs())
			st, _, idx, err := g.Propose(context.Background(), rec)
			if want := verdict(seq); err != nil || st != want.Status || idx != want.Index {
				errs[seq] = fmt.Errorf("caller %d: status %v index %d err %v, want %v index %d",
					seq, st, idx, err, want.Status, want.Index)
			}
		}(uint64(i))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if frames != callers {
		t.Errorf("leader saw %d frames, want %d", frames, callers)
	}
}

// TestProposeBodyIsOneRecord pins the master's propose handler: a body
// that is not exactly one record is StatusProtocol, a record no shard
// proposes (a shard map, a read barrier) is StatusInvalid, neither
// commits anything, and a well-formed create gets its verdict with the
// applied file.
func TestProposeBodyIsOneRecord(t *testing.T) {
	n := soloDirNode(t, NodeOptions{})
	base := n.Stats()
	propose := func(body []byte) wire.Message {
		return n.Handle(wire.Message{Header: wire.Header{Type: wire.TMetaPropose}, Body: body})
	}
	one := createRec("one", 0, 0, 1, testIODs())
	body := one.Marshal()
	for name, b := range map[string][]byte{
		"empty":       nil,
		"truncated":   body[:len(body)-1],
		"trailing":    append(append([]byte(nil), body...), 0),
		"two records": append(append([]byte(nil), body...), body...),
	} {
		if resp := propose(b); resp.Status != wire.StatusProtocol {
			t.Errorf("%s body: %v, want StatusProtocol", name, resp.Status)
		}
	}
	forged := wire.MetaRecord{Op: wire.TShardMap, Body: singleShardBoot([]string{"forged"}).Marshal()}
	for _, rec := range []wire.MetaRecord{forged, {Op: wire.TPing}} {
		if resp := propose(rec.Marshal()); resp.Status != wire.StatusInvalid {
			t.Errorf("%v record: %v, want StatusInvalid", rec.Op, resp.Status)
		}
	}
	if got := n.Stats().MetaProposals - base.MetaProposals; got != 0 {
		t.Fatalf("refused bodies committed %d proposals", got)
	}
	if m := n.CurrentMap(); m.Masters[0] != "solo" {
		t.Fatalf("map masters %v after a refused map record", m.Masters)
	}
	resp := propose(body)
	var v wire.MetaProposeVerdict
	if resp.Status != wire.StatusOK || v.Unmarshal(resp.Body) != nil || v.Status != wire.StatusOK ||
		v.Index == 0 || v.Info == nil || v.Info.Handle != wire.MetaHandle(0, 0, 1) {
		t.Fatalf("create: %v verdict %+v", resp.Status, v)
	}
}

// TestRetiredProposeTypeRejected pins wire value 24, once the
// one-record propose: a master replica answers it StatusInvalid from
// the default case — here with a body of the old request's shape, a
// marshaled create record — commits nothing, keeps serving, and hands
// every request body back to the pool.
func TestRetiredProposeTypeRejected(t *testing.T) {
	n := soloDirNode(t, NodeOptions{})
	base := n.Stats()
	r := startFakeReplica(t, n.Handle)
	c, err := pvfsnet.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gets0, puts0 := wire.BufStats()
	rec := createRec("retired", 0, 0, 1, testIODs())
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: 24}, Body: rec.Marshal()})
	if err == nil || resp.Status != wire.StatusInvalid {
		t.Fatalf("retired type 24: status %v err %v, want invalid", resp.Status, err)
	}
	resp.Release()
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TPing}}); err != nil {
		t.Fatalf("ping after retired type: %v", err)
	}
	if got := n.Stats().MetaProposals - base.MetaProposals; got != 0 {
		t.Errorf("retired type committed %d proposals", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := wire.BufStats()
		if gets-gets0 == puts-puts0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffers leaked: %d gets vs %d puts", gets-gets0, puts-puts0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFetchMapHonorsClose pins satellite 3: a closed proposer's
// FetchMap must fail fast with errProposerClosed instead of scanning
// replicas against a closed pool.
func TestFetchMapHonorsClose(t *testing.T) {
	g := NewGroupProposer([]string{deadAddr(t)}, testTiming())
	g.Close()
	if _, err := g.FetchMap(context.Background()); !errors.Is(err, errProposerClosed) {
		t.Fatalf("FetchMap after Close: %v, want errProposerClosed", err)
	}
}

// TestNoMastersFailsCleanly pins that a proposer built over an empty
// master list (pvfs-mgr -join ",") answers every call with an error
// instead of panicking on the rotation.
func TestNoMastersFailsCleanly(t *testing.T) {
	g := NewGroupProposer(nil, testTiming())
	defer g.Close()
	ctx := context.Background()
	if _, err := g.FetchMap(ctx); err == nil {
		t.Error("FetchMap with no masters succeeded")
	}
	if _, err := g.FetchShard(ctx, 0); err == nil {
		t.Error("FetchShard with no masters succeeded")
	}
	if _, _, _, err := g.Propose(ctx, createRec("none", 0, 0, 1, testIODs())); err == nil {
		t.Error("Propose with no masters succeeded")
	}
}

// TestCreateRetryIdempotent pins the ambiguous-retry contract: a
// create whose ack was lost is re-sent verbatim (same token) and must
// be re-acked OK with the originally committed handle — not answered
// Exists — while a different caller's create of the same name (other
// token, or no token) still collides.
func TestCreateRetryIdempotent(t *testing.T) {
	pl := startPlane(t, 3, 1)
	c, err := pvfsnet.Dial(pl.shardAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cr := wire.CreateReq{Name: "dup.dat", Token: 0xfeed}
	resp := callShard(t, c, 1, wire.TCreate, cr.Marshal(), 0)
	if resp.Status != wire.StatusOK {
		t.Fatalf("first create: %v", resp.Status)
	}
	var first wire.FileInfo
	if err := first.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}

	// The "retry": the identical request again.
	resp = callShard(t, c, 1, wire.TCreate, cr.Marshal(), 0)
	if resp.Status != wire.StatusOK {
		t.Fatalf("retried create must re-ack OK, got %v", resp.Status)
	}
	var again wire.FileInfo
	if err := again.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	if again.Handle != first.Handle {
		t.Fatalf("retried create handle %d != original %d", again.Handle, first.Handle)
	}

	// A different token is a different logical create: collision.
	other := wire.CreateReq{Name: "dup.dat", Token: 0xbeef}
	if resp := callShard(t, c, 1, wire.TCreate, other.Marshal(), 0); resp.Status != wire.StatusExists {
		t.Fatalf("other-token create of taken name: want Exists, got %v", resp.Status)
	}
	// No token (legacy caller) is never treated as a retry.
	legacy := wire.CreateReq{Name: "dup.dat"}
	if resp := callShard(t, c, 1, wire.TCreate, legacy.Marshal(), 0); resp.Status != wire.StatusExists {
		t.Fatalf("tokenless create of taken name: want Exists, got %v", resp.Status)
	}
}

// TestApplyCreateTokenFirstWins pins the same contract one layer
// down, at the replicated state machine: a re-proposed create that
// slipped past the shard's cache (fresh handle, same token) commits
// as a first-wins OK against the original file.
func TestApplyCreateTokenFirstWins(t *testing.T) {
	ns := newNamespace()
	iods := testIODs()
	mk := func(seq, tok uint64) wire.MetaRecord {
		cr := wire.MetaCreateRec{Name: "n", Info: wire.FileInfo{
			Handle:    wire.MetaHandle(seq, 0, 1),
			IODAddrs:  iods,
			CreateTok: tok,
		}}
		return wire.MetaRecord{Seq: seq, Op: wire.TCreate, Body: cr.Marshal()}
	}
	rec := mk(0, 42)
	st, info := ns.apply(&rec, 1)
	if st != wire.StatusOK {
		t.Fatalf("create: %v", st)
	}
	orig := info.Handle

	retry := mk(1, 42) // fresh handle, same token: the shard re-proposed
	st, info = ns.apply(&retry, 1)
	if st != wire.StatusOK || info.Handle != orig {
		t.Fatalf("token retry: want OK handle %d, got %v handle %d", orig, st, info.Handle)
	}
	if _, taken := ns.byHandle[wire.MetaHandle(1, 0, 1)]; taken {
		t.Fatal("losing retry must not register its unused handle")
	}

	clash := mk(2, 99) // different token: a genuine name collision
	if st, _ := ns.apply(&clash, 1); st != wire.StatusExists {
		t.Fatalf("different-token create: want Exists, got %v", st)
	}
}
