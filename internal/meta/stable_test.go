package meta

// Checksummed stable state: replay stops at the first bad record, a
// bad record before the tail or a bad snapshot refuses the state, a
// torn tail is cut off on disk, a file without its magic is refused,
// and a replica over refused state resyncs from the leader before it
// votes again.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pvfs/internal/wire"
)

// walRecords returns the offset of every record in a current-format
// WAL, and the offset where the records end and the zeroed room after
// them begins.
func walRecords(t testing.TB, b []byte) (offs []int, end int) {
	t.Helper()
	if !bytes.HasPrefix(b, walMagic) {
		t.Fatal("WAL has no magic")
	}
	off := len(walMagic)
	for ; off < len(b) && !allZero(b[off:]); off += walHeader + int(binary.LittleEndian.Uint32(b[off+4:])) {
		offs = append(offs, off)
	}
	return offs, off
}

// appendLog durably records one log mutation (truncate to < from,
// append entries) in a WAL write of its own.
func (s *stable) appendLog(from uint64, entries []wire.MetaEntry) error {
	return s.appendFrames(frameRecord(nil, &record{kind: recLog, from: from, entries: entries}))
}

// writeThree persists a hard state at term 4 and three single-entry
// log records at terms 4, 5 and 6.
func writeThree(t *testing.T, dir string) {
	t.Helper()
	st, _, err := openStable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if err := st.saveHard(wire.MetaHardState{Term: 4, VotedFor: 1}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		e := wire.MetaEntry{Index: i, Term: 3 + i, Rec: createRec(fmt.Sprintf("e%d", i), i-1, 0, 1, testIODs())}
		if err := st.appendLog(i, []wire.MetaEntry{e}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStableBadMiddleRecordRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		at   int // byte offset within the damaged record
	}{
		{"payload", walHeader + 3},
		{"length", 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeThree(t, dir)
			walPath := filepath.Join(dir, "wal")
			b, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			offs, _ := walRecords(t, b)
			// The records are the reset's hard state, then the hard
			// state and three log records written above; damage the
			// first log record.
			b[offs[2]+c.at] ^= 0x40
			if err := os.WriteFile(walPath, b, 0o644); err != nil {
				t.Fatal(err)
			}
			_, rec, err := openStable(dir)
			if !errors.Is(err, errCorruptState) {
				t.Fatalf("open over a damaged middle record: %v, want errCorruptState", err)
			}
			if rec.hard.Term != 4 || len(rec.entries) != 0 {
				t.Fatalf("readable prefix = %+v, want term 4 and no entries", rec)
			}
			// The term bound reads the intact records past the damage.
			if rec.term != 6 {
				t.Fatalf("term bound %d, want 6 from the records after the damage", rec.term)
			}
		})
	}
}

func TestStableBadSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openStable(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := &wire.MetaSnapshot{LastIndex: 5, LastTerm: 2, Map: *singleShardBoot([]string{"m"})}
	if err := st.writeSnap(snap); err != nil {
		t.Fatal(err)
	}
	st.close()
	if _, rec, err := openStable(dir); err != nil || rec.snap == nil || rec.snap.LastIndex != 5 {
		t.Fatalf("clean reopen: %v %+v", err, rec)
	}
	snapPath := filepath.Join(dir, "snap")
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 1
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openStable(dir); !errors.Is(err, errCorruptState) {
		t.Fatalf("open over a damaged snapshot: %v, want errCorruptState", err)
	}
}

// TestStableTornTailCutOnDisk appends after recovering from a torn
// tail, cut inside the last record: the next open must see the new
// record right after the prefix, not a damaged record in the middle.
// The cut is a WAL reset, whose magic, hard state and log tail leave in
// one write with one sync.
func TestStableTornTailCutOnDisk(t *testing.T) {
	dir := t.TempDir()
	writeThree(t, dir)
	walPath := filepath.Join(dir, "wal")
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	_, end := walRecords(t, b)
	if err := os.WriteFile(walPath, b[:end-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := openStable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.entries) != 2 {
		t.Fatalf("torn tail recovered %d entries, want the 2 before it", len(rec.entries))
	}
	if got := st.syncs.Load(); got != 1 {
		t.Errorf("cutting the torn tail took %d WAL syncs, want 1", got)
	}
	e := wire.MetaEntry{Index: 3, Term: 5, Rec: createRec("again", 2, 0, 1, testIODs())}
	if err := st.appendLog(3, []wire.MetaEntry{e}); err != nil {
		t.Fatal(err)
	}
	st.close()
	st2, rec2, err := openStable(dir)
	if err != nil {
		t.Fatalf("reopen after appending past a torn tail: %v", err)
	}
	defer st2.close()
	if len(rec2.entries) != 3 || rec2.entries[2].Term != 5 {
		t.Fatalf("entries = %+v", rec2.entries)
	}
}

// TestStableMagicBitFlipRefused flips each bit of each file's magic.
// A file without its magic is not a crash artefact, so openStable
// refuses the state with errCorruptState and leaves the file as it
// was: it must not read it as some other format, find no records, and
// rewrite it empty — which would drop the replica's vote and log.
func TestStableMagicBitFlipRefused(t *testing.T) {
	dir := t.TempDir()
	writeThree(t, dir)
	st, _, err := openStable(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := &wire.MetaSnapshot{LastIndex: 1, LastTerm: 4, Map: *singleShardBoot([]string{"m"})}
	if err := st.writeSnap(snap); err != nil {
		t.Fatal(err)
	}
	st.close()
	for name, magic := range map[string][]byte{"wal": walMagic, "snap": snapMagic} {
		path := filepath.Join(dir, name)
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8*len(magic); bit++ {
			b := bytes.Clone(clean)
			b[bit/8] ^= 1 << (bit % 8)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			_, rec, err := openStable(dir)
			if !errors.Is(err, errCorruptState) {
				t.Fatalf("%s magic bit %d flipped: %v, want errCorruptState", name, bit, err)
			}
			// The intact records past the magic still bound the term.
			if rec.term != 6 {
				t.Fatalf("%s magic bit %d flipped: term bound %d, want 6", name, bit, rec.term)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, b) {
				t.Fatalf("%s magic bit %d flipped: the file was rewritten (%d bytes, was %d)", name, bit, len(got), len(b))
			}
		}
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, rec, err := openStable(dir); err != nil || rec.hard.Term != 4 || len(rec.entries) != 2 {
		t.Fatalf("clean reopen: %v %+v", err, rec)
	}
}

// TestStableEmptyWALIsTorn: openStable creates the WAL before its
// first reset writes the magic, so a crash between the two leaves an
// empty file. Nothing was promised yet: it is a torn tail, not damage.
func TestStableEmptyWALIsTorn(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := openStable(dir)
	if err != nil {
		t.Fatalf("open over an empty WAL: %v", err)
	}
	st.close()
	if rec.hard.Term != 0 || len(rec.entries) != 0 {
		t.Fatalf("empty WAL recovered %+v", rec)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "wal")); err != nil || !bytes.HasPrefix(b, walMagic) {
		t.Fatalf("empty WAL not rewritten with its magic: %v", err)
	}
}

// damageFirstLogRecord flips a payload byte of the first log record of
// a stopped replica's WAL; later records stay intact.
func damageFirstLogRecord(t *testing.T, dir string) {
	t.Helper()
	walPath := filepath.Join(dir, "wal")
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	offs, _ := walRecords(t, b)
	for i, off := range offs {
		if binary.LittleEndian.Uint32(b[off:]) == walLog {
			if i == len(offs)-1 {
				t.Fatal("the first log record is the tail; nothing to damage in the middle")
			}
			b[off+walHeader] ^= 0x40
			if err := os.WriteFile(walPath, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("WAL has no log record")
}

func TestSoloReplicaRefusesDamagedState(t *testing.T) {
	dir := t.TempDir()
	n := soloDirNode(t, NodeOptions{Dir: dir})
	for i := 0; i < 3; i++ {
		if _, _, _, _, err := n.Propose(context.Background(), createRec(fmt.Sprintf("s%d", i), uint64(i), 0, 1, testIODs())); err != nil {
			t.Fatal(err)
		}
	}
	n.Close()
	damageFirstLogRecord(t, dir)
	_, err := NewNode(NodeOptions{ID: 0, Peers: []string{"solo"}, Dir: dir, Timing: testTiming()})
	if !errors.Is(err, errCorruptState) {
		t.Fatalf("solo replica over damaged state: %v, want errCorruptState", err)
	}
}

func TestDamagedReplicaVotesOnlyAfterResync(t *testing.T) {
	dir := t.TempDir()
	writeThree(t, dir)
	damageFirstLogRecord(t, dir)
	tm := testTiming()
	n, err := NewNode(NodeOptions{ID: 0, Peers: []string{"self", deadAddr(t), deadAddr(t)}, Dir: dir, Timing: tm})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := os.Stat(filepath.Join(dir, "wal.corrupt")); err != nil {
		t.Fatalf("damaged WAL not set aside: %v", err)
	}
	n.mu.Lock()
	resync, term, last := n.c.resync, n.c.term, n.c.lastIndex()
	n.mu.Unlock()
	if !resync || term != 6 || last != 0 {
		t.Fatalf("resync %v term %d last %d, want resync at term 6 with an empty log", resync, term, last)
	}
	// No election of its own while resyncing.
	time.Sleep(2 * tm.ElectionHi)
	if got := n.Term(); got != 6 {
		t.Fatalf("resyncing replica moved to term %d by itself", got)
	}
	vote := func(term uint64, cand uint32) bool {
		req := wire.MetaVoteReq{Term: term, Candidate: cand, LastIndex: 100, LastTerm: term}
		resp := n.Handle(wire.Message{Header: wire.Header{Type: wire.TMetaVote}, Body: req.Marshal()})
		var vr wire.MetaVoteResp
		if err := vr.Unmarshal(resp.Body); err != nil {
			t.Fatal(err)
		}
		return vr.Granted
	}
	if vote(7, 1) {
		t.Fatal("resyncing replica granted a vote")
	}
	appendAt := func(term uint64) bool {
		hb := wire.MetaAppendReq{Term: term, Leader: 2, Entries: []wire.MetaEntry{
			{Index: 1, Term: term, Rec: wire.MetaRecord{Op: wire.TShardMap, Body: singleShardBoot([]string{"self", "b", "c"}).Marshal()}},
		}}
		resp := n.Handle(wire.Message{Header: wire.Header{Type: wire.TMetaAppend}, Body: hb.Marshal()})
		var ar wire.MetaAppendResp
		if err := ar.Unmarshal(resp.Body); err != nil {
			t.Fatal(err)
		}
		return ar.Success
	}
	// A leader older than the lost state may lack entries this replica
	// acked; it cannot refill the log.
	if appendAt(5) {
		t.Fatal("resyncing replica took an append from a term below its lost state")
	}
	// A leader's append that runs to its last index ends the resync;
	// the replica then counts as having voted for that leader.
	if !appendAt(7) {
		t.Fatal("append from the current leader refused")
	}
	if vote(7, 1) {
		t.Fatal("resynced replica voted twice in its leader's term")
	}
	if !vote(8, 1) {
		t.Fatal("resynced replica refused a vote in a later term")
	}
}

// TestDamagedFollowerRejoins restarts a follower over a damaged WAL
// in a live group: it sets the state aside, takes the log back from
// the leader, and then carries the group when the leader dies.
func TestDamagedFollowerRejoins(t *testing.T) {
	g := startGroup(t, 3, singleShardBoot)
	p := NewGroupProposer(g.addrs, g.timing)
	defer p.Close()
	var seq uint64
	acked := proposeAcked(t, p, "a", &seq, 5)
	lead := g.waitLeader()
	down := (lead + 1) % 3
	g.kill(down)
	acked = append(acked, proposeAcked(t, p, "b", &seq, 5)...)
	damageFirstLogRecord(t, g.dirs[down])
	g.restart(down)
	n := g.nodes[down]
	if _, err := os.Stat(filepath.Join(g.dirs[down], "wal.corrupt")); err != nil {
		t.Fatalf("damaged WAL not set aside: %v", err)
	}
	waitFor(t, "the damaged follower to resync", 5*time.Second, func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return !n.c.resync
	})
	// The rejoined replica is now needed for a majority.
	if lead = g.waitLeader(); lead != down {
		g.kill(lead)
	}
	acked = append(acked, proposeAcked(t, p, "c", &seq, 3)...)
	snap, err := p.FetchShard(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool)
	for _, f := range snap.Shards[0].Files {
		have[f.Name] = true
	}
	for _, name := range acked {
		if !have[name] {
			t.Fatalf("create %q lost across a damaged follower's resync", name)
		}
	}
}

// TestStableTornTwoRecordWrite tears the WAL inside one write that
// carried a hard state and a log record together, as one core output
// asks: the write costs one fsync, and replay stops at the last whole
// record wherever the tear falls.
func TestStableTornTwoRecordWrite(t *testing.T) {
	dir := t.TempDir()
	st, _, err := openStable(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(idx, term uint64) wire.MetaEntry {
		return wire.MetaEntry{Index: idx, Term: term, Rec: createRec(fmt.Sprintf("e%d", idx), idx, 0, 1, testIODs())}
	}
	for term := uint64(2); term <= 3; term++ {
		recs := []record{
			{kind: recHard, hard: wire.MetaHardState{Term: term, VotedFor: 0}},
			{kind: recLog, from: term - 1, entries: []wire.MetaEntry{entry(term-1, term)}},
		}
		before := st.syncs.Load()
		if done, err := st.write(recs); done != 2 || err != nil {
			t.Fatalf("write at term %d: %d records, %v", term, done, err)
		}
		if got := st.syncs.Load() - before; got != 1 {
			t.Fatalf("two-record write cost %d fsyncs, want 1", got)
		}
	}
	st.close()
	b, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	// The reset at open wrote one hard state; then two writes of two.
	offs, _ := walRecords(t, b)
	if len(offs) != 5 {
		t.Fatalf("WAL holds %d records, want 5", len(offs))
	}
	for _, c := range []struct {
		name    string
		cut     int
		term    uint64
		entries int
	}{
		{"whole", len(b), 3, 2},
		{"inside the second write's log record", offs[4] + walHeader + 3, 3, 1},
		{"inside the second write's log header", offs[4] + 5, 3, 1},
		{"inside the second write's hard state", offs[3] + walHeader + 1, 2, 1},
		{"between the writes", offs[3], 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, "wal"), b[:c.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st, rec, err := openStable(d)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			if rec.hard.Term != c.term || len(rec.entries) != c.entries {
				t.Fatalf("recovered term %d with %d entries, want term %d with %d", rec.hard.Term, len(rec.entries), c.term, c.entries)
			}
		})
	}
}
