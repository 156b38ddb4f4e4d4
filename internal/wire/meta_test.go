package wire

import (
	"reflect"
	"testing"

	"pvfs/internal/striping"
)

func TestShardMapRoundTrip(t *testing.T) {
	m := ShardMap{
		Epoch:   7,
		Masters: []string{"a:1", "b:2", "c:3"},
		Shards:  []string{"s0:1", "s1:2"},
		IODs:    []string{"i0:1", "i1:2", "i2:3", "i3:4"},
	}
	var got ShardMap
	if err := got.Unmarshal(m.Marshal()); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip: got %+v want %+v", got, m)
	}
}

func TestShardMapRouting(t *testing.T) {
	m := ShardMap{Epoch: 1, Shards: []string{"a", "b", "c", "d"}}
	// Name routing is deterministic and in range.
	names := []string{"", "ckpt-0", "ckpt-1", "a/b/c", "zzz"}
	for _, n := range names {
		s := m.ShardForName(n)
		if s < 0 || s >= len(m.Shards) {
			t.Fatalf("ShardForName(%q) = %d out of range", n, s)
		}
		if s2 := m.ShardForName(n); s2 != s {
			t.Fatalf("ShardForName(%q) unstable: %d then %d", n, s, s2)
		}
	}
	// Handles encode their shard for any shard count.
	for _, nsh := range []int{1, 2, 4} {
		mm := ShardMap{Epoch: 1, Shards: make([]string, nsh)}
		for shard := 0; shard < nsh; shard++ {
			for seq := uint64(0); seq < 10; seq++ {
				h := MetaHandle(seq, shard, nsh)
				if h == 0 {
					t.Fatalf("handle 0 for seq=%d shard=%d n=%d", seq, shard, nsh)
				}
				if got := mm.ShardForHandle(h); got != shard {
					t.Fatalf("ShardForHandle(%d) = %d want %d (n=%d)", h, got, shard, nsh)
				}
				if got := MetaHandleSeq(h, nsh); got != seq {
					t.Fatalf("MetaHandleSeq(%d) = %d want %d (n=%d)", h, got, seq, nsh)
				}
			}
		}
	}
	// The single-shard stream is the classic manager's 1, 2, 3, ...
	for seq := uint64(0); seq < 3; seq++ {
		if h := MetaHandle(seq, 0, 1); h != seq+1 {
			t.Fatalf("single-shard handle for seq %d = %d", seq, h)
		}
	}
}

func TestMetaEnvelopeRoundTrip(t *testing.T) {
	env := MetaEnvelope{Epoch: 3, Hops: 1, Inner: TCreate, Body: []byte("inner")}
	var got MetaEnvelope
	if err := got.Unmarshal(env.Marshal()); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Epoch != 3 || got.Hops != 1 || got.Inner != TCreate || string(got.Body) != "inner" {
		t.Fatalf("round trip: got %+v", got)
	}
}

func TestMetaAppendRoundTrip(t *testing.T) {
	req := MetaAppendReq{
		Term: 5, Leader: 1, PrevIndex: 10, PrevTerm: 4, Commit: 9,
		Entries: []MetaEntry{
			{Index: 11, Term: 5, Rec: MetaRecord{Shard: 0, Seq: 3, Op: TCreate, Body: []byte("x")}},
			{Index: 12, Term: 5, Rec: MetaRecord{Shard: 1, Seq: 0, Op: TRemove, Body: nil}},
		},
	}
	var got MetaAppendReq
	if err := got.Unmarshal(req.Marshal()); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Term != 5 || got.Commit != 9 || len(got.Entries) != 2 {
		t.Fatalf("round trip: got %+v", got)
	}
	if got.Entries[0].Rec.Op != TCreate || string(got.Entries[0].Rec.Body) != "x" {
		t.Fatalf("entry 0: got %+v", got.Entries[0])
	}
	if got.Entries[1].Index != 12 || got.Entries[1].Rec.Shard != 1 {
		t.Fatalf("entry 1: got %+v", got.Entries[1])
	}

	// Snapshot-bearing append.
	snap := MetaSnapshot{
		LastIndex: 20, LastTerm: 5,
		Map: ShardMap{Epoch: 2, Masters: []string{"m0"}, Shards: []string{"s0"}, IODs: []string{"i0"}},
		Shards: []MetaShardState{{
			Shard: 0, NextSeq: 2,
			Files: []MetaFileRec{{
				Name: "f",
				Info: FileInfo{Handle: 1, Size: 42,
					Striping: striping.Config{PCount: 1, StripeSize: 65536},
					IODAddrs: []string{"i0"}},
			}},
		}},
	}
	sreq := MetaAppendReq{Term: 6, Leader: 2, Snap: snap.Marshal()}
	var sgot MetaAppendReq
	if err := sgot.Unmarshal(sreq.Marshal()); err != nil {
		t.Fatalf("snapshot append unmarshal: %v", err)
	}
	var snap2 MetaSnapshot
	if err := snap2.Unmarshal(sgot.Snap); err != nil {
		t.Fatalf("snapshot unmarshal: %v", err)
	}
	if !reflect.DeepEqual(snap, snap2) {
		t.Fatalf("snapshot round trip: got %+v want %+v", snap2, snap)
	}
}

func TestMetaVoteAndProposeRoundTrip(t *testing.T) {
	for _, v := range []MetaVoteReq{
		{Term: 2, Candidate: 1, LastIndex: 9, LastTerm: 1},
		{Term: 3, Candidate: 2, LastIndex: 9, LastTerm: 1, Pre: true},
	} {
		var vg MetaVoteReq
		if err := vg.Unmarshal(v.Marshal()); err != nil || vg != v {
			t.Fatalf("vote req: %+v err %v, want %+v", vg, err, v)
		}
	}
	vr := MetaVoteResp{Term: 2, Granted: true}
	var vrg MetaVoteResp
	if err := vrg.Unmarshal(vr.Marshal()); err != nil || vrg != vr {
		t.Fatalf("vote resp: %+v err %v", vrg, err)
	}
	cr := MetaCreateRec{Name: "f", Info: FileInfo{Handle: 3, Striping: striping.Config{PCount: 2, StripeSize: 4096}, IODAddrs: []string{"a", "b"}}}
	p := MetaRecord{Shard: 1, Seq: 7, Op: TCreate, Body: cr.Marshal()}
	var pg MetaRecord
	if err := pg.Unmarshal(p.Marshal()); err != nil || pg.Shard != p.Shard || pg.Seq != p.Seq || pg.Op != p.Op {
		t.Fatalf("propose record: %+v err %v", pg, err)
	}
	if err := pg.Unmarshal(append(p.Marshal(), 0)); err == nil {
		t.Fatal("propose record with a trailing byte accepted")
	}
	var crg MetaCreateRec
	if err := crg.Unmarshal(pg.Body); err != nil {
		t.Fatalf("create rec: %v", err)
	}
	if !reflect.DeepEqual(cr, crg) {
		t.Fatalf("create rec round trip: got %+v want %+v", crg, cr)
	}

	for _, v := range []MetaProposeVerdict{
		{Status: StatusOK, Index: 9, Info: &cr.Info},
		{Status: StatusExists, Index: 10},
	} {
		var g MetaProposeVerdict
		if err := g.Unmarshal(v.Marshal()); err != nil || !reflect.DeepEqual(g, v) {
			t.Fatalf("verdict: got %+v err %v, want %+v", g, err, v)
		}
	}

	// The NotLeader hint is its own, fixed shape for every master answer.
	h := MetaProposeResp{LeaderAddr: "m1:7200"}
	var hg MetaProposeResp
	if err := hg.Unmarshal(h.Marshal()); err != nil || hg != h {
		t.Fatalf("leader hint: %+v err %v", hg, err)
	}
}

func TestMetaStatusSemantics(t *testing.T) {
	// WrongEpoch and NotLeader are routing verdicts: the generic retry
	// machinery must NOT re-issue the identical request on them.
	if StatusWrongEpoch.Retryable() || StatusNotLeader.Retryable() {
		t.Fatal("meta routing statuses must not be generically retryable")
	}
	if StatusWrongEpoch.String() == "" || StatusNotLeader.String() == "" {
		t.Fatal("missing status strings")
	}
}
