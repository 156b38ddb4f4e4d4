package meta

// Hostile input to the master wire protocol: a replica's Handle takes
// whatever type and body a peer sends. Whatever the bytes, a solo
// durable replica does not panic, and it still answers a well-formed
// propose promptly afterwards; an append that misnumbers its entries is
// refused before it reaches the core.

import (
	"testing"
	"time"

	"pvfs/internal/wire"
)

func FuzzNodeHandle(f *testing.F) {
	vote := wire.MetaVoteReq{Term: 2, Candidate: 1, LastIndex: 2, LastTerm: 1}
	pre := vote
	pre.Pre = true
	app := wire.MetaAppendReq{Term: 2, Leader: 1, PrevIndex: 2, PrevTerm: 1, Commit: 3,
		Entries: []wire.MetaEntry{{Index: 3, Term: 2, Rec: createRec("appended", 5, 0, 1, testIODs())}}}
	prop := createRec("proposed", 6, 0, 1, testIODs())
	fetch := wire.MetaFetchReq{Shard: 0}
	for _, seed := range []struct {
		typ  wire.MsgType
		body []byte
	}{
		{wire.TMetaVote, vote.Marshal()},
		{wire.TMetaVote, pre.Marshal()},
		{wire.TMetaAppend, app.Marshal()},
		{wire.TMetaPropose, prop.Marshal()},
		{wire.TMetaFetch, fetch.Marshal()},
		{wire.TShardMap, nil},
		{wire.TPing, nil},
		{wire.TServerStats, nil},
	} {
		f.Add(uint16(seed.typ), seed.body)
	}
	rec := createRec("after", 1<<20, 0, 1, testIODs())
	after := rec.Marshal()

	f.Fuzz(func(t *testing.T, typ uint16, body []byte) {
		peers := []string{"solo"}
		n, err := NewNode(NodeOptions{ID: 0, Peers: peers, Bootstrap: singleShardBoot(peers), Dir: t.TempDir(), Timing: testTiming()})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		n.Handle(wire.Message{Header: wire.Header{Type: wire.MsgType(typ)}, Body: body})
		done := make(chan wire.Message, 1)
		go func() {
			done <- n.Handle(wire.Message{Header: wire.Header{Type: wire.TMetaPropose}, Body: after})
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("a well-formed propose after type %d went unanswered for 1 s", typ)
		}
	})
}

// TestAppendRefusesMisnumberedEntries sends a follower two appends from
// its leader: one whose entry skips ahead of PrevIndex, one whose entry
// carries a term past the append's. Both are StatusProtocol; the first
// once made apply index past the log end with the node's lock held.
// A heartbeat after them is still acked.
func TestAppendRefusesMisnumberedEntries(t *testing.T) {
	n := followerOf(t, deadAddr(t))
	rec := createRec("x", 5, 0, 1, testIODs())
	appendResp := func(ar wire.MetaAppendReq) wire.Message {
		return n.Handle(wire.Message{Header: wire.Header{Type: wire.TMetaAppend}, Body: ar.Marshal()})
	}
	for name, ar := range map[string]wire.MetaAppendReq{
		"gap":    {Term: 1, Leader: 1, Commit: 1000, Entries: []wire.MetaEntry{{Index: 1000, Term: 1, Rec: rec}}},
		"future": {Term: 1, Leader: 1, Entries: []wire.MetaEntry{{Index: 1, Term: 2, Rec: rec}}},
	} {
		if resp := appendResp(ar); resp.Status != wire.StatusProtocol {
			t.Errorf("%s append: %v, want StatusProtocol", name, resp.Status)
		}
	}
	var ar wire.MetaAppendResp
	if err := ar.Unmarshal(appendResp(wire.MetaAppendReq{Term: 1, Leader: 1}).Body); err != nil || !ar.Success {
		t.Fatalf("heartbeat after refused appends: %+v err %v", ar, err)
	}
}
