package meta

// Fuzzing the client's metadata route: a TMetaForward body is an
// epoch-stamped envelope around a manager-grammar request. Whatever the
// bytes, the envelope codec round-trips what it accepts, and a synced
// shard does not panic and refuses malformed input with StatusProtocol
// instead of serving it.

import (
	"bytes"
	"testing"

	"pvfs/internal/wire"
)

// innerDecodes reports whether body is well-formed for inner, by the
// decoder the shard uses for it; other types carry no body the shard
// reads.
func innerDecodes(inner wire.MsgType, body []byte) bool {
	switch inner {
	case wire.TCreate:
		var cr wire.CreateReq
		return cr.Unmarshal(body) == nil
	case wire.TOpen, wire.TStat, wire.TRemove:
		var nr wire.NameReq
		return nr.Unmarshal(body) == nil
	case wire.TSetSize:
		var sr wire.SetSizeReq
		return sr.Unmarshal(body) == nil
	}
	return true
}

func FuzzMetaEnvelope(f *testing.F) {
	boot := &wire.ShardMap{Epoch: 1, Masters: []string{"solo"}, Shards: []string{"solo"}, IODs: testIODs()}
	node, err := NewNode(NodeOptions{ID: 0, Peers: []string{"solo"}, Bootstrap: boot, Timing: testTiming()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { node.Close() })
	shard := NewShard(ShardOptions{Index: 0, Proposer: LocalProposer{Node: node}, Timing: testTiming()})
	f.Cleanup(func() { shard.Close() })
	forward := func(b []byte) wire.Message {
		return shard.Handle(wire.Message{Header: wire.Header{Type: wire.TMetaForward}, Body: b})
	}

	create := wire.CreateReq{Name: "seed", Token: 7}
	name := wire.NameReq{Name: "seed"}
	size := wire.SetSizeReq{Handle: wire.MetaHandle(0, 0, 1), Size: 4096}
	for _, env := range []wire.MetaEnvelope{
		{Epoch: 1, Inner: wire.TCreate, Body: create.Marshal()},
		{Epoch: 1, Inner: wire.TOpen, Body: name.Marshal()},
		{Epoch: 1, Inner: wire.TStat, Body: name.Marshal()},
		{Epoch: 1, Inner: wire.TSetSize, Body: size.Marshal()},
		{Epoch: 1, Inner: wire.TListDir},
		{Epoch: 1, Inner: wire.TRemove, Body: name.Marshal()},
		{Epoch: 2, Inner: wire.TOpen, Body: name.Marshal()},
	} {
		b := env.Marshal()
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	// The shard syncs from the master on its first request.
	ld := wire.MetaEnvelope{Epoch: 1, Inner: wire.TListDir}
	if resp := forward(ld.Marshal()); resp.Status != wire.StatusOK {
		f.Fatalf("listdir on a fresh shard: %v", resp.Status)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		var env wire.MetaEnvelope
		envErr := env.Unmarshal(b)
		if envErr == nil {
			enc := env.Marshal()
			var again wire.MetaEnvelope
			if !bytes.Equal(enc, b) || again.Unmarshal(enc) != nil ||
				again.Epoch != env.Epoch || again.Hops != env.Hops || again.Inner != env.Inner || !bytes.Equal(again.Body, env.Body) {
				t.Fatalf("envelope %+v does not round-trip", env)
			}
		}
		resp := forward(b)
		// An envelope at another epoch is answered with the map before
		// its inner body is read.
		malformed := envErr != nil || (env.Epoch == boot.Epoch && !innerDecodes(env.Inner, env.Body))
		if malformed && resp.Status != wire.StatusProtocol {
			t.Fatalf("malformed envelope %x answered %v, want StatusProtocol", b, resp.Status)
		}
	})
}
