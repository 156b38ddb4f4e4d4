package meta

// A shard's lookups are local (pvfsnet.Local): its listener answers them
// on the connection's read loop, while creates, which wait on a propose
// round, keep their goroutines. A dirty shard's lookups are not local:
// they resync before they answer.

import (
	"context"
	"sync"
	"testing"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

func TestShardLocalRule(t *testing.T) {
	pl := startPlane(t, 1, 1)
	s := pl.shards[0]
	c, err := pvfsnet.Dial(pl.shardAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The first call waits out the shard's initial sync.
	if st := callShard(t, c, 1, wire.TCreate, (&wire.CreateReq{Name: "a"}).Marshal(), 0).Status; st != wire.StatusOK {
		t.Fatalf("create a: %v", st)
	}
	name := (&wire.NameReq{Name: "a"}).Marshal()
	for _, tc := range []struct {
		what string
		req  wire.Message
		want bool
	}{
		{"enveloped open", envelope(1, wire.TOpen, name), true},
		{"enveloped stat", envelope(1, wire.TStat, name), true},
		{"enveloped open at an older epoch", envelope(0, wire.TOpen, name), true},
		{"enveloped open at a newer epoch", envelope(2, wire.TOpen, name), false},
		{"enveloped create", envelope(1, wire.TCreate, name), false},
		{"enveloped remove", envelope(1, wire.TRemove, name), false},
		{"enveloped set-size", envelope(1, wire.TSetSize, nil), false},
		{"torn envelope", wire.Message{Header: wire.Header{Type: wire.TMetaForward}, Body: []byte{1}}, false},
		{"plain open", wire.Message{Header: wire.Header{Type: wire.TOpen}, Body: name}, true},
		{"plain stat", wire.Message{Header: wire.Header{Type: wire.TStat}, Body: name}, true},
		{"ping", wire.Message{Header: wire.Header{Type: wire.TPing}}, true},
		{"stats", wire.Message{Header: wire.Header{Type: wire.TServerStats}}, true},
		{"map", wire.Message{Header: wire.Header{Type: wire.TShardMap}}, true},
		{"plain create", wire.Message{Header: wire.Header{Type: wire.TCreate}}, false},
		{"list", wire.Message{Header: wire.Header{Type: wire.TListDir}}, false},
	} {
		if got := s.Local(tc.req); got != tc.want {
			t.Errorf("%s: Local = %v, want %v", tc.what, got, tc.want)
		}
	}
}

// A lookup on a client connection is answered while a create sent
// before it on the same connection waits on a propose the master holds.
func TestLookupAnsweredDuringHeldCreate(t *testing.T) {
	pl := startPlane(t, 1, 1)
	c, err := pvfsnet.Dial(pl.shardAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := callShard(t, c, 1, wire.TCreate, (&wire.CreateReq{Name: "a"}).Marshal(), 0).Status; st != wire.StatusOK {
		t.Fatalf("create a: %v", st)
	}
	opened := callShard(t, c, 1, wire.TOpen, (&wire.NameReq{Name: "a"}).Marshal(), 0)

	entered, release := make(chan struct{}), make(chan struct{})
	tap := func(_ int, req wire.Message) {
		if req.Type != wire.TMetaPropose {
			return
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	pl.g.tap.Store(&tap)
	defer pl.g.tap.Store(nil)
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // a failed check must not leave the master's handler held

	create, err := c.CallAsync(envelope(1, wire.TCreate, (&wire.CreateReq{Name: "b"}).Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the create's propose never reached the master")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, req := range []wire.Message{
		envelope(1, wire.TOpen, (&wire.NameReq{Name: "a"}).Marshal()),
		envelope(1, wire.TStat, (&wire.NameReq{Name: "a"}).Marshal()),
		{Header: wire.Header{Type: wire.TOpen}, Body: (&wire.NameReq{Name: "a"}).Marshal()},
	} {
		resp, err := c.CallContext(ctx, req)
		if err != nil {
			t.Fatalf("lookup during a held create: %v", err)
		}
		if resp.Handle != opened.Handle {
			t.Fatalf("lookup answered handle %d, want %d", resp.Handle, opened.Handle)
		}
	}
	free()
	if resp, err := create.Wait(); err != nil || resp.Handle == 0 {
		t.Fatalf("held create: handle %d, %v", resp.Handle, err)
	}
}

// A lookup to a dirty shard resyncs before it answers: it finds a file
// the master committed that the shard's cache never saw, as an
// ambiguous proposal that did commit leaves it.
func TestDirtyShardLookupResyncs(t *testing.T) {
	pl := startPlane(t, 1, 1)
	s := pl.shards[0]
	c, err := pvfsnet.Dial(pl.shardAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := callShard(t, c, 1, wire.TCreate, (&wire.CreateReq{Name: "a"}).Marshal(), 0).Status; st != wire.StatusOK {
		t.Fatalf("create a: %v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const seq = 1000 // far from the shard's own sequence numbers
	if st, _, _, _, err := pl.g.nodes[0].Propose(ctx, createRec("z", seq, 0, 1, testIODs())); err != nil || st != wire.StatusOK {
		t.Fatalf("committing z at the master: %v %v", st, err)
	}
	s.mu.Lock()
	s.dirty = true
	s.mu.Unlock()

	open := (&wire.NameReq{Name: "z"}).Marshal()
	if s.Local(envelope(1, wire.TOpen, open)) {
		t.Fatal("a dirty shard's lookup is local")
	}
	resp := callShard(t, c, 1, wire.TOpen, open, 0)
	if resp.Status != wire.StatusOK || resp.Handle != wire.MetaHandle(seq, 0, 1) {
		t.Fatalf("open z on a dirty shard: %v handle %d, want handle %d", resp.Status, resp.Handle, wire.MetaHandle(seq, 0, 1))
	}
	if !s.Local(envelope(1, wire.TOpen, open)) {
		t.Fatal("the shard's lookups are not local after its resync")
	}
	if resp := callShard(t, c, 1, wire.TOpen, (&wire.NameReq{Name: "a"}).Marshal(), 0); resp.Status != wire.StatusOK {
		t.Fatalf("open a after the resync: %v", resp.Status)
	}
}
