package meta

// The on-disk bytes of a solo durable replica are pinned: a scripted
// sequential run must leave snap byte-identical to its golden file in
// testdata, and wal's records byte-identical to theirs, followed only
// by the zeroed room the next records are written into. Regenerate
// them (only for a deliberate format change) with
//
//	go test ./internal/meta -run TestSoloDiskBytesGolden -update-golden

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pvfs/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/solo.{wal,snap}")

// TestSoloDiskBytesGolden drives one durable solo replica through
// bootstrap, creates, a remove, a set-size, a shard-map bump, one
// compaction it waits out, and more creates. Each of the three shards
// holds at most one file when the log folds, so the snapshot's bytes
// do not depend on map iteration order.
func TestSoloDiskBytesGolden(t *testing.T) {
	dir := t.TempDir()
	boot := &wire.ShardMap{Epoch: 1, Masters: []string{"solo"}, Shards: []string{"s0", "s1", "s2"}, IODs: testIODs()}
	n, err := NewNode(NodeOptions{ID: 0, Peers: []string{"solo"}, Bootstrap: boot, Dir: dir, Timing: testTiming()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctx := context.Background()
	propose := func(what string, rec wire.MetaRecord) {
		t.Helper()
		if st, _, _, _, err := n.Propose(ctx, rec); err != nil || st != wire.StatusOK {
			t.Fatalf("%s: %v %v", what, st, err)
		}
	}
	const nshards = 3
	propose("create a", createRec("a", 0, 0, nshards, testIODs()))
	propose("create b", createRec("b", 0, 1, nshards, testIODs()))
	propose("create c", createRec("c", 0, 2, nshards, testIODs()))
	propose("create d", createRec("d", 1, 0, nshards, testIODs()))
	rm := wire.NameReq{Name: "d"}
	propose("remove d", wire.MetaRecord{Shard: 0, Op: wire.TRemove, Body: rm.Marshal()})
	sz := wire.SetSizeReq{Handle: wire.MetaHandle(0, 1, nshards), Size: 4096}
	propose("setsize b", wire.MetaRecord{Shard: 1, Op: wire.TSetSize, Body: sz.Marshal()})
	if _, err := n.ProposeConfig(ctx, nil); err != nil {
		t.Fatal(err)
	}

	// Lower the compaction threshold; the next applied entry wakes the
	// compactor, which folds everything applied so far. The fold costs
	// two fsyncs: the snapshot file and the reset WAL.
	n.mu.Lock()
	n.c.maxLog = 2
	n.mu.Unlock()
	syncs := n.Stats().MetaWALSyncs
	propose("no-op", wire.MetaRecord{Op: wire.TPing})
	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().MetaWALSyncs < syncs+3 {
		if time.Now().After(deadline) {
			t.Fatal("compaction never finished")
		}
		time.Sleep(time.Millisecond)
	}

	propose("create e", createRec("e", 1, 1, nshards, testIODs()))
	propose("create f", createRec("f", 1, 2, nshards, testIODs()))
	n.Close()

	for _, name := range []string{"wal", "snap"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "solo."+name)
		if *updateGolden {
			if name == "wal" {
				// The golden holds the records, not the room after them.
				_, end := walRecords(t, got)
				got = got[:end]
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		// The WAL's records are pinned and only zeroed room may follow
		// them; the snapshot is pinned whole.
		var room []byte
		if name == "wal" && len(got) > len(want) {
			got, room = got[:len(want)], got[len(want):]
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the %d golden bytes", name, len(got), len(want))
		}
		if !allZero(room) {
			t.Errorf("%s: the %d bytes after the golden records are not all zero", name, len(room))
		}
	}
}
