package meta

// Fuzzing the replica's disk formats: whatever bytes sit in a wal or
// snap file, recovery does not panic, and it either refuses the input
// or takes exactly a clean prefix of it — never a record from beyond
// damage.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"pvfs/internal/wire"
)

// durableFiles writes a state dir through the replica's own durable
// writers — a compaction's snapshot of four creates, the hard state and
// the log tail above it, then one more appended record — and returns its
// wal and snap files. The bytes are the same on every run: each fuzz
// worker recomputes the seeds.
func durableFiles(f *testing.F) (wal, snap []byte) {
	dir := f.TempDir()
	st, _, err := openStable(dir)
	if err != nil {
		f.Fatal(err)
	}
	defer st.close()
	entries := make([]wire.MetaEntry, 7)
	for i := range entries {
		seq := uint64(i)
		entries[i] = wire.MetaEntry{Index: seq + 1, Term: 2 + seq/6, Rec: createRec(fmt.Sprintf("fz-%d", seq), seq, 0, 1, testIODs())}
	}
	ns := newNamespace()
	for i := range entries[:4] {
		ns.apply(&entries[i].Rec, 1)
	}
	state := ns.state(0)
	sort.Slice(state.Files, func(i, j int) bool { return state.Files[i].Name < state.Files[j].Name })
	compacted := &wire.MetaSnapshot{LastIndex: 4, LastTerm: 2, Map: *singleShardBoot([]string{"solo"}), Shards: []wire.MetaShardState{state}}
	if err := st.saveSnapshot(compacted, entries[4:6], wire.MetaHardState{Term: 2, VotedFor: 0}); err != nil {
		f.Fatal(err)
	}
	if err := st.appendLog(7, entries[6:]); err != nil {
		f.Fatal(err)
	}
	if wal, err = os.ReadFile(filepath.Join(dir, "wal")); err != nil {
		f.Fatal(err)
	}
	if snap, err = os.ReadFile(filepath.Join(dir, "snap")); err != nil {
		f.Fatal(err)
	}
	return wal, snap
}

func FuzzReplayWAL(f *testing.F) {
	wal, _ := durableFiles(f)
	_, end := walRecords(f, wal)
	// The records, then some of their zeroed room; the records alone; a
	// torn tail, cut short and zeroed in the room. The seeds stay short:
	// a whole block of room only slows the minimizer.
	roomy := wal[:end+64]
	torn := bytes.Clone(roomy)
	clear(torn[end-3:])
	// Records run on until a whole frame starts past the second 512-byte
	// sector, which is zeroed: a torn write with whole frames after the
	// tear.
	sector := wal[:end:end]
	for i, last := uint64(8), end; last < 2*walSector; i++ {
		e := wire.MetaEntry{Index: i, Term: 3, Rec: createRec(fmt.Sprintf("fz-%d", i-1), i-1, 0, 1, testIODs())}
		last = len(sector)
		sector = frameRecord(sector, &record{kind: recLog, from: i, entries: []wire.MetaEntry{e}})
	}
	clear(sector[walSector : 2*walSector])
	if good, err := replayWAL(sector, &recovered{}); err != nil || good > walSector {
		f.Fatalf("the zeroed-sector seed replays %d bytes (%v), want a tear at the second sector", good, err)
	}
	for _, seed := range [][]byte{roomy, wal[:end], wal[:end-3], torn, sector} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec := &recovered{hard: wire.MetaHardState{VotedFor: -1}}
		good, err := replayWAL(b, rec)
		if good < 0 || good > len(b) {
			t.Fatalf("good prefix %d of a %d-byte WAL", good, len(b))
		}
		if err == nil && len(b) > 0 && !bytes.HasPrefix(b, walMagic) {
			t.Fatal("accepted a WAL without its magic")
		}
		// Refused or not, what replay took is the prefix: replayed
		// alone it is whole and clean, and it yields the same state.
		pre := &recovered{hard: wire.MetaHardState{VotedFor: -1}}
		pgood, err := replayWAL(b[:good], pre)
		if err != nil || pgood != good {
			t.Fatalf("the %d-byte prefix replays to %d bytes (err %v), want %d and no error", good, pgood, err, good)
		}
		if pre.hard != rec.hard || !reflect.DeepEqual(pre.entries, rec.entries) {
			t.Fatal("replay applied something past its good prefix")
		}
	})
}

func FuzzMetaSnapshot(f *testing.F) {
	_, snap := durableFiles(f)
	f.Add(snap)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeSnap(b)
		if err != nil {
			return // refused
		}
		p := b[len(snapMagic):]
		if crc32.Checksum(p[4:], castagnoli) != binary.LittleEndian.Uint32(p) {
			t.Fatal("accepted a snapshot whose checksum does not verify")
		}
		// What was accepted is a snapshot: it survives its own framing.
		enc := encodeSnap(s)
		s2, err := decodeSnap(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot: %v", err)
		}
		if !bytes.Equal(encodeSnap(s2), enc) {
			t.Fatal("re-encoded snapshot does not round-trip")
		}
	})
}
