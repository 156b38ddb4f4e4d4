package meta

// The WAL's zeroed room: records are written in place into zeros an
// earlier write left behind, so recovery must tell the room and a torn
// write into it from damage. A tear keeps exactly the whole records
// before it, wherever it falls and whatever survives after it in the
// same write; a bit flip with whole records after it is still damage;
// and the file grows only when the room runs out.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pvfs/internal/wire"
)

// walWithLastWrite persists writeThree's records (a hard state at term
// 4, entries 1–3), then one core output of a hard state at term 9 and
// logs single-entry log records at term 9, in one write. It returns the
// WAL's bytes, the offsets of that last write's records and where they
// end.
func walWithLastWrite(t *testing.T, logs int) (b []byte, last []int, end int) {
	t.Helper()
	dir := t.TempDir()
	writeThree(t, dir)
	st, _, err := openStable(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []record{{kind: recHard, hard: wire.MetaHardState{Term: 9, VotedFor: 2}}}
	for i := uint64(4); i < 4+uint64(logs); i++ {
		e := wire.MetaEntry{Index: i, Term: 9, Rec: createRec(fmt.Sprintf("last-%d", i), i-1, 0, 1, testIODs())}
		recs = append(recs, record{kind: recLog, from: i, entries: []wire.MetaEntry{e}})
	}
	before := st.syncs.Load()
	if done, err := st.write(recs); done != len(recs) || err != nil {
		t.Fatalf("last write: %d records, %v", done, err)
	}
	if got := st.syncs.Load() - before; got != 1 {
		t.Fatalf("last write cost %d syncs, want 1", got)
	}
	st.close()
	if b, err = os.ReadFile(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	offs, end := walRecords(t, b)
	return b, offs[len(offs)-len(recs):], end
}

// survivors counts the leading records of the last write, which ends
// at end, that mod still holds as they were in orig: the whole records
// before a tear.
func survivors(orig, mod []byte, last []int, end int) int {
	k := 0
	for i, off := range last {
		next := end
		if i+1 < len(last) {
			next = last[i+1]
		}
		if !bytes.Equal(orig[off:next], mod[off:next]) {
			break
		}
		k++
	}
	return k
}

// reopenAfterTear opens a WAL whose last write kept k whole records and
// checks the recovered state; then it appends one record, reopens, and
// checks that the new record follows the prefix.
func reopenAfterTear(t *testing.T, b []byte, k int) {
	t.Helper()
	dir := dirWith(t, b)
	st, rec, err := openStable(dir)
	if err != nil {
		t.Fatalf("open over a torn write keeping %d records: %v", k, err)
	}
	wantTerm, wantEntries := uint64(4), 3
	if k > 0 {
		wantTerm, wantEntries = 9, 3+k-1
	}
	if rec.hard.Term != wantTerm || len(rec.entries) != wantEntries {
		st.close()
		t.Fatalf("recovered term %d with %d entries, want term %d with %d", rec.hard.Term, len(rec.entries), wantTerm, wantEntries)
	}
	idx := uint64(wantEntries + 1)
	e := wire.MetaEntry{Index: idx, Term: 10, Rec: createRec("after-tear", idx-1, 0, 1, testIODs())}
	err = st.appendLog(idx, []wire.MetaEntry{e})
	st.close()
	if err != nil {
		t.Fatal(err)
	}
	st, rec, err = openStable(dir)
	if err != nil {
		t.Fatalf("reopen after appending past a tear: %v", err)
	}
	st.close()
	if rec.hard.Term != wantTerm || len(rec.entries) != wantEntries+1 || rec.entries[wantEntries].Term != 10 {
		t.Fatalf("after the append: term %d, %d entries, want term %d and the new entry at %d", rec.hard.Term, len(rec.entries), wantTerm, idx)
	}
}

// TestStableZeroedTearKeepsWholeRecords tears the last write the way a
// crash inside the room does: every byte from the tear to the end of
// the file reads as zeros, and the file keeps its length.
func TestStableZeroedTearKeepsWholeRecords(t *testing.T) {
	b, last, end := walWithLastWrite(t, 2)
	if end >= len(b) {
		t.Fatalf("the last write ends at %d, the file at %d: no room after it", end, len(b))
	}
	for x := last[0]; x < end; x++ {
		mod := bytes.Clone(b)
		clear(mod[x:])
		k := survivors(b, mod, last, end)
		if k == len(last) {
			continue // only zeros were zeroed: nothing tore
		}
		t.Run(fmt.Sprintf("at%d", x), func(t *testing.T) { reopenAfterTear(t, mod, k) })
	}
}

// TestStableZeroSectorTornWrite zeroes one 512-byte sector inside a
// multi-record last write while later frames of that write survive
// whole: replay stops at the first frame the sector touches, drops the
// intact frames after it, and reports no damage. A bit flip at the
// same frames is damage.
func TestStableZeroSectorTornWrite(t *testing.T) {
	b, last, end := walWithLastWrite(t, 14)
	lastOff := last[len(last)-1]
	tears := 0
	for sec := (last[0] + walSector - 1) &^ (walSector - 1); sec+walSector <= lastOff; sec += walSector {
		mod := bytes.Clone(b)
		clear(mod[sec : sec+walSector])
		k := survivors(b, mod, last, end)
		t.Run(fmt.Sprintf("sector%d", sec), func(t *testing.T) { reopenAfterTear(t, mod, k) })
		tears++
	}
	// The write's first sector is shared with the records before it:
	// torn, it keeps their bytes and zeros from the write's start on.
	first := bytes.Clone(b)
	clear(first[last[0] : (last[0]+walSector)&^(walSector-1)])
	t.Run("first sector", func(t *testing.T) { reopenAfterTear(t, first, 0) })
	if tears < 2 {
		t.Fatalf("only %d whole sectors inside the last write", tears)
	}

	for i, off := range last[:len(last)-1] {
		mod := bytes.Clone(b)
		mod[off+walHeader+1] ^= 0x10
		if _, _, err := openStable(dirWith(t, mod)); !errors.Is(err, errCorruptState) {
			t.Fatalf("bit flip in record %d of the last write, whole records after it: %v, want errCorruptState", i, err)
		}
	}
}

// dirWith returns a fresh state dir whose WAL holds b.
func dirWith(t *testing.T, b []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestWALGrowsOnlyWhenRoomRunsOut runs 200 sequential proposals on a
// durable solo node. Each costs one sync. The WAL's size changes only
// on a write that does not fit the room, and that write ends the file
// on a block boundary with room as large as the file, up to
// walMaxRoom, after its records.
func TestWALGrowsOnlyWhenRoomRunsOut(t *testing.T) {
	dir := t.TempDir()
	n := soloDirNode(t, NodeOptions{Dir: dir})
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	state := func() (off, size int64) {
		n.walMu.Lock()
		defer n.walMu.Unlock()
		return n.stable.off, n.stable.size
	}
	off, size := state()
	if size != walBlock || walSize() != walBlock {
		t.Fatalf("a fresh WAL is %d bytes (%d on disk), want one %d-byte block", size, walSize(), walBlock)
	}
	growths := 0
	for i := 0; i < 200; i++ {
		syncs := n.Stats().MetaWALSyncs
		rec := createRec(fmt.Sprintf("steady-%d", i), uint64(i), 0, 1, testIODs())
		if st, _, _, _, err := n.Propose(context.Background(), rec); err != nil || st != wire.StatusOK {
			t.Fatalf("propose %d: %v %v", i, st, err)
		}
		if got := n.Stats().MetaWALSyncs - syncs; got != 1 {
			t.Fatalf("propose %d cost %d syncs, want 1", i, got)
		}
		noff, nsize := state()
		if disk := walSize(); disk != nsize {
			t.Fatalf("propose %d: the WAL is %d bytes on disk, %d tracked", i, disk, nsize)
		}
		if nsize != size {
			growths++
			if noff <= size {
				t.Fatalf("propose %d grew the WAL %d → %d although its records ended at %d", i, size, nsize, noff)
			}
			if nsize%walBlock != 0 || nsize < noff+min(size, walMaxRoom) || nsize > noff+walMaxRoom+walBlock {
				t.Fatalf("propose %d grew the WAL %d → %d with its records ending at %d", i, size, nsize, noff)
			}
		}
		off, size = noff, nsize
	}
	if growths == 0 || growths > 6 {
		t.Fatalf("200 proposals grew the WAL %d times (to %d bytes, records to %d)", growths, size, off)
	}
}
