package meta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"pvfs/internal/wire"
)

// stable is a replica's durable Raft state (DESIGN.md §13): the hard
// state (term, vote), the log suffix, and the last snapshot. Raft's
// safety argument assumes all three survive a crash — a replica that
// restarts amnesiac can double-vote in a term or grant its vote to a
// candidate missing entries the pre-crash replica helped commit,
// which loses acked mutations. Layout under dir:
//
//	snap — snapMagic, u32 CRC32C of the payload, then a marshaled
//	       wire.MetaSnapshot; replaced by atomic rename
//	wal  — walMagic, then framed records replayed over the snapshot at
//	       recovery: u32 kind, u32 length, u32 CRC32C of the payload,
//	       u32 CRC32C of the first twelve header bytes, then the
//	       payload (MetaHardState or MetaLogRec); then zeros, the room
//	       the next records are written into
//
// Every append is synced before the caller answers a vote, acks an
// append, or acks a proposal; the consecutive hard-state and log
// records of one core output leave in one write and one fsync. A write
// lands at off, in place, inside room an earlier write already zeroed
// and synced, so its fsync has no new size or extent to commit. Only a
// write that does not fit extends the file: it carries its records
// plus zeros to a walBlock boundary, the room doubling with the file
// up to walMaxRoom.
//
// Recovery stops at the first record that fails its checksums. It is
// a torn write (a crash mid-append, whose records no reply leaned on)
// when only zeros follow it or its bytes in some 512-byte sector read
// as zeros; the records after it, if any, belong to the same
// unacknowledged write, since any later acknowledged sync would have
// made that write whole. Any other bad record, or a damaged snapshot,
// is not a crash artefact: openStable refuses the state with
// errCorruptState rather than silently dropping what follows. So does
// a file without its magic.
type stable struct {
	dir  string
	wal  *os.File
	off  int64 // where the next record goes: the end of the last whole one
	size int64 // the WAL's length; off..size is zeroed, synced room

	snapMu  sync.Mutex    // serializes snap-file writers (background compactor vs install)
	snapIdx atomic.Uint64 // LastIndex of the newest snap on disk; never moves backward

	syncs    atomic.Int64 // WAL and snapshot syncs issued (group commit's denominator)
	failSync atomic.Bool  // test hook: fail the next syncs (disk death)
	dead     atomic.Bool  // sticky failure: a failed write/sync may have
	// dropped dirty pages, so no later "successful" sync can be trusted
	// to cover the gap (the node is wounded and must be restarted).
}

const (
	walHard = uint32(1)
	walLog  = uint32(2)

	walHeader = 16 // kind, length, payload CRC, header CRC

	walBlock   = 4 << 10  // an extending write ends on a multiple of this
	walMaxRoom = 64 << 10 // the most room one extending write adds
	walSector  = 512      // the unit a torn write leaves unwritten
)

var (
	walMagic   = []byte("PVFSWAL\x01")
	snapMagic  = []byte("PVFSSNP\x01")
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// errCorruptState reports stable state that is damaged rather than
// torn: a bad WAL record with records after it, or a bad snapshot.
// The replica cannot trust it to hold its votes and acks; NewNode sets
// it aside and resyncs from the leader (quarantineStable).
var errCorruptState = errors.New("meta: corrupt stable state")

// recovered is the state loaded from a stable dir at startup.
type recovered struct {
	hard    wire.MetaHardState
	snap    *wire.MetaSnapshot
	entries []wire.MetaEntry // contiguous log suffix above the snapshot
	// term is the highest term the snapshot or any intact WAL record
	// shows, records past a damaged one included: a lower bound on
	// the terms this replica may have voted in.
	term uint64
}

// openStable opens (creating if needed) a replica's state dir and
// loads whatever a previous incarnation persisted. On errCorruptState
// the returned recovered holds what could still be read before the
// damage.
func openStable(dir string) (*stable, *recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec := &recovered{hard: wire.MetaHardState{VotedFor: -1}}
	var corrupt error
	if b, err := os.ReadFile(filepath.Join(dir, "snap")); err == nil {
		if snap, derr := decodeSnap(b); derr != nil {
			corrupt = fmt.Errorf("%w: snapshot in %s: %v", errCorruptState, dir, derr)
		} else {
			rec.snap = snap
			rec.term = snap.LastTerm
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	walPath := filepath.Join(dir, "wal")
	rewriteWAL := true // a missing WAL is created with its magic
	var good, size int
	if b, err := os.ReadFile(walPath); err == nil {
		var rerr error
		good, rerr = replayWAL(b, rec)
		if rerr != nil && corrupt == nil {
			corrupt = fmt.Errorf("%w: WAL in %s: %v", errCorruptState, dir, rerr)
		}
		// Zeros after the records are room to write in place. A torn
		// write is cut off on disk, or the next append would land
		// beside its bytes and turn them into a damaged middle record;
		// an empty WAL gets its magic.
		size = len(b)
		rewriteWAL = len(b) == 0 || !allZero(b[good:])
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	if corrupt != nil {
		return nil, rec, corrupt
	}
	// Keep only the contiguous suffix directly above the snapshot: a
	// crash between snapshot rename and WAL reset leaves records the
	// snapshot already covers.
	base := uint64(0)
	if rec.snap != nil {
		base = rec.snap.LastIndex
	}
	keep := rec.entries[:0]
	next := base + 1
	for i := range rec.entries {
		if rec.entries[i].Index <= base {
			continue
		}
		if rec.entries[i].Index != next {
			break
		}
		keep = append(keep, rec.entries[i])
		next++
	}
	rec.entries = keep
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	s := &stable{dir: dir, wal: f, off: int64(good), size: int64(size)}
	s.snapIdx.Store(base)
	if rewriteWAL {
		if err := s.resetWAL(rec.entries, rec.hard); err != nil {
			s.close()
			return nil, nil, err
		}
	}
	return s, rec, nil
}

// openReplica opens a replica's state dir. A replica in a group of
// several sets damaged state aside and starts empty, to resync from the
// leader (damage reports it); a solo replica has no leader to resync
// from, so damage refuses its start.
func openReplica(dir string, group bool) (st *stable, rec *recovered, damage, err error) {
	st, rec, err = openStable(dir)
	if errors.Is(err, errCorruptState) && group {
		damage = err
		st, rec, err = quarantineStable(dir, rec)
	}
	return st, rec, damage, err
}

// quarantineStable sets damaged state aside as snap.corrupt and
// wal.corrupt and opens the dir afresh. The fresh hard state carries
// the highest term the damaged state still showed and no vote, so the
// replica refuses appends from any leader older than its lost state;
// the log is empty, for the leader to refill.
func quarantineStable(dir string, damaged *recovered) (*stable, *recovered, error) {
	for _, name := range []string{"snap", "wal"} {
		p := filepath.Join(dir, name)
		if err := os.Rename(p, p+".corrupt"); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
	}
	if err := syncDir(dir); err != nil {
		return nil, nil, err
	}
	st, rec, err := openStable(dir)
	if err != nil {
		return nil, nil, err
	}
	rec.hard = wire.MetaHardState{Term: damaged.term, VotedFor: -1}
	if err := st.saveHard(rec.hard); err != nil {
		st.close()
		return nil, nil, err
	}
	return st, rec, nil
}

// replayWAL folds the record stream into rec. It returns the length
// of the prefix made of whole, intact records; replay ends cleanly
// where the rest is zeros (the room) or at a torn write (see stable).
// A non-empty stream without the magic, or a damaged record that is
// not torn, ends replay with an error: the records after the damage
// cannot be trusted to be contiguous with the ones before.
func replayWAL(b []byte, rec *recovered) (good int, err error) {
	if len(b) == 0 {
		return 0, nil // created, crashed before its first reset: nothing promised
	}
	if !bytes.HasPrefix(b, walMagic) {
		rec.term = max(rec.term, scanTerms(b))
		return 0, errors.New("no WAL magic")
	}
	off := len(walMagic)
	var entries []wire.MetaEntry
	defer func() { rec.entries = entries }()
	for len(b)-off >= walHeader {
		h := b[off : off+walHeader]
		kind := binary.LittleEndian.Uint32(h)
		n := binary.LittleEndian.Uint32(h[4:])
		if crc32.Checksum(h[:12], castagnoli) != binary.LittleEndian.Uint32(h[12:]) {
			// The room, or a header torn by a crash; anything else
			// means the length cannot be trusted to find the records
			// after it.
			if torn(b, off, off+walHeader) {
				break
			}
			rec.term = max(rec.term, scanTerms(b[off+1:]))
			return off, fmt.Errorf("bad record header at offset %d", off)
		}
		if uint64(len(b)-off-walHeader) < uint64(n) {
			break // torn tail: the record never fully reached disk
		}
		end := off + walHeader + int(n)
		payload := b[off+walHeader : end]
		ok := crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(h[8:])
		var hs wire.MetaHardState
		var lr wire.MetaLogRec
		switch {
		case !ok:
		case kind == walHard:
			ok = hs.Unmarshal(payload) == nil
		case kind == walLog:
			ok = lr.Unmarshal(payload) == nil
		default:
			ok = false
		}
		if !ok {
			if torn(b, off, end) {
				break
			}
			rec.term = max(rec.term, scanTerms(b[off+1:]))
			return off, fmt.Errorf("bad record at offset %d", off)
		}
		if kind == walHard {
			rec.hard = hs
		} else {
			for len(entries) > 0 && entries[len(entries)-1].Index >= lr.From {
				entries = entries[:len(entries)-1]
			}
			entries = append(entries, lr.Entries...)
		}
		rec.term = max(rec.term, recordTerm(kind, &hs, &lr))
		off = end
	}
	return off, nil
}

// torn reports whether the bad record at b[off:end] is what a crash
// leaves of a write into zeroed room: only zeros follow it, or in some
// 512-byte sector it overlaps, every byte from the record's start or
// the sector's, whichever is later, to the sector's end is zero — a
// sector of the write that never reached disk.
func torn(b []byte, off, end int) bool {
	if allZero(b[end:]) {
		return true
	}
	for sec := off &^ (walSector - 1); sec < end; sec += walSector {
		if allZero(b[max(sec, off):min(sec+walSector, len(b))]) {
			return true
		}
	}
	return false
}

// recordTerm is the highest term one decoded WAL record shows.
func recordTerm(kind uint32, hs *wire.MetaHardState, lr *wire.MetaLogRec) uint64 {
	if kind == walHard {
		return hs.Term
	}
	var t uint64
	for i := range lr.Entries {
		t = max(t, lr.Entries[i].Term)
	}
	return t
}

// scanTerms searches b, byte by byte, for records whose header and
// payload checksums both verify, and returns the highest term they
// show. It reads past damage that hides where the next record starts;
// only the term bound trusts it, never the log.
func scanTerms(b []byte) uint64 {
	var term uint64
	for off := 0; off+walHeader <= len(b); off++ {
		h := b[off : off+walHeader]
		if crc32.Checksum(h[:12], castagnoli) != binary.LittleEndian.Uint32(h[12:]) {
			continue
		}
		n := binary.LittleEndian.Uint32(h[4:])
		if uint64(len(b)-off-walHeader) < uint64(n) {
			continue
		}
		payload := b[off+walHeader : off+walHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(h[8:]) {
			continue
		}
		var hs wire.MetaHardState
		var lr wire.MetaLogRec
		kind := binary.LittleEndian.Uint32(h)
		if (kind == walHard && hs.Unmarshal(payload) == nil) || (kind == walLog && lr.Unmarshal(payload) == nil) {
			term = max(term, recordTerm(kind, &hs, &lr))
		}
		off += walHeader + int(n) - 1
	}
	return term
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// encodeSnap frames a snapshot for the snap file.
func encodeSnap(snap *wire.MetaSnapshot) []byte {
	payload := snap.Marshal()
	b := make([]byte, len(snapMagic)+4, len(snapMagic)+4+len(payload))
	copy(b, snapMagic)
	binary.LittleEndian.PutUint32(b[len(snapMagic):], crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// decodeSnap reads a snap file.
func decodeSnap(b []byte) (*wire.MetaSnapshot, error) {
	if !bytes.HasPrefix(b, snapMagic) {
		return nil, errors.New("no snapshot magic")
	}
	b = b[len(snapMagic):]
	if len(b) < 4 || crc32.Checksum(b[4:], castagnoli) != binary.LittleEndian.Uint32(b) {
		return nil, errors.New("checksum mismatch")
	}
	snap := new(wire.MetaSnapshot)
	if err := snap.Unmarshal(b[4:]); err != nil {
		return nil, err
	}
	return snap, nil
}

// errSyncFault is the injected WAL failure (failSync test hook).
var errSyncFault = errors.New("meta: injected WAL sync failure")

// frame appends one framed WAL record to buf.
func frame(buf []byte, kind uint32, payload []byte) []byte {
	buf = slices.Grow(buf, walHeader+len(payload))
	h := buf[len(buf) : len(buf)+walHeader]
	binary.LittleEndian.PutUint32(h, kind)
	binary.LittleEndian.PutUint32(h[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[8:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(h[12:], crc32.Checksum(h[:12], castagnoli))
	return append(buf[:len(buf)+walHeader], payload...)
}

// frameRecord appends a hard-state or log record's WAL frame to buf.
func frameRecord(buf []byte, r *record) []byte {
	if r.kind == recHard {
		return frame(buf, walHard, r.hard.Marshal())
	}
	lr := wire.MetaLogRec{From: r.from, Entries: r.entries}
	return frame(buf, walLog, lr.Marshal())
}

// appendFrames writes framed records to the WAL at off in one write
// and fsyncs them once. A write that does not fit the room carries
// zeros past its records, to a walBlock boundary and up to walMaxRoom
// beyond them. A crash mid-write leaves a torn write, which recovery
// cuts at the last whole record.
func (s *stable) appendFrames(buf []byte) error {
	if s.dead.Load() {
		return errSyncFault
	}
	if s.failSync.Load() {
		s.dead.Store(true)
		return errSyncFault
	}
	end := s.off + int64(len(buf))
	if end > s.size {
		size := (end + min(s.size, walMaxRoom) + walBlock - 1) &^ (walBlock - 1)
		buf = append(buf, make([]byte, size-end)...)
		s.size = size
	}
	if _, err := s.wal.WriteAt(buf, s.off); err != nil {
		s.dead.Store(true)
		return err
	}
	s.syncs.Add(1)
	if err := s.wal.Sync(); err != nil {
		s.dead.Store(true)
		return err
	}
	s.off = end
	return nil
}

// write makes the core's records durable in order; it returns how many
// were written and the error that stopped it, which is sticky. A run of
// consecutive hard-state and log records is one WAL write and one
// fsync, written whole or not at all: a failed run counts none of its
// records as written.
func (s *stable) write(recs []record) (int, error) {
	for i := 0; i < len(recs); {
		var err error
		next := i + 1
		switch r := &recs[i]; r.kind {
		case recInstall:
			err = s.saveSnapshot(r.snap, r.entries, r.hard)
		case recReset:
			err = s.resetWAL(r.entries, r.hard)
		default:
			buf := frameRecord(nil, r)
			for ; next < len(recs) && (recs[next].kind == recHard || recs[next].kind == recLog); next++ {
				buf = frameRecord(buf, &recs[next])
			}
			err = s.appendFrames(buf)
		}
		if err != nil {
			s.dead.Store(true) // the replica is wounded: no later write counts
			return i, err
		}
		i = next
	}
	return len(recs), nil
}

// saveHard durably records the term and vote.
func (s *stable) saveHard(h wire.MetaHardState) error {
	return s.appendFrames(frame(nil, walHard, h.Marshal()))
}

// saveSnapshot replaces the durable snapshot and resets the WAL to
// the surviving suffix (hard state + the log tail above the
// snapshot). Ordering is crash-safe: the snapshot lands first, and a
// crash before the WAL reset only leaves stale records that recovery
// filters against the snapshot's LastIndex.
func (s *stable) saveSnapshot(snap *wire.MetaSnapshot, tail []wire.MetaEntry, hard wire.MetaHardState) error {
	if err := s.writeSnap(snap); err != nil {
		return err
	}
	return s.resetWAL(tail, hard)
}

// writeSnap durably writes the snapshot file alone — the expensive
// half of a compaction (O(namespace) marshal + write + fsync). The
// WAL is untouched, so callers need no WAL lock: recovery already
// filters stale WAL records against the snapshot's LastIndex, which
// is exactly the state a crash between the two halves leaves behind.
// A writer that lost the race to a newer snapshot (a concurrent
// install advanced the base while a background compaction marshaled)
// skips the write — the snap file's index never moves backward, or
// recovery would see a gap between its snapshot and the WAL tail.
func (s *stable) writeSnap(snap *wire.MetaSnapshot) error {
	if s.dead.Load() {
		return errSyncFault
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if snap.LastIndex <= s.snapIdx.Load() {
		return nil
	}
	if err := writeFileSync(filepath.Join(s.dir, "snap"), encodeSnap(snap)); err != nil {
		s.dead.Store(true)
		return err
	}
	s.syncs.Add(1)
	s.snapIdx.Store(snap.LastIndex)
	return nil
}

// resetWAL replaces the WAL with the hard state plus the log tail
// above the durable snapshot — the cheap half of a compaction (the
// tail is bounded by the compaction threshold). Callers serialize
// against other WAL writers (the node's walMu).
func (s *stable) resetWAL(tail []wire.MetaEntry, hard wire.MetaHardState) error {
	if s.dead.Load() {
		return errSyncFault
	}
	walPath := filepath.Join(s.dir, "wal")
	tmp := walPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fresh := &stable{dir: s.dir, wal: f}
	fresh.failSync.Store(s.failSync.Load())
	// The magic, the hard state and the tail leave in one write and one
	// sync: the file is renamed into place only once they are durable.
	buf := frame(bytes.Clone(walMagic), walHard, hard.Marshal())
	if len(tail) > 0 {
		buf = frameRecord(buf, &record{kind: recLog, from: tail[0].Index, entries: tail})
	}
	err = fresh.appendFrames(buf)
	if err == nil {
		err = os.Rename(tmp, walPath)
	}
	if err == nil {
		// The rename must be durable before the caller relies on it: a
		// crash could otherwise bring back the old WAL beside a newer
		// snapshot, or the new WAL beside an older one.
		err = syncDir(s.dir)
	}
	if err != nil {
		f.Close()
		return err
	}
	s.syncs.Add(fresh.syncs.Load())
	s.wal.Close()
	s.wal, s.off, s.size = f, fresh.off, fresh.size
	return nil
}

func (s *stable) close() {
	if s.wal != nil {
		s.wal.Close()
	}
}

// writeFileSync writes b to path via fsynced temp file + rename, and
// fsyncs the directory so the rename itself survives a crash.
func writeFileSync(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making renames and creations in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
