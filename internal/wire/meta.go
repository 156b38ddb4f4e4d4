package wire

import (
	"fmt"
	"hash/fnv"
)

// This file defines the metadata-plane bodies (DESIGN.md §13): the
// epoch-stamped shard map that routes namespace operations, the
// envelope clients stamp onto manager-grammar requests, and the
// replication protocol spoken inside the master replica group
// (vote / append / propose / fetch).

// maxMetaList caps list lengths a meta decoder will allocate from
// untrusted bytes (addresses, log entries, snapshot files).
const maxMetaList = 1 << 20

// ShardMap is the routing truth for the metadata plane, owned and
// replicated by the master group. Epoch increases on every
// configuration change; every shard response is checked against the
// client's stamped epoch and a mismatch earns StatusWrongEpoch plus
// the current map. Epoch 0 means "no map" and is never served as
// truth.
type ShardMap struct {
	Epoch   uint64
	Masters []string // master replica addresses, ID order
	Shards  []string // metadata shard addresses, partition order
	IODs    []string // I/O daemon addresses, placement order
}

func marshalAddrs(e *encoder, addrs []string) {
	e.u32(uint32(len(addrs)))
	for _, a := range addrs {
		e.str(a)
	}
}

func unmarshalAddrs(d *decoder) []string {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxMetaList {
		d.err = fmt.Errorf("wire: absurd address count %d", n)
		return nil
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = d.str()
	}
	return addrs
}

func (m *ShardMap) Marshal() []byte {
	e := encoder{}
	e.u64(m.Epoch)
	marshalAddrs(&e, m.Masters)
	marshalAddrs(&e, m.Shards)
	marshalAddrs(&e, m.IODs)
	return e.buf
}

func (m *ShardMap) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Epoch = d.u64()
	m.Masters = unmarshalAddrs(&d)
	m.Shards = unmarshalAddrs(&d)
	m.IODs = unmarshalAddrs(&d)
	return d.err
}

// Clone returns a deep copy (the map is shared read-only once
// published; mutators copy first).
func (m *ShardMap) Clone() *ShardMap {
	c := &ShardMap{Epoch: m.Epoch}
	c.Masters = append([]string(nil), m.Masters...)
	c.Shards = append([]string(nil), m.Shards...)
	c.IODs = append([]string(nil), m.IODs...)
	return c
}

// ShardForName returns the partition index owning a file name:
// FNV-1a over the name, modulo shard count. Placement depends only on
// the name and the shard count, so every client and shard holding the
// same map agrees.
func (m *ShardMap) ShardForName(name string) int {
	if len(m.Shards) <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(m.Shards)))
}

// ShardForHandle returns the partition index owning a handle. Handles
// encode their shard: shard s issues handles s+1, s+1+n, s+1+2n, ...
// for n shards (see MetaHandle), so ownership is recoverable from the
// handle alone — fsck and by-handle operations need no name.
func (m *ShardMap) ShardForHandle(h uint64) int {
	if len(m.Shards) <= 1 || h == 0 {
		return 0
	}
	return int((h - 1) % uint64(len(m.Shards)))
}

// MetaHandle builds the handle for a shard's seq-th file under an
// n-shard map: seq*n + shard + 1. Handle 0 stays invalid, shard
// streams never collide, and the single-shard case degenerates to the
// classic manager's 1, 2, 3, ...
func MetaHandle(seq uint64, shard, nshards int) uint64 {
	return seq*uint64(nshards) + uint64(shard) + 1
}

// MetaHandleSeq recovers the per-shard sequence number from a handle.
func MetaHandleSeq(h uint64, nshards int) uint64 {
	if h == 0 {
		return 0
	}
	return (h - 1) / uint64(nshards)
}

// MetaEnvelope wraps a manager-grammar request (create/open/stat/
// remove/listdir/setsize) with the client's shard-map epoch. A shard
// receiving an envelope whose epoch differs from its own, or for a name
// or handle it does not own, answers StatusWrongEpoch with its current
// map, and the client re-routes.
type MetaEnvelope struct {
	Epoch uint64
	Hops  uint32 // reserved, always 0: shards do not forward
	Inner MsgType
	Body  []byte // inner request body; aliases the frame on decode
}

func (m *MetaEnvelope) Marshal() []byte {
	e := sized(8 + 4 + 4 + len(m.Body))
	e.u64(m.Epoch)
	e.u32(m.Hops)
	e.u32(uint32(m.Inner))
	e.bytes(m.Body)
	return e.buf
}

func (m *MetaEnvelope) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Epoch = d.u64()
	m.Hops = d.u32()
	m.Inner = d.msgType()
	m.Body = d.rest()
	return d.err
}

// MetaRecord is one replicated metadata mutation: which shard stream
// it belongs to, a shard-local sequence number (diagnostic ordering),
// the operation (TCreate, TRemove, TSetSize, or TShardMap for a
// configuration change), and the op-specific body. Create records
// carry a MetaCreateRec with the handle and placement already
// resolved by the owning shard, so applying a record is deterministic
// pure state transition on every replica.
type MetaRecord struct {
	Shard uint32
	Seq   uint64
	Op    MsgType
	Body  []byte
}

func (m *MetaRecord) marshalTo(e *encoder) {
	e.u32(m.Shard)
	e.u64(m.Seq)
	e.u32(uint32(m.Op))
	e.u32(uint32(len(m.Body)))
	e.bytes(m.Body)
}

func (m *MetaRecord) unmarshalFrom(d *decoder) {
	m.Shard = d.u32()
	m.Seq = d.u64()
	m.Op = d.msgType()
	n := d.u32()
	if d.err != nil {
		return
	}
	if uint32(len(d.buf)) < n {
		d.err = ErrShortBody
		return
	}
	// Copy: records outlive the frame (they live in the replicated log).
	m.Body = append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
}

func (m *MetaRecord) Marshal() []byte {
	e := encoder{}
	m.marshalTo(&e)
	return e.buf
}

// Unmarshal decodes exactly one record: bytes past it are an error.
func (m *MetaRecord) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.unmarshalFrom(&d)
	if d.err == nil && len(d.buf) > 0 {
		return fmt.Errorf("wire: %d bytes past a meta record", len(d.buf))
	}
	return d.err
}

// MetaCreateRec is the replicated body of a create: the name plus the
// fully resolved FileInfo (handle, striping, placement) chosen by the
// owning shard before proposing.
type MetaCreateRec struct {
	Name string
	Info FileInfo
}

func (m *MetaCreateRec) Marshal() []byte {
	e := encoder{}
	e.str(m.Name)
	e.bytes(m.Info.Marshal())
	return e.buf
}

func (m *MetaCreateRec) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Name = d.str()
	if d.err != nil {
		return d.err
	}
	return m.Info.Unmarshal(d.rest())
}

// MetaEntry is one slot of the replicated log.
type MetaEntry struct {
	Index uint64
	Term  uint64
	Rec   MetaRecord
}

func marshalEntries(e *encoder, entries []MetaEntry) {
	e.u32(uint32(len(entries)))
	for i := range entries {
		e.u64(entries[i].Index)
		e.u64(entries[i].Term)
		entries[i].Rec.marshalTo(e)
	}
}

func unmarshalEntries(d *decoder) []MetaEntry {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxMetaList {
		d.err = fmt.Errorf("wire: absurd log entry count %d", n)
		return nil
	}
	entries := make([]MetaEntry, n)
	for i := range entries {
		entries[i].Index = d.u64()
		entries[i].Term = d.u64()
		entries[i].Rec.unmarshalFrom(d)
	}
	return entries
}

// MetaHardState is the replica state that must reach disk before a
// vote or append is answered: the current term and the vote cast in
// it. A replica that restarts without it could vote twice in one term
// (two leaders) or re-grant with an amnesiac empty log (electing a
// leader missing majority-acked entries).
type MetaHardState struct {
	Term     uint64
	VotedFor int32 // replica ID, or -1 when no vote cast in Term
}

func (m *MetaHardState) Marshal() []byte {
	e := encoder{}
	e.u64(m.Term)
	e.u32(uint32(m.VotedFor))
	return e.buf
}

func (m *MetaHardState) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Term = d.u64()
	m.VotedFor = int32(d.u32())
	return d.err
}

// MetaLogRec is one persisted log mutation in a replica's write-ahead
// file: drop every entry at index >= From, then append Entries (which
// start at From). Replaying the record stream reconstructs the log
// suffix above the last durable snapshot.
type MetaLogRec struct {
	From    uint64
	Entries []MetaEntry
}

func (m *MetaLogRec) Marshal() []byte {
	e := encoder{}
	e.u64(m.From)
	marshalEntries(&e, m.Entries)
	return e.buf
}

func (m *MetaLogRec) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.From = d.u64()
	m.Entries = unmarshalEntries(&d)
	return d.err
}

// MetaVoteReq asks a master replica for its vote in term Term. The
// candidate's log position gates the grant: a replica refuses any
// candidate whose log is less up to date than its own, which is what
// makes majority-acked entries survive leader failure. Pre asks for a
// pre-vote: whether the replica would grant that vote, with nothing
// changed or written on either side (DESIGN.md §13, "Pre-vote").
type MetaVoteReq struct {
	Term      uint64
	Candidate uint32 // candidate's replica ID
	LastIndex uint64 // candidate's last log index
	LastTerm  uint64 // term of that entry
	Pre       bool
}

func (m *MetaVoteReq) Marshal() []byte {
	e := encoder{}
	e.u64(m.Term)
	e.u32(m.Candidate)
	e.u64(m.LastIndex)
	e.u64(m.LastTerm)
	e.flag(m.Pre)
	return e.buf
}

func (m *MetaVoteReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Term = d.u64()
	m.Candidate = d.u32()
	m.LastIndex = d.u64()
	m.LastTerm = d.u64()
	m.Pre = d.u32() != 0
	return d.err
}

// MetaVoteResp answers a vote request.
type MetaVoteResp struct {
	Term    uint64
	Granted bool
}

func (m *MetaVoteResp) Marshal() []byte {
	e := encoder{}
	e.u64(m.Term)
	e.flag(m.Granted)
	return e.buf
}

func (m *MetaVoteResp) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Term = d.u64()
	m.Granted = d.u32() != 0
	return d.err
}

// MetaAppendReq replicates log entries (and serves as heartbeat when
// Entries is empty). PrevIndex/PrevTerm anchor the consistency check;
// Commit carries the leader's commit index. When a follower has
// fallen behind the leader's compacted log prefix, the leader ships
// Snap instead of entries and the follower installs it wholesale.
type MetaAppendReq struct {
	Term      uint64
	Leader    uint32 // leader's replica ID
	PrevIndex uint64
	PrevTerm  uint64
	Commit    uint64
	Entries   []MetaEntry
	Snap      []byte // marshaled MetaSnapshot; nil for ordinary appends
}

func (m *MetaAppendReq) Marshal() []byte {
	e := encoder{}
	e.u64(m.Term)
	e.u32(m.Leader)
	e.u64(m.PrevIndex)
	e.u64(m.PrevTerm)
	e.u64(m.Commit)
	marshalEntries(&e, m.Entries)
	e.u32(uint32(len(m.Snap)))
	e.bytes(m.Snap)
	return e.buf
}

func (m *MetaAppendReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Term = d.u64()
	m.Leader = d.u32()
	m.PrevIndex = d.u64()
	m.PrevTerm = d.u64()
	m.Commit = d.u64()
	m.Entries = unmarshalEntries(&d)
	n := d.u32()
	if d.err != nil {
		return d.err
	}
	if uint32(len(d.buf)) < n {
		return ErrShortBody
	}
	if n > 0 {
		m.Snap = append([]byte(nil), d.buf[:n]...)
	}
	return nil
}

// MetaAppendResp answers an append. Match is the follower's highest
// log index consistent with the leader (on success, the last shipped
// entry; on a consistency miss, the follower's own last index so the
// leader can back up in one round instead of one index at a time).
type MetaAppendResp struct {
	Term    uint64
	Success bool
	Match   uint64
}

func (m *MetaAppendResp) Marshal() []byte {
	e := encoder{}
	e.u64(m.Term)
	e.flag(m.Success)
	e.u64(m.Match)
	return e.buf
}

func (m *MetaAppendResp) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Term = d.u64()
	m.Success = d.u32() != 0
	m.Match = d.u64()
	return d.err
}

// MetaProposeResp is the body of every StatusNotLeader answer a master
// replica sends, to a propose and to a fetch alike: the address
// of the replica it believes leads, empty when it knows none.
type MetaProposeResp struct {
	LeaderAddr string
}

func (m *MetaProposeResp) Marshal() []byte {
	e := encoder{}
	e.str(m.LeaderAddr)
	return e.buf
}

func (m *MetaProposeResp) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.LeaderAddr = d.str()
	return d.err
}

// MetaProposeVerdict answers a TMetaPropose whose record resolved:
// replicated to a majority and applied, so an OK (or Exists, or
// NotFound) verdict is durable and survives leader failure. It carries
// the applied status, the committed entry's log index (shards order
// snapshot installs against it so a stale snapshot can never overwrite
// a newer committed write-back), and (for creates) the applied
// FileInfo, which fills the rest of the body. A StatusNotLeader answer
// carries a MetaProposeResp hint instead, and StatusUnavailable means
// the outcome is unknown: records are idempotent, so the caller
// retries.
type MetaProposeVerdict struct {
	Status Status
	Index  uint64
	Info   *FileInfo // nil when none applies
}

func (m *MetaProposeVerdict) Marshal() []byte {
	e := encoder{}
	e.u32(uint32(m.Status))
	e.u64(m.Index)
	if m.Info != nil {
		e.bytes(m.Info.Marshal())
	}
	return e.buf
}

func (m *MetaProposeVerdict) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Status = Status(d.u32())
	m.Index = d.u64()
	m.Info = nil
	if info := d.rest(); d.err == nil && len(info) > 0 {
		m.Info = new(FileInfo)
		return m.Info.Unmarshal(info)
	}
	return d.err
}

// MetaFileRec is one name → info pair inside a shard snapshot.
type MetaFileRec struct {
	Name string
	Info FileInfo
}

// MetaShardState is the materialized state of one namespace
// partition: everything a restarted shard needs to serve again.
type MetaShardState struct {
	Shard   uint32
	NextSeq uint64
	Files   []MetaFileRec
}

func (m *MetaShardState) marshalTo(e *encoder) {
	e.u32(m.Shard)
	e.u64(m.NextSeq)
	e.u32(uint32(len(m.Files)))
	for i := range m.Files {
		e.str(m.Files[i].Name)
		info := m.Files[i].Info.Marshal()
		e.u32(uint32(len(info)))
		e.bytes(info)
	}
}

func (m *MetaShardState) unmarshalFrom(d *decoder) {
	m.Shard = d.u32()
	m.NextSeq = d.u64()
	n := d.u32()
	if d.err != nil {
		return
	}
	if n > maxMetaList {
		d.err = fmt.Errorf("wire: absurd snapshot file count %d", n)
		return
	}
	m.Files = make([]MetaFileRec, n)
	for i := range m.Files {
		m.Files[i].Name = d.str()
		ilen := d.u32()
		if d.err != nil {
			return
		}
		if uint32(len(d.buf)) < ilen {
			d.err = ErrShortBody
			return
		}
		if err := m.Files[i].Info.Unmarshal(d.buf[:ilen]); err != nil {
			d.err = err
			return
		}
		d.buf = d.buf[ilen:]
	}
}

func (m *MetaShardState) Marshal() []byte {
	e := encoder{}
	m.marshalTo(&e)
	return e.buf
}

func (m *MetaShardState) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.unmarshalFrom(&d)
	return d.err
}

// MetaSnapshot is the master's full materialized state at LastIndex/
// LastTerm: the committed shard map plus every partition's state.
// Shipped to followers that have fallen behind the compacted log, and
// (per partition) to restarting shards via TMetaFetch.
type MetaSnapshot struct {
	LastIndex uint64
	LastTerm  uint64
	Map       ShardMap
	Shards    []MetaShardState
}

func (m *MetaSnapshot) Marshal() []byte {
	e := encoder{}
	e.u64(m.LastIndex)
	e.u64(m.LastTerm)
	mp := m.Map.Marshal()
	e.u32(uint32(len(mp)))
	e.bytes(mp)
	e.u32(uint32(len(m.Shards)))
	for i := range m.Shards {
		m.Shards[i].marshalTo(&e)
	}
	return e.buf
}

func (m *MetaSnapshot) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.LastIndex = d.u64()
	m.LastTerm = d.u64()
	mlen := d.u32()
	if d.err != nil {
		return d.err
	}
	if uint32(len(d.buf)) < mlen {
		return ErrShortBody
	}
	if err := m.Map.Unmarshal(d.buf[:mlen]); err != nil {
		return err
	}
	d.buf = d.buf[mlen:]
	n := d.u32()
	if d.err != nil {
		return d.err
	}
	if n > maxMetaList {
		return fmt.Errorf("wire: absurd snapshot shard count %d", n)
	}
	m.Shards = make([]MetaShardState, n)
	for i := range m.Shards {
		m.Shards[i].unmarshalFrom(&d)
	}
	return d.err
}

// MetaFetchReq asks a master for one partition's materialized state
// (a restarting shard's replay path). A lagging replica gets the whole
// snapshot inside an append instead.
type MetaFetchReq struct {
	Shard uint32
}

func (m *MetaFetchReq) Marshal() []byte {
	e := encoder{}
	e.u32(m.Shard)
	return e.buf
}

func (m *MetaFetchReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Shard = d.u32()
	return d.err
}
