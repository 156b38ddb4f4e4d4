// Package meta is the sharded, replicated metadata plane (DESIGN.md
// §13). It replaces the single PVFS manager of the paper with two
// roles built on the same tagged pvfsnet transport:
//
//   - A small replicated master group (Node): leader-elected with term
//     numbers, log-replicating every metadata mutation to a majority
//     before the mutation is acknowledged, snapshotting and replaying
//     state across restarts. The masters own the IOD list, striping
//     placement, and the shard map.
//
//   - Hash-partitioned metadata shards (Shard): the file namespace is
//     split by name hash so create/open/stat/listDir throughput scales
//     with shard count. Shards serve the classic manager request
//     grammar (plus the TMetaForward envelope); reads are answered
//     from shard-local state, while every mutation is proposed to the
//     master leader and answered only after majority commit — so an
//     acknowledged create survives any single node's failure,
//     including the leader's. A shard proposes one record per call,
//     in the requesting goroutine, as one TMetaPropose answered by one
//     verdict; batching happens once, at the leader's group committer.
//     A shard learns the shard map only from the masters: its listener
//     answers TShardMap as a query and refuses a map sent to it.
//
// The consensus core is a compact Raft-style protocol (election
// restriction on log freshness, current-term-only commit counting,
// snapshot install for lagging replicas) with no external
// dependencies: a pure state machine (core) behind an I/O shell (Node)
// that runs it on pvfsnet and a local WAL. internal/mgr wraps one Node
// and one Shard behind a single listener to preserve the paper's
// single-manager deployment shape.
package meta

import (
	"log"
	"slices"
	"time"

	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// Timing groups the protocol clocks. The defaults are tuned for
// in-process test clusters (fast failover under the chaos harness); a
// WAN deployment would scale them up together.
type Timing struct {
	// Heartbeat is the leader's idle append interval. Followers whose
	// election timer outlives missed heartbeats start an election.
	Heartbeat time.Duration
	// ElectionLo/ElectionHi bound the randomized election timeout.
	ElectionLo time.Duration
	ElectionHi time.Duration
	// CallTimeout bounds one peer RPC (vote, append, fetch attempt).
	CallTimeout time.Duration
	// ProposeWait bounds how long the leader holds a proposal waiting
	// for majority commit before answering StatusUnavailable.
	ProposeWait time.Duration
	// RetryWindow bounds a shard's whole propose loop (spanning leader
	// discovery and elections) before it gives up with Unavailable.
	RetryWindow time.Duration
	// MapPoll is the shard's background shard-map refresh interval.
	MapPoll time.Duration
}

func (t Timing) withDefaults() Timing {
	if t.Heartbeat <= 0 {
		t.Heartbeat = 15 * time.Millisecond
	}
	if t.ElectionLo <= 0 {
		t.ElectionLo = 75 * time.Millisecond
	}
	if t.ElectionHi <= t.ElectionLo {
		t.ElectionHi = 2 * t.ElectionLo
	}
	if t.CallTimeout <= 0 {
		t.CallTimeout = 250 * time.Millisecond
	}
	if t.ProposeWait <= 0 {
		t.ProposeWait = 2 * time.Second
	}
	if t.RetryWindow <= 0 {
		t.RetryWindow = 8 * time.Second
	}
	if t.MapPoll <= 0 {
		t.MapPoll = time.Second
	}
	return t
}

// tick is the clock's period: a leader's heartbeat check, a deadline
// check and a candidate's re-ask each run on it.
func (t Timing) tick() time.Duration { return max(t.Heartbeat/3, time.Millisecond) }

// namespace is the materialized state of one metadata partition. Both
// the master replicas (for snapshots and propose verdicts) and the
// owning shard (for serving reads) hold one; it changes only through
// apply, whose outcome is a pure function of current state and the
// record, so every replica that applies the same log prefix holds the
// same namespace.
type namespace struct {
	files    map[string]*wire.FileInfo
	byHandle map[uint64]string
	nextSeq  uint64 // next unissued per-shard handle sequence
	// addrs holds the IOD address lists the namespace's files use, one
	// shared slice per distinct list, so a file holds no strings of
	// its own. Lists under one (Base, PCount) differ only when a shard
	// map changed the IOD addresses, so the table is bounded by the
	// validated (Base, PCount) range times the IOD lists the
	// deployment has had. Shared slices are never modified.
	addrs map[addrKey][][]string
}

type addrKey struct{ base, pcount int }

func newNamespace() *namespace {
	return &namespace{
		files:    make(map[string]*wire.FileInfo),
		byHandle: make(map[uint64]string),
		addrs:    make(map[addrKey][][]string),
	}
}

// shareAddrs points info at the namespace's slice equal to its IOD
// address list, adopting info's own slice when the list is new.
func (ns *namespace) shareAddrs(info *wire.FileInfo) {
	k := addrKey{info.Striping.Base, len(info.IODAddrs)}
	for _, c := range ns.addrs[k] {
		if slices.Equal(c, info.IODAddrs) {
			info.IODAddrs = c
			return
		}
	}
	ns.addrs[k] = append(ns.addrs[k], info.IODAddrs)
}

// rotatedAddrs returns the namespace's slice listing a file's daemons
// in stripe order: starting at Base and wrapping around the
// deployment's IOD list.
func (ns *namespace) rotatedAddrs(cfg striping.Config, iods []string) []string {
	k := addrKey{cfg.Base, cfg.PCount}
next:
	for _, c := range ns.addrs[k] {
		for i := range c {
			if c[i] != iods[(cfg.Base+i)%len(iods)] {
				continue next
			}
		}
		return c
	}
	c := make([]string, cfg.PCount)
	for i := range c {
		c[i] = iods[(cfg.Base+i)%len(iods)]
	}
	ns.addrs[k] = append(ns.addrs[k], c)
	return c
}

// apply executes one replicated record. The returned status is the
// operation's verdict; for creates the returned info is the file's
// (possibly pre-existing) metadata. Records are idempotent: replaying
// a committed create (same name, same handle) is a no-op OK.
func (ns *namespace) apply(rec *wire.MetaRecord, nshards int) (wire.Status, *wire.FileInfo) {
	switch rec.Op {
	case wire.TCreate:
		var cr wire.MetaCreateRec
		if err := cr.Unmarshal(rec.Body); err != nil {
			return wire.StatusProtocol, nil
		}
		if existing, ok := ns.files[cr.Name]; ok {
			if existing.Handle == cr.Info.Handle {
				return wire.StatusOK, existing // replayed/duplicated record
			}
			if cr.Info.CreateTok != 0 && existing.CreateTok == cr.Info.CreateTok {
				// Same logical create, re-proposed with a fresh handle:
				// the first attempt committed but its ack was lost and
				// the shard's cache hadn't caught up when the client
				// retried. First one wins; ack the committed file.
				return wire.StatusOK, existing
			}
			return wire.StatusExists, existing
		}
		if _, taken := ns.byHandle[cr.Info.Handle]; taken {
			// A handle collision: the proposing shard lost its sequence
			// state (crash between issue and commit). The record is
			// ignored deterministically; the shard re-proposes with a
			// fresh handle on StatusInvalid.
			return wire.StatusInvalid, nil
		}
		info := cr.Info
		ns.shareAddrs(&info)
		ns.files[cr.Name] = &info
		ns.byHandle[info.Handle] = cr.Name
		if seq := wire.MetaHandleSeq(info.Handle, nshards); seq >= ns.nextSeq {
			ns.nextSeq = seq + 1
		}
		return wire.StatusOK, &info
	case wire.TRemove:
		var nr wire.NameReq
		if err := nr.Unmarshal(rec.Body); err != nil {
			return wire.StatusProtocol, nil
		}
		info, ok := ns.files[nr.Name]
		if !ok {
			return wire.StatusNotFound, nil
		}
		delete(ns.files, nr.Name)
		delete(ns.byHandle, info.Handle)
		return wire.StatusOK, info
	case wire.TSetSize:
		var sr wire.SetSizeReq
		if err := sr.Unmarshal(rec.Body); err != nil {
			return wire.StatusProtocol, nil
		}
		name, ok := ns.byHandle[sr.Handle]
		if !ok {
			return wire.StatusNotFound, nil
		}
		// Size records are a high-water mark: racing closers may report
		// in any order, and the largest write wins (manager contract).
		// Clone-and-swap rather than mutate: *FileInfo values stay
		// immutable once inserted, so a snapshot captured as shared
		// references (compactOnce) can serialize them without the lock.
		if info := ns.files[name]; sr.Size > info.Size {
			cp := *info
			cp.Size = sr.Size
			ns.files[name] = &cp
		}
		return wire.StatusOK, ns.files[name]
	case wire.TPing:
		return wire.StatusOK, nil // leader no-op entry
	default:
		return wire.StatusProtocol, nil
	}
}

// state exports the namespace for a snapshot.
func (ns *namespace) state(shard uint32) wire.MetaShardState {
	st := wire.MetaShardState{Shard: shard, NextSeq: ns.nextSeq}
	for name, info := range ns.files {
		st.Files = append(st.Files, wire.MetaFileRec{Name: name, Info: *info})
	}
	return st
}

// install replaces the namespace with snapshot state.
func (ns *namespace) install(st *wire.MetaShardState) {
	ns.files = make(map[string]*wire.FileInfo, len(st.Files))
	ns.byHandle = make(map[uint64]string, len(st.Files))
	ns.nextSeq = st.NextSeq
	ns.addrs = make(map[addrKey][][]string)
	for i := range st.Files {
		info := st.Files[i].Info
		ns.shareAddrs(&info)
		ns.files[st.Files[i].Name] = &info
		ns.byHandle[info.Handle] = st.Files[i].Name
	}
}

// resolveStriping validates and defaults a requested striping config
// against the deployment's IOD list, mirroring the classic manager's
// create rules: PCount 0 means "all daemons", StripeSize 0 selects
// the default, and a geometry that does not fit the daemon list is
// rejected outright.
func resolveStriping(cfg striping.Config, niods int) (striping.Config, wire.Status) {
	if cfg.PCount == 0 {
		cfg.PCount = niods
	}
	if cfg.StripeSize == 0 {
		cfg.StripeSize = striping.DefaultStripeSize
	}
	if cfg.PCount > niods || cfg.Base >= niods {
		return cfg, wire.StatusInvalid
	}
	if err := cfg.Validate(); err != nil {
		return cfg, wire.StatusInvalid
	}
	return cfg, wire.StatusOK
}

func logf(l *log.Logger, format string, args ...any) {
	if l != nil {
		l.Printf(format, args...)
	}
}
