// Package mgr implements the PVFS manager daemon: the metadata server
// that handles file creation, lookup, permissions-style metadata, and
// striping parameters (§2 of the paper).
//
// As in PVFS, the manager does not participate in read/write traffic:
// when a client opens a file, the manager returns the file handle,
// striping configuration, and the addresses of the I/O daemons; all
// data traffic then flows directly between client and I/O daemons.
//
// Since the metadata plane was rebuilt on internal/meta (DESIGN.md
// §13), this package is a thin compatibility wrapper: one listener
// fronting a solo master replica (meta.Node with itself as the only
// peer, leading from construction) and one metadata shard (meta.Shard
// proposing through the node in-process). The wire behavior of the
// classic single manager is preserved exactly — same request grammar,
// same validation, same 1, 2, 3, ... handle sequence — while larger
// deployments run the same two roles as separate replicated masters
// and hash-partitioned shards.
package mgr

import (
	"log"
	"net"
	"sync"

	"pvfs/internal/meta"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

// Server is a running manager daemon: a solo metadata plane behind a
// single listener.
type Server struct {
	node  *meta.Node
	shard *meta.Shard
	mu    sync.Mutex // orders srv's assignment before Stats reads it
	srv   *pvfsnet.Server
}

// New starts a manager on ln that hands out the given I/O daemon
// addresses (stripe order). The solo master keeps its state in memory
// (the classic manager was never durable either); NewNode cannot fail
// without a state dir, so the error is surfaced only for symmetry
// with future durable wrappers.
func New(ln net.Listener, iodAddrs []string, logger *log.Logger) (*Server, error) {
	addr := ln.Addr().String()
	boot := &wire.ShardMap{
		Epoch:   1,
		Masters: []string{addr},
		Shards:  []string{addr},
		IODs:    append([]string(nil), iodAddrs...),
	}
	node, err := meta.NewNode(meta.NodeOptions{
		ID: 0, Peers: []string{addr}, Bootstrap: boot, Logger: logger,
	})
	if err != nil {
		return nil, err
	}
	shard := meta.NewShard(meta.ShardOptions{
		Index: 0, Proposer: meta.LocalProposer{Node: node}, Logger: logger,
	})
	s := &Server{node: node, shard: shard}
	s.mu.Lock()
	s.srv = pvfsnet.NewLocalServer(ln, s.handle, s.local, logger)
	s.mu.Unlock()
	return s, nil
}

// Listen starts a manager on addr.
func Listen(addr string, iodAddrs []string, logger *log.Logger) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s, err := New(ln, iodAddrs, logger)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return s, nil
}

// Addr returns the manager's listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Net exposes the transport server, e.g. to install fault injection
// (pvfsnet.Faults) in recovery tests.
func (s *Server) Net() *pvfsnet.Server { return s.srv }

// Node exposes the embedded solo master replica.
func (s *Server) Node() *meta.Node { return s.node }

// Shard exposes the embedded metadata shard.
func (s *Server) Shard() *meta.Shard { return s.shard }

// Stats returns the manager's combined metadata accounting.
func (s *Server) Stats() wire.ServerStats {
	st := s.shard.Stats()
	st.Add(s.node.Stats())
	s.mu.Lock()
	st.HandlerPanics += s.srv.HandlerPanics()
	s.mu.Unlock()
	return st
}

// Close stops the manager.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.shard.Close()
	s.node.Close()
	return err
}

// handle demultiplexes the single listener: consensus traffic and map
// queries go to the master replica, whose map is the committed one and
// which refuses a map sent to it; everything else (the classic manager
// grammar plus the TMetaForward envelope) goes to the shard. The shard
// proposes to the node in process, so no propose arrives here.
func (s *Server) handle(req wire.Message) wire.Message {
	switch req.Type {
	case wire.TMetaVote, wire.TMetaAppend, wire.TMetaFetch, wire.TShardMap:
		return s.node.Handle(req)
	case wire.TServerStats:
		st := s.Stats()
		return wire.Message{Body: st.Marshal()}
	default:
		return s.shard.Handle(req)
	}
}

// local is the listener's pvfsnet.Local: the shard's rule, except that
// the node's traffic (consensus and map queries, which may wait on a
// leader) is never local. The combined stats read memory only.
func (s *Server) local(req wire.Message) bool {
	switch req.Type {
	case wire.TMetaVote, wire.TMetaAppend, wire.TMetaFetch, wire.TShardMap:
		return false
	}
	return s.shard.Local(req)
}
