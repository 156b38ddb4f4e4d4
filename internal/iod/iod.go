// Package iod implements the PVFS I/O daemon: the server that stores
// stripe data and services contiguous, list, and datatype I/O requests.
//
// The daemon mirrors the behaviour described in the paper:
//
//   - Contiguous read/write requests service exactly one region each
//     (the "multiple I/O" building block).
//   - List I/O requests (§3.3) carry up to wire.MaxRegionsPerRequest
//     file regions as trailing data; the daemon applies each region
//     against its local stripe file and streams the data back (reads)
//     or scatters the received stream (writes).
//   - Datatype requests are the §5 extension: the access pattern
//     itself (an encoded datatype constructor tree) replaces the
//     explicit region list, and the daemon evaluates it against its
//     own stripe in bounded memory (see datatype.go and DESIGN.md §6).
//
// Clients address the daemon in physical stripe-file coordinates; the
// striping math lives in the client library, as in PVFS.
package iod

import (
	"errors"
	"log"
	"net"
	"sync"

	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

// Server is a running I/O daemon.
type Server struct {
	st  store.Store
	srv *pvfsnet.Server

	mu    sync.Mutex
	stats wire.ServerStats
}

// New starts an I/O daemon serving st on ln. Every request is local
// (pvfsnet.Local): its connection's read loop applies it, from a body
// the wire pool lends it, and answers it before the next request on
// that connection is read. So a connection's requests are applied in
// arrival order, the daemon holds at most one request body and one
// response per busy connection, and an idle connection holds none.
func New(ln net.Listener, st store.Store, logger *log.Logger) *Server {
	s := &Server{st: st}
	srv := pvfsnet.NewLocalServer(ln, s.handle, func(wire.Message) bool { return true }, logger)
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	return s
}

// Listen starts an I/O daemon on addr (e.g. "127.0.0.1:0").
func Listen(addr string, st store.Store, logger *log.Logger) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(ln, st, logger), nil
}

// Addr returns the daemon's listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Net exposes the transport server, e.g. to install fault injection
// (pvfsnet.Faults) in recovery tests.
func (s *Server) Net() *pvfsnet.Server { return s.srv }

// Stats returns a snapshot of the request accounting, merged with the
// storage cache's counters when the store is cache-wrapped
// (store.Cached).
func (s *Server) Stats() wire.ServerStats {
	s.mu.Lock()
	st := s.stats
	st.HandlerPanics = s.srv.HandlerPanics()
	s.mu.Unlock()
	if cp, ok := s.st.(store.CacheStatsProvider); ok {
		cs := cp.CacheStats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheFlushes = cs.Flushes
	}
	if ip, ok := s.st.(store.IOStatsProvider); ok {
		is := ip.IOStats()
		st.StoreSyscallsRead = is.SyscallsRead
		st.StoreSyscallsWrite = is.SyscallsWrite
		st.StoreBytesRead = is.BytesRead
		st.StoreBytesWritten = is.BytesWritten
		st.StoreSubmissions = is.Submissions
		st.StoreBytesCopied = is.BytesCopied
	}
	return st
}

// Close stops the daemon and closes its store (an orderly shutdown: a
// write-back cache flushes its dirty blocks on Close).
func (s *Server) Close() error {
	err := s.srv.Close()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// Kill stops the daemon the way a crash would: the transport closes
// (clients see broken connections mid-call), a write-back cache is
// abandoned WITHOUT flushing — unflushed writes inside the documented
// loss window are gone (DESIGN.md §7) — and backend file handles are
// released with no final sync. Durable state (a store.Dir directory)
// survives for a restart on the same address; see cluster.RestartIOD.
func (s *Server) Kill() error {
	err := s.srv.Close()
	if c, ok := s.st.(*store.Cache); ok {
		c.Abandon()
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Server) account(f func(*wire.ServerStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

func fail(st wire.Status) wire.Message {
	return wire.Message{Header: wire.Header{Status: st}}
}

func ok(handle uint64, body []byte) wire.Message {
	return wire.Message{Header: wire.Header{Handle: handle}, Body: body}
}

// okPooled is ok for a body the daemon allocated from the wire buffer
// pool and will never touch again: the transport recycles it after the
// response frame is written, so the read datapath stops allocating per
// response in steady state.
func okPooled(handle uint64, body []byte) wire.Message {
	return wire.Message{Header: wire.Header{Handle: handle}, Body: body, Recycle: true}
}

func (s *Server) handle(req wire.Message) wire.Message {
	switch req.Type {
	case wire.TRead:
		return s.read(req)
	case wire.TWrite:
		return s.write(req)
	case wire.TReadList:
		return s.readList(req)
	case wire.TWriteList:
		return s.writeList(req)
	case wire.TReadDatatype:
		return s.readDatatype(req)
	case wire.TWriteDatatype:
		return s.writeDatatype(req)
	case wire.TStat:
		return s.stat(req)
	case wire.TTruncate:
		return s.truncate(req)
	case wire.TRemove:
		if err := s.st.Remove(req.Handle); err != nil {
			return fail(wire.StatusIOError)
		}
		return ok(req.Handle, nil)
	case wire.TSync:
		return s.sync(req)
	case wire.TServerStats:
		st := s.Stats()
		return ok(req.Handle, st.Marshal())
	case wire.TListHandles:
		return s.listHandles(req)
	case wire.TPing:
		return ok(req.Handle, nil)
	default:
		return fail(wire.StatusInvalid)
	}
}

// zeroCopyMinBytes gates the sendfile streaming path: below it the
// fixed cost of the readiness loop and the lost pipelining (the stream
// holds its connection's read loop for its whole transfer) outweigh
// the avoided copy. The threshold is one 64 KiB cache block (DESIGN.md
// §11).
const zeroCopyMinBytes = 64 << 10

// streamRead returns a zero-copy streamed response for a contiguous
// read when the store can hand out a file-range stream (uncached Dir
// only — a cache must never let the socket bypass dirty blocks) and
// the transfer is large enough to profit yet fits one frame. ok=false
// means the caller takes the buffered path, which answers an oversized
// read StatusInvalid; a stream past wire.MaxBodyLen would instead fail
// the frame write and close the connection under every request on it.
func (s *Server) streamRead(handle uint64, off, length int64) (wire.Message, bool) {
	if length < zeroCopyMinBytes || length > wire.MaxBodyLen {
		return wire.Message{}, false
	}
	fsr, ok := s.st.(store.FileStreamer)
	if !ok {
		return wire.Message{}, false
	}
	fs, err := fsr.StreamReader(handle, off, length)
	if err != nil {
		// Fall back to the buffered path, which surfaces real I/O
		// errors as a proper status response.
		return wire.Message{}, false
	}
	return wire.Message{Header: wire.Header{Handle: handle}, BodyStream: fs}, true
}

func (s *Server) read(req wire.Message) wire.Message {
	var body wire.ReadReq
	if err := body.Unmarshal(req.Body); err != nil {
		return fail(wire.StatusProtocol)
	}
	if body.Length < 0 || body.Length > wire.MaxBodyLen || body.Offset < 0 {
		return fail(wire.StatusInvalid)
	}
	if resp, ok := s.streamRead(req.Handle, body.Offset, body.Length); ok {
		s.account(func(st *wire.ServerStats) {
			st.Requests++
			st.Regions++
			st.BytesRead += body.Length
		})
		return resp
	}
	p := wire.GetBuf(int(body.Length))
	if _, err := s.st.ReadAt(req.Handle, p, body.Offset); err != nil {
		wire.PutBuf(p)
		return fail(wire.StatusIOError)
	}
	s.account(func(st *wire.ServerStats) {
		st.Requests++
		st.Regions++
		st.BytesRead += body.Length
	})
	return okPooled(req.Handle, p)
}

func (s *Server) write(req wire.Message) wire.Message {
	var body wire.WriteReq
	if err := body.Unmarshal(req.Body); err != nil {
		return fail(wire.StatusProtocol)
	}
	if body.Offset < 0 {
		return fail(wire.StatusInvalid)
	}
	n, err := s.st.WriteAt(req.Handle, body.Data, body.Offset)
	if err != nil {
		return fail(wire.StatusIOError)
	}
	s.account(func(st *wire.ServerStats) {
		st.Requests++
		st.Regions++
		st.BytesWritten += int64(n)
	})
	return ok(req.Handle, (&wire.WrittenResp{N: int64(n)}).Marshal())
}

// applyRegions runs one region list against the store, reading into or
// writing from the packed stream. It is the core of list I/O service.
// Writes scatter straight from the request's trailing data — no
// intermediate buffer exists on that path. Reads fill a pooled buffer
// that becomes the response body verbatim (okPooled), so the daemon
// builds no intermediate full-response copies either.
//
// The region geometry is fully validated before any memory is sliced:
// each region's offset/length must be non-negative and overflow-free,
// and the total — summed with overflow detection, since 64 lengths
// that each pass Validate can still wrap int64 — must fit MaxBodyLen.
// A request failing any of these is answered StatusInvalid; it must
// never panic the daemon (remote DoS).
func (s *Server) applyRegions(handle uint64, regions ioseg.List, data []byte, isWrite bool) ([]byte, wire.Status) {
	if regions.Validate() != nil {
		return nil, wire.StatusInvalid
	}
	total, err := regions.TotalLengthChecked()
	if err != nil || total > wire.MaxBodyLen {
		return nil, wire.StatusInvalid
	}
	if isWrite {
		if int64(len(data)) != total {
			return nil, wire.StatusInvalid
		}
		if _, err := store.ApplyPacked(s.st, handle, regions, data, true); err != nil {
			return nil, wire.StatusIOError
		}
		return nil, wire.StatusOK
	}
	out := wire.GetBuf(int(total))
	if _, err := store.ApplyPacked(s.st, handle, regions, out, false); err != nil {
		wire.PutBuf(out)
		return nil, wire.StatusIOError
	}
	return out, wire.StatusOK
}

func (s *Server) readList(req wire.Message) wire.Message {
	var body wire.ListReq
	if err := body.Unmarshal(req.Body); err != nil {
		if err == wire.ErrTooManyRegions {
			return fail(wire.StatusTooManyRegions)
		}
		if errors.Is(err, wire.ErrInvalidRegion) {
			return fail(wire.StatusInvalid)
		}
		return fail(wire.StatusProtocol)
	}
	out, st := s.applyRegions(req.Handle, body.Regions, nil, false)
	if st != wire.StatusOK {
		return fail(st)
	}
	s.account(func(stats *wire.ServerStats) {
		stats.Requests++
		stats.ListRequests++
		stats.Regions += int64(len(body.Regions))
		stats.BytesRead += int64(len(out))
		stats.TrailingBytes += int64(wire.TrailingDataSize(len(body.Regions)))
	})
	return okPooled(req.Handle, out)
}

func (s *Server) writeList(req wire.Message) wire.Message {
	var body wire.ListReq
	if err := body.Unmarshal(req.Body); err != nil {
		if err == wire.ErrTooManyRegions {
			return fail(wire.StatusTooManyRegions)
		}
		if errors.Is(err, wire.ErrInvalidRegion) {
			return fail(wire.StatusInvalid)
		}
		return fail(wire.StatusProtocol)
	}
	_, st := s.applyRegions(req.Handle, body.Regions, body.Data, true)
	if st != wire.StatusOK {
		return fail(st)
	}
	n := int64(len(body.Data))
	s.account(func(stats *wire.ServerStats) {
		stats.Requests++
		stats.ListRequests++
		stats.Regions += int64(len(body.Regions))
		stats.BytesWritten += n
		stats.TrailingBytes += int64(wire.TrailingDataSize(len(body.Regions)))
	})
	return ok(req.Handle, (&wire.WrittenResp{N: n}).Marshal())
}

func (s *Server) stat(req wire.Message) wire.Message {
	sz, err := s.st.Size(req.Handle)
	if err != nil {
		return fail(wire.StatusIOError)
	}
	return ok(req.Handle, (&wire.SizeResp{Size: sz}).Marshal())
}

// listHandles enumerates the stored handles and their physical sizes
// for the consistency checker (internal/fsck).
func (s *Server) listHandles(req wire.Message) wire.Message {
	handles, err := s.st.Handles()
	if err != nil {
		return fail(wire.StatusIOError)
	}
	resp := wire.HandleListResp{
		Handles: handles,
		Sizes:   make([]int64, len(handles)),
	}
	for i, h := range handles {
		sz, err := s.st.Size(h)
		if err != nil {
			return fail(wire.StatusIOError)
		}
		resp.Sizes[i] = sz
	}
	return ok(req.Handle, resp.Marshal())
}

// sync services TSync: hand the handle's dirty cached blocks to the
// backend store (for Dir, the page cache: the data then survives a
// daemon crash, not a host crash). Stores without a write-back layer
// have nothing to flush and succeed immediately, so clients may sync
// unconditionally.
func (s *Server) sync(req wire.Message) wire.Message {
	if sy, ok := s.st.(store.Syncer); ok {
		if err := sy.Sync(req.Handle); err != nil {
			return fail(wire.StatusIOError)
		}
	}
	return ok(req.Handle, nil)
}

func (s *Server) truncate(req wire.Message) wire.Message {
	var body wire.TruncateReq
	if err := body.Unmarshal(req.Body); err != nil {
		return fail(wire.StatusProtocol)
	}
	if body.Size < 0 {
		return fail(wire.StatusInvalid)
	}
	if err := s.st.Truncate(req.Handle, body.Size); err != nil {
		return fail(wire.StatusIOError)
	}
	return ok(req.Handle, nil)
}
