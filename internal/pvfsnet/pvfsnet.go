// Package pvfsnet provides the TCP transport shared by the PVFS manager
// and I/O daemons: a message-per-request serve loop on the server side
// and a tagged, pipelined call connection on the client side.
//
// Each request carries a tag in its wire header and the server echoes
// the tag in the response, so a client may keep a window of calls in
// flight on one connection (CallAsync/Wait) and match completions that
// arrive out of order. Call preserves the original serialized
// request/response semantics on top of the same machinery. Parallelism
// across servers still comes from one connection per (client, server)
// pair, exactly how the PVFS library fans out; pipelining adds
// parallelism *within* each connection.
package pvfsnet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pvfs/internal/wire"
)

// Handler processes one request message and returns the response.
// Implementations must be safe for concurrent use. A server reads every
// request body into a buffer from the wire pool, then dispatches the
// request by one of two rules:
//   - a request the server's Local declares local is handled by its
//     connection's read loop and answered before the next frame is
//     read: one request in flight per connection, handled in arrival
//     order;
//   - every other request is handled on a goroutine of its own, so the
//     requests of one connection may be handled concurrently.
//
// Handlers must not retain req.Body (or slices into it) past return:
// the transport recycles the buffer once the response has been written.
// A response may share it.
type Handler func(wire.Message) wire.Message

// Local reports whether a request is local: handled on its connection's
// read loop. A local request may wait on its process's memory or disk,
// never on another server: it holds up every later request on its
// connection while it is handled, so a Local that errs toward false
// only costs a goroutine, while one that lets a request wait on a peer
// can stall a connection behind that peer. It decides only where a
// request is handled, not where its body lives. It runs on the read
// loop, so it must be cheap and must not retain req.Body.
type Local func(req wire.Message) bool

// maxServerInflight bounds how many non-local requests from one
// connection a server handles concurrently; excess requests wait in the
// read loop, applying backpressure through TCP.
const maxServerInflight = 64

// Server runs an accept loop dispatching framed messages to a Handler.
type Server struct {
	ln      net.Listener
	handler Handler
	local   Local // nil: no request is local
	logger  *log.Logger
	faults  atomic.Pointer[Faults]
	panics  atomic.Int64 // handler panics recovered by safeHandle

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts serving on ln immediately, handling every request on
// a goroutine of its own. Pass a nil logger to suppress connection
// error logging.
func NewServer(ln net.Listener, h Handler, logger *log.Logger) *Server {
	return NewLocalServer(ln, h, nil, logger)
}

// NewLocalServer is NewServer whose read loops handle and answer every
// request local declares local (see Handler), saving such a request
// its goroutine and the handoff to it.
func NewLocalServer(ln net.Listener, h Handler, local Local, logger *log.Logger) *Server {
	s := &Server{ln: ln, handler: h, local: local, logger: logger, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// HandlerPanics returns how many handler panics the server has
// recovered (see safeHandle). A nil server has recovered none.
func (s *Server) HandlerPanics() int64 {
	if s == nil {
		return 0
	}
	return s.panics.Load()
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn reads requests until the connection ends. A local request
// is handled and answered here, in arrival order; any other
// is dispatched to its own goroutine, so those requests are serviced
// concurrently. Responses are written under a per-connection mutex and
// carry the request's tag, so they may complete in any order.
// Fault-injection decisions are taken here, in arrival order, from the
// header alone: a dropped request's body is never read, a failed one's
// is skipped.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	var (
		wmu sync.Mutex // serializes response frames
		hwg sync.WaitGroup
	)
	sem := make(chan struct{}, maxServerInflight)
	defer func() {
		hwg.Wait() // let in-flight handlers finish writing
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	writeResp := func(resp wire.Message) error {
		wmu.Lock()
		err := wire.WriteMessage(c, resp)
		wmu.Unlock()
		if resp.Recycle {
			wire.PutBuf(resp.Body)
		}
		return err
	}
	// spawn runs f on a goroutine of its own, at most maxServerInflight
	// of them at once.
	spawn := func(f func()) {
		sem <- struct{}{}
		hwg.Add(1)
		go func() {
			defer hwg.Done()
			defer func() { <-sem }()
			f()
		}()
	}
	fr := wire.NewFrameReader(c)
	for {
		h, err := fr.ReadHeader()
		if err != nil {
			return // EOF or broken connection ends the session
		}
		var delay time.Duration
		if f := s.faults.Load(); f != nil {
			var action faultAction
			action, delay = f.next()
			if action != faultNone {
				time.Sleep(delay)
				if action == faultDrop {
					return // deferred close severs the connection mid-call
				}
				status := wire.StatusIOError
				if action == faultUnavailable {
					status = wire.StatusUnavailable
				}
				if fr.Discard(int64(h.BodyLen)) != nil {
					return
				}
				resp := wire.Message{Header: wire.Header{Type: h.Type.Response(), Status: status, Tag: h.Tag}}
				if writeResp(resp) != nil {
					return
				}
				continue
			}
		}
		// The whole body is read before anything handles it, so a frame
		// torn mid-body applies nothing. An idle connection holds no
		// body: what the server parks is bounded by the pool's depths.
		req := wire.Message{Header: h, Body: wire.GetBuf(int(h.BodyLen))}
		if _, err := fr.ReadInto([][]byte{req.Body}); err != nil {
			wire.PutBuf(req.Body)
			return
		}
		if s.local != nil && s.local(req) {
			resp := s.respond(req)
			if delay == 0 {
				if writeResp(resp) != nil {
					return
				}
				continue
			}
			// An injected delay holds back only the response, so the
			// delays of pipelined requests overlap.
			spawn(func() {
				time.Sleep(delay)
				s.reply(c, resp, writeResp)
			})
			continue
		}
		// An injected service delay sleeps in the handler goroutine, so
		// pipelined requests overlap their delays, as they would
		// overlap real service time.
		spawn(func() {
			time.Sleep(delay)
			s.reply(c, s.respond(req), writeResp)
		})
	}
}

// respond runs the handler for req and tags its response. The request
// body goes back to the pool (handlers must not retain it — see
// Handler), unless the response shares it: then writing the response
// recycles it.
func (s *Server) respond(req wire.Message) wire.Message {
	resp := s.safeHandle(req)
	resp.Type = req.Type.Response()
	resp.Tag = req.Tag
	if sameBacking(req.Body, resp.Body) {
		resp.Recycle = true
	} else {
		wire.PutBuf(req.Body)
	}
	return resp
}

// reply writes a response from a handler goroutine; a failed write
// closes the connection to wake the read loop, since the session is
// broken.
func (s *Server) reply(c net.Conn, resp wire.Message, writeResp func(wire.Message) error) {
	if err := writeResp(resp); err != nil {
		s.logf("pvfsnet: writing response to %s: %v", c.RemoteAddr(), err)
		c.Close()
	}
}

// sameBacking reports whether two slices share a backing array. Slices
// into the same array share their final capacity byte regardless of
// their offsets.
func sameBacking(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// safeHandle isolates handler panics to a protocol-error response so a
// malformed request cannot take the daemon down, nor end the read loop
// that handles a local request; each panic is counted (HandlerPanics).
func (s *Server) safeHandle(req wire.Message) (resp wire.Message) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.logf("pvfsnet: handler panic on %v: %v", req.Type, r)
			resp = wire.Message{Header: wire.Header{Status: wire.StatusProtocol}}
		}
	}()
	return s.handler(req)
}

// Close stops accepting, closes live connections and waits for the
// serving goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// ErrClosed is returned by calls on a closed connection.
var ErrClosed = errors.New("pvfsnet: connection closed")

// callResult carries one demultiplexed response (or terminal error) to
// the waiting caller.
type callResult struct {
	msg wire.Message
	err error
}

// Conn is a client connection issuing tagged request/response calls.
// It is safe for concurrent use: any number of goroutines may Call or
// CallAsync at once, and up to the caller-managed window many tagged
// requests may be in flight simultaneously; a dedicated reader
// goroutine routes each response to its caller by tag.
type Conn struct {
	addr string
	c    net.Conn

	wmu sync.Mutex // serializes request frames

	mu        sync.Mutex
	nextTag   uint32
	pending   map[uint32]*Pending
	abandoned map[uint32]struct{} // canceled tags whose responses are discarded
	rerr      error               // terminal receive error; nil while healthy
	closed    bool

	// dead is set once the connection can carry no more calls: its read
	// loop failed, a request write failed or it was closed. The pool
	// drops a dead connection instead of handing it out.
	dead atomic.Bool

	// scattering is the call whose response body the read loop is
	// reading straight into the call's Dest; nil when there is none. An
	// Abandon of that call sets abort, wakes the read with a past
	// deadline and waits on released until the read loop lets go.
	scattering *Pending
	abort      bool
	released   sync.Cond // L is &mu
}

// Dial connects to a PVFS daemon and starts the response demultiplexer.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a PVFS daemon, honoring the context's
// deadline and cancellation for the TCP connect itself (the original
// Dial used a bare net.Dial: a blackholed daemon address blocked the
// caller for the kernel's connect timeout, minutes on most systems).
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pvfsnet: dial %s: %w", addr, err)
	}
	return NewConn(addr, c), nil
}

// NewConn builds a client connection over an already-established
// net.Conn and starts its response demultiplexer. Fault-injection
// setups use it to slip a wrapped connection (faultnet) under the
// tagged transport; addr is only used for error reporting.
func NewConn(addr string, c net.Conn) *Conn {
	conn := &Conn{
		addr:      addr,
		c:         c,
		pending:   make(map[uint32]*Pending),
		abandoned: make(map[uint32]struct{}),
	}
	conn.released.L = &conn.mu
	go conn.readLoop()
	return conn
}

// readLoop demultiplexes responses to pending calls by tag until the
// connection dies, then fails every remaining and future call. Each
// frame's header decides, under one acquisition of c.mu, where its body
// goes: a success response of exactly the registered length is read
// straight into its call's Dest (scatter); any other response to a
// pending call is read into a pooled body and delivered; a response for
// an abandoned tag (a canceled call) is drained into a pooled body and
// recycled, and the connection stays healthy. A response nothing waits
// for, or of another type than its request, breaks the connection. The
// loop owns the connection's frame reader, so a small response costs
// one read.
func (c *Conn) readLoop() {
	fr := wire.NewFrameReader(c.c)
	for {
		h, err := fr.ReadHeader()
		if err != nil {
			c.fail(c.recvErr(err))
			return
		}
		c.mu.Lock()
		p, ok := c.pending[h.Tag]
		_, ab := c.abandoned[h.Tag]
		scatter := false
		switch {
		case ok && h.Type == p.typ.Response():
			delete(c.pending, h.Tag)
			scatter = p.dest != nil && h.Status == wire.StatusOK && int(h.BodyLen) == p.dest.N
			if scatter {
				c.scattering = p
			}
		case ab:
			delete(c.abandoned, h.Tag)
		default:
			// A response nothing waits for, or not the one its call
			// waits for: the peer is confused, and the byte stream can
			// no longer be trusted.
			c.mu.Unlock()
			c.breakStream(fmt.Errorf("pvfsnet: unexpected %v response with tag %d from %s", h.Type, h.Tag, c.addr))
			return
		}
		c.mu.Unlock()
		if scatter {
			if !c.scatter(fr, p, h) {
				return
			}
			continue
		}
		msg, err := fr.ReadBody(h)
		if err != nil {
			err = c.recvErr(err)
			if ok {
				p.deliver(callResult{err: err})
			}
			c.fail(err)
			return
		}
		if ok {
			p.deliver(callResult{msg: msg})
		} else {
			msg.Release()
		}
	}
}

// scatter reads the body of p's response, whose header is h, straight
// into p's Dest and delivers it with a nil Body. If p is abandoned while
// the bytes arrive, the read is cut short, the memory is handed back
// before Abandon returns, and the rest of the body — bytes already in
// fr's buffer first — is skipped. It reports whether the connection is
// still usable.
func (c *Conn) scatter(fr *wire.FrameReader, p *Pending, h wire.Header) bool {
	n, err := fr.ReadInto(p.dest.Pieces)
	c.mu.Lock()
	aborted := c.abort
	c.scattering, c.abort = nil, false
	if aborted {
		c.c.SetReadDeadline(time.Time{})
	}
	c.released.Broadcast()
	c.mu.Unlock()
	if aborted && (err == nil || errors.Is(err, os.ErrDeadlineExceeded)) {
		if err := fr.Discard(int64(h.BodyLen) - int64(n)); err != nil {
			c.fail(c.recvErr(err))
			return false
		}
		return true
	}
	if err != nil {
		err = c.recvErr(err)
		p.deliver(callResult{err: err})
		c.fail(err)
		return false
	}
	p.deliver(callResult{msg: wire.Message{Header: h}})
	return true
}

// recvErr wraps a receive-side failure with the peer's address.
func (c *Conn) recvErr(err error) error {
	return fmt.Errorf("pvfsnet: receiving from %s: %w", c.addr, err)
}

// breakStream ends a session whose byte stream can no longer be
// trusted — a torn request frame, a confused response — failing every
// pending call with err.
func (c *Conn) breakStream(err error) {
	c.c.Close()
	c.fail(err)
}

// fail marks the connection broken and unblocks every pending call.
func (c *Conn) fail(err error) {
	c.dead.Store(true)
	c.mu.Lock()
	if c.closed {
		err = ErrClosed
	}
	if c.rerr == nil {
		c.rerr = err
	} else {
		err = c.rerr
	}
	pending := c.pending
	c.pending = make(map[uint32]*Pending)
	c.abandoned = make(map[uint32]struct{})
	c.mu.Unlock()
	for _, p := range pending {
		p.deliver(callResult{err: err})
	}
}

// Pending is an in-flight tagged call; Wait blocks for its response.
type Pending struct {
	conn *Conn
	typ  wire.MsgType
	tag  uint32
	dest *wire.Vec // the request's Dest: where a matching body lands
	ch   chan callResult

	// settled is set by whoever decides the call's outcome first: the
	// read loop or fail delivering a result on ch, or Abandon giving the
	// call up (a result that loses the race is recycled by deliver).
	settled atomic.Bool
}

// deliver hands res to the waiter, unless Abandon already gave the call
// up; then a response's pooled body goes back to the pool.
func (p *Pending) deliver(res callResult) {
	if p.settled.CompareAndSwap(false, true) {
		p.ch <- res
		return
	}
	if res.err == nil {
		res.msg.Release()
	}
}

// CallAsync sends req and returns immediately with a Pending handle for
// the response. The caller decides the in-flight window by how many
// CallAsync results it holds before Waiting on them. Every byte of the
// request — req.Body and, for a vectored request, each piece of the
// caller's memory behind req.BodyStream — has been handed to the kernel
// (or to the wrapped connection's Write) before CallAsync returns: the
// transport keeps no reference to either, so the caller may reuse the
// memory at once.
//
// req.Dest is the exception, and registers with the tag before the
// request is written: the caller's memory the response body may land in
// (wire.Message.Dest). It stays lent to the connection until Wait or
// WaitContext has returned, or Abandon has; from then on the transport
// never writes into it. A retried request re-registers its Dest with
// its new tag.
func (c *Conn) CallAsync(req wire.Message) (*Pending, error) {
	if req.Dest != nil {
		if err := req.Dest.Check(); err != nil {
			return nil, fmt.Errorf("pvfsnet: call %v to %s: %w", req.Type, c.addr, err)
		}
	}
	p := &Pending{conn: c, typ: req.Type, dest: req.Dest, ch: make(chan callResult, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.rerr != nil {
		err := c.rerr
		c.mu.Unlock()
		return nil, err
	}
	c.nextTag++
	if c.nextTag == 0 { // tag 0 means "untagged"; skip it on wrap
		c.nextTag = 1
	}
	tag := c.nextTag
	p.tag = tag
	c.pending[tag] = p
	c.mu.Unlock()

	req.Tag = tag
	c.wmu.Lock()
	err := wire.WriteMessage(c.c, req)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, tag)
		c.mu.Unlock()
		err = fmt.Errorf("pvfsnet: call %v to %s: %w", req.Type, c.addr, err)
		c.breakStream(err) // a torn frame leaves the stream unusable
		return nil, err
	}
	return p, nil
}

// Wait blocks until the response for this call arrives. Non-OK response
// statuses are returned as *wire.StatusError alongside the message.
// Exactly one of Wait/WaitContext/Abandon must be called per Pending.
func (p *Pending) Wait() (wire.Message, error) {
	return p.settle(<-p.ch)
}

func (p *Pending) settle(res callResult) (wire.Message, error) {
	if res.err != nil {
		return wire.Message{}, fmt.Errorf("pvfsnet: response for %v from %s: %w", p.typ, p.conn.addr, res.err)
	}
	return res.msg, res.msg.Status.Err()
}

// WaitContext blocks until the response arrives or ctx is done. On
// cancellation/deadline the call's tag is abandoned — the connection
// stays healthy for every other tag, and the eventual response is
// discarded by the read loop — and the context error is returned. A
// response that already arrived wins over a simultaneous cancellation.
func (p *Pending) WaitContext(ctx context.Context) (wire.Message, error) {
	select {
	case res := <-p.ch:
		return p.settle(res)
	case <-ctx.Done():
	}
	// Canceled: abandon the tag, but prefer a result that raced in.
	if res, ok := p.abandon(); ok {
		return p.settle(res)
	}
	return wire.Message{}, fmt.Errorf("pvfsnet: call %v to %s: %w", p.typ, p.conn.addr, ctx.Err())
}

// Abandon gives up on the call without waiting: the tag is marked
// abandoned so its response (if it ever arrives) is discarded and its
// pooled body recycled, and the connection stays usable. If the
// response already arrived, it is released here. Once Abandon returns,
// the call's Dest is the caller's again: nothing writes into it.
func (p *Pending) Abandon() {
	if res, ok := p.abandon(); ok && res.err == nil {
		res.msg.Release()
	}
}

// aLongTimeAgo is the read deadline that wakes a blocked read at once.
var aLongTimeAgo = time.Unix(1, 0)

// abandon gives the call up, by the state its response is in:
//
//   - not yet arrived: the tag moves to the abandoned set and the Dest
//     is dropped with the pending entry; the late body drains into a
//     pooled buffer;
//   - being scattered into the Dest: the read is woken by a past
//     deadline and abandon waits until the read loop has let go of the
//     memory (a stalled peer cannot hold it: the deadline ends the wait);
//   - being read into a pooled body: the call is settled here and the
//     read loop recycles the body when it is complete;
//   - already delivered (or failed): that result is returned (ok=true).
func (p *Pending) abandon() (callResult, bool) {
	c := p.conn
	c.mu.Lock()
	if _, pending := c.pending[p.tag]; pending {
		delete(c.pending, p.tag)
		c.abandoned[p.tag] = struct{}{}
		c.mu.Unlock()
		return callResult{}, false
	}
	if c.scattering == p {
		p.settled.Store(true)
		c.abort = true
		c.c.SetReadDeadline(aLongTimeAgo)
		for c.scattering == p {
			c.released.Wait()
		}
		c.mu.Unlock()
		return callResult{}, false
	}
	c.mu.Unlock()
	if p.settled.CompareAndSwap(false, true) {
		return callResult{}, false
	}
	// A result was delivered, or is on its way, to the buffered channel.
	return <-p.ch, true
}

// Call sends req and waits for the matching response. Non-OK response
// statuses are returned as *wire.StatusError alongside the message.
func (c *Conn) Call(req wire.Message) (wire.Message, error) {
	p, err := c.CallAsync(req)
	if err != nil {
		return wire.Message{}, err
	}
	return p.Wait()
}

// CallContext is Call with cancellation: if ctx ends before the
// response arrives, the tag is abandoned (the connection remains
// usable for other tags) and the context error is returned.
func (c *Conn) CallContext(ctx context.Context, req wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return wire.Message{}, fmt.Errorf("pvfsnet: call %v to %s: %w", req.Type, c.addr, err)
	}
	p, err := c.CallAsync(req)
	if err != nil {
		return wire.Message{}, err
	}
	return p.WaitContext(ctx)
}

// Addr returns the remote address.
func (c *Conn) Addr() string { return c.addr }

// Close shuts the connection down; pending calls fail with ErrClosed.
func (c *Conn) Close() error {
	c.dead.Store(true)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.c.Close()
}

// Pool caches one Conn per address, creating them on demand. The PVFS
// client keeps one connection per daemon for the life of the process;
// a connection that died — a daemon restart keeps its address, but the
// stale socket must go — is dropped and redialed by the next Get.
type Pool struct {
	mu      sync.Mutex
	conns   map[string]*Conn
	dialing map[string]*poolDial
	closed  bool
	dial    func(string) (*Conn, error) // test seam; nil selects Dial
	wrap    func(net.Conn) net.Conn     // applied to every dialed net.Conn
}

// SetConnWrap installs w on the pool: every subsequently dialed TCP
// connection is passed through it before the tagged transport takes
// over. Fault-injection harnesses (internal/faultnet) use it to run a
// client over a scripted faulty wire; nil removes the hook. Existing
// pooled connections are unaffected.
func (p *Pool) SetConnWrap(w func(net.Conn) net.Conn) {
	p.mu.Lock()
	p.wrap = w
	p.mu.Unlock()
}

// poolDial tracks one in-progress dial so concurrent Gets for the same
// address share it instead of dialing redundantly.
type poolDial struct {
	done chan struct{}
	c    *Conn
	err  error
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{conns: make(map[string]*Conn), dialing: make(map[string]*poolDial)}
}

// Get returns the pooled connection for addr, dialing if needed. The
// dial happens outside the pool lock, so one slow or unreachable daemon
// never blocks lookups for other addresses; concurrent Gets for the
// same address share a single dial.
func (p *Pool) Get(addr string) (*Conn, error) {
	return p.GetContext(context.Background(), addr)
}

// poolDialTimeout bounds the shared singleflight dial. The dial is
// detached from any one caller's context — several operations may be
// waiting on it, and one operation's cancellation must not fail the
// others — so this cap is what keeps a blackholed address from
// parking the dial slot forever.
const poolDialTimeout = 30 * time.Second

// GetContext is Get honoring ctx: every caller stops waiting when its
// own ctx ends. A pooled connection that is dead (see Conn) is closed
// and forgotten, and a new one dialed. The dial itself is shared
// (singleflight) and detached — it runs on under poolDialTimeout even
// if the initiating caller cancels, and a successful connection lands
// in the pool for later Gets — so one operation's cancellation never
// fails another operation's Get.
func (p *Pool) GetContext(ctx context.Context, addr string) (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	stale := p.conns[addr]
	if stale != nil && !stale.dead.Load() {
		p.mu.Unlock()
		return stale, nil
	}
	delete(p.conns, addr)
	d, ok := p.dialing[addr]
	if !ok {
		d = &poolDial{done: make(chan struct{})}
		p.dialing[addr] = d
		dial := p.dial
		wrap := p.wrap
		if dial == nil {
			dial = func(a string) (*Conn, error) {
				dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), poolDialTimeout)
				defer cancel()
				var nd net.Dialer
				nc, err := nd.DialContext(dctx, "tcp", a)
				if err != nil {
					return nil, fmt.Errorf("pvfsnet: dial %s: %w", a, err)
				}
				if wrap != nil {
					nc = wrap(nc)
				}
				return NewConn(a, nc), nil
			}
		}
		go func() {
			c, err := dial(addr)
			p.mu.Lock()
			delete(p.dialing, addr)
			if err == nil {
				if p.closed {
					c.Close()
					c, err = nil, ErrClosed
				} else {
					p.conns[addr] = c
				}
			}
			p.mu.Unlock()
			d.c, d.err = c, err
			close(d.done)
		}()
	}
	p.mu.Unlock()
	if stale != nil {
		stale.Close()
	}
	select {
	case <-d.done:
		return d.c, d.err
	case <-ctx.Done():
		return nil, fmt.Errorf("pvfsnet: awaiting dial of %s: %w", addr, ctx.Err())
	}
}

// Close closes every pooled connection.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	var first error
	for addr, c := range p.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		delete(p.conns, addr)
	}
	return first
}
