// Package faultnet wraps net.Conn and net.Listener with scriptable,
// seed-deterministic wire faults for recovery testing: injected
// latency, connections dropped after a byte budget, frames truncated
// mid-body, stalls, and connections severed when the Kth request
// arrives. The wrapper sits below the pvfsnet framing, so the peer
// sees exactly what a crashed daemon, a wedged switch, or a torn TCP
// stream would produce — no cooperation from the protocol layer.
//
// A Plan describes the faults for one connection; a Script hands out
// Plans per connection (deterministically from a seed, so a failing
// chaos run replays exactly). Wrap a server with WrapListener, a
// client with Script.WrapConn through pvfsnet.Pool.SetConnWrap, or a
// whole in-process deployment with cluster.Options.FaultScript — any
// existing test or bench then runs over a faulty wire.
package faultnet

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pvfs/internal/wire"
)

// ErrInjected is the error surfaced by operations on a connection a
// fault closed. The peer just sees a broken TCP stream; this side's
// caller can distinguish an injected failure from a real one.
var ErrInjected = errors.New("faultnet: injected connection failure")

// Plan scripts the faults of one connection. The zero Plan is fully
// transparent. Frame counts are 1-based; 0 disables a fault.
type Plan struct {
	// Latency is added to every Read and every Write call (each call
	// sleeps once before touching the wire), simulating a slow link.
	Latency time.Duration

	// DropAfterBytes closes the connection once this many bytes have
	// crossed it, in both directions combined — mid-frame if that is
	// where the budget runs out. 0 disables.
	DropAfterBytes int64

	// CloseOnRequest severs the connection the moment the Kth inbound
	// frame begins to arrive (the daemon dies as the request lands;
	// on a wrapped client, as the Kth response arrives). Bytes of the
	// Kth frame are never delivered. 0 disables.
	CloseOnRequest int

	// TruncateFrame lets only the header and half the body of the Kth
	// outbound frame through, then closes: the peer reads a torn frame
	// (io.ErrUnexpectedEOF from its wire.FrameReader). 0 disables.
	TruncateFrame int

	// StallFrame sleeps StallFor before writing the Kth outbound
	// frame, without closing — a daemon that wedges mid-conversation
	// and then resumes. 0 disables.
	StallFrame int
	StallFor   time.Duration
}

// active reports whether the plan injects anything.
func (p Plan) active() bool { return p != Plan{} }

// frameTracker incrementally parses a wire-frame stream in one
// direction, so faults can be aimed at frame boundaries regardless of
// how the bytes are segmented into Read/Write calls.
type frameTracker struct {
	hdr      [wire.HeaderSize]byte
	hdrN     int   // header bytes collected for the current frame
	bodyLen  int64 // total body length of the current frame (header parsed)
	bodyLeft int64 // body bytes not yet consumed
	frames   int   // completed frames
}

// current returns the 1-based index of the frame the next byte belongs
// to, and whether that byte would be the frame's first.
func (t *frameTracker) current() (frame int, atStart bool) {
	return t.frames + 1, t.hdrN == 0 && t.bodyLeft == 0
}

// inBody reports whether the tracker is inside a frame body.
func (t *frameTracker) inBody() bool { return t.bodyLeft > 0 }

// advance consumes leading bytes of b belonging to the current frame
// section (header or body) and returns how many it took; it never
// crosses a header/body or frame boundary, and never returns 0 for a
// non-empty b.
func (t *frameTracker) advance(b []byte) int {
	if t.bodyLeft > 0 {
		n := int64(len(b))
		if n > t.bodyLeft {
			n = t.bodyLeft
		}
		t.bodyLeft -= n
		if t.bodyLeft == 0 {
			t.frames++
		}
		return int(n)
	}
	n := copy(t.hdr[t.hdrN:], b)
	t.hdrN += n
	if t.hdrN == wire.HeaderSize {
		t.bodyLen = int64(binary.BigEndian.Uint32(t.hdr[20:])) // Header.BodyLen
		t.bodyLeft = t.bodyLen
		t.hdrN = 0
		if t.bodyLen == 0 {
			t.frames++
		}
	}
	return n
}

// Conn wraps a net.Conn with a Plan. It assumes the usual transport
// discipline (at most one concurrent Read and one concurrent Write);
// the byte budget is shared between directions atomically.
type Conn struct {
	net.Conn
	plan Plan

	budget atomic.Int64 // remaining DropAfterBytes; <0 = unlimited

	rmu sync.Mutex
	rt  frameTracker

	wmu     sync.Mutex
	wt      frameTracker
	stalled bool

	closed atomic.Bool
}

// WrapConn applies plan to c. A zero plan returns c unchanged.
func WrapConn(c net.Conn, plan Plan) net.Conn {
	if !plan.active() {
		return c
	}
	fc := &Conn{Conn: c, plan: plan}
	if plan.DropAfterBytes > 0 {
		fc.budget.Store(plan.DropAfterBytes)
	} else {
		fc.budget.Store(-1)
	}
	return fc
}

// sever closes the underlying connection, firing the fault.
func (c *Conn) sever() {
	c.closed.Store(true)
	c.Conn.Close()
}

// takeBudget consumes up to n bytes of the shared budget, returning
// how many may pass and whether the connection dies after them.
func (c *Conn) takeBudget(n int) (allowed int, dead bool) {
	for {
		left := c.budget.Load()
		if left < 0 {
			return n, false
		}
		take := int64(n)
		if take > left {
			take = left
		}
		if c.budget.CompareAndSwap(left, left-take) {
			return int(take), take == left
		}
	}
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, ErrInjected
	}
	if c.plan.Latency > 0 {
		time.Sleep(c.plan.Latency)
	}
	// Sever up front when the next inbound byte would start the fatal
	// frame — no point blocking for bytes that must be discarded.
	if k := c.plan.CloseOnRequest; k > 0 {
		c.rmu.Lock()
		frame, atStart := c.rt.current()
		c.rmu.Unlock()
		if atStart && frame >= k {
			c.sever()
			return 0, ErrInjected
		}
	}
	n, err := c.Conn.Read(p)
	if n == 0 {
		return n, err
	}
	allowed, dead := c.takeBudget(n)
	c.rmu.Lock()
	deliver := allowed
	cut := false
	for off := 0; off < allowed; {
		if k := c.plan.CloseOnRequest; k > 0 {
			if frame, atStart := c.rt.current(); atStart && frame >= k {
				deliver, cut = off, true
				break
			}
		}
		off += c.rt.advance(p[off:allowed])
	}
	c.rmu.Unlock()
	if cut || dead {
		c.sever()
		if deliver == 0 {
			return 0, ErrInjected
		}
		return deliver, nil // hand up the previous frame's tail, then die
	}
	return deliver, err
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.plan.Latency > 0 {
		time.Sleep(c.plan.Latency)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	written := 0
	for len(p) > 0 {
		if c.closed.Load() {
			return written, ErrInjected
		}
		frame, atStart := c.wt.current()
		if atStart && c.plan.StallFrame == frame && !c.stalled {
			c.stalled = true
			time.Sleep(c.plan.StallFor)
		}
		truncating := c.plan.TruncateFrame > 0 && frame == c.plan.TruncateFrame
		if !c.wt.inBody() {
			// Header bytes pass through whole (truncation cuts bodies).
			n := c.wt.advance(p)
			w, err := c.writeBudgeted(p[:n])
			written += w
			if err != nil {
				return written, err
			}
			p = p[n:]
			if truncating && !c.wt.inBody() && c.wt.hdrN == 0 {
				// The target frame had no body; close right after it.
				c.sever()
				return written, ErrInjected
			}
			continue
		}
		if truncating {
			sent := c.wt.bodyLen - c.wt.bodyLeft
			allow := c.wt.bodyLen/2 - sent
			if allow <= 0 {
				c.sever()
				return written, ErrInjected
			}
			if int64(len(p)) >= allow {
				for b := p[:allow]; len(b) > 0; {
					b = b[c.wt.advance(b):]
				}
				w, err := c.writeBudgeted(p[:allow])
				written += w
				c.sever()
				if err != nil {
					return written, err
				}
				return written, ErrInjected
			}
		}
		n := c.wt.advance(p)
		w, err := c.writeBudgeted(p[:n])
		written += w
		if err != nil {
			return written, err
		}
		p = p[n:]
	}
	return written, nil
}

// writeBudgeted writes b, honoring the shared byte budget.
func (c *Conn) writeBudgeted(b []byte) (int, error) {
	allowed, dead := c.takeBudget(len(b))
	n, err := c.Conn.Write(b[:allowed])
	if dead || allowed < len(b) {
		c.sever()
		if err == nil {
			err = ErrInjected
		}
	}
	return n, err
}

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// listener wraps Accept with per-connection plans from a Script.
type listener struct {
	net.Listener
	script *Script
}

// WrapListener returns ln with every accepted connection wrapped in
// the script's next plan. A nil script returns ln unchanged.
func WrapListener(ln net.Listener, s *Script) net.Listener {
	if s == nil {
		return ln
	}
	return &listener{Listener: ln, script: s}
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.script.WrapConn(c), nil
}
