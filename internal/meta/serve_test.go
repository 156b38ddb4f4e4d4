package meta

import (
	"errors"
	"log"
	"net"
	"testing"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/wire"
)

// panicWriter panics on every write: a logger over it turns the first
// line a handler logs into a handler panic.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("log write") }

// A served master counts the handler panics its listener recovers, in
// Node.Stats and over TServerStats, and its connection goes on
// answering. The panic is the one line a follower's handler logs: the
// note of a replica, restarted over damaged state, that a leader's
// append has resynced.
func TestMasterHandlerPanicsCounted(t *testing.T) {
	tm := testTiming()
	tm.ElectionLo, tm.ElectionHi = time.Hour, 2*time.Hour // no timer logs
	n, err := NewNode(NodeOptions{ID: 0, Peers: []string{"follower", deadAddr(t)}, Timing: tm, Logger: log.New(panicWriter{}, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Serve(ln, nil).Close()
	n.locked(func() { n.c.resync = true })
	c, err := pvfsnet.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hb := wire.MetaAppendReq{Term: 1, Leader: 1}
	var se *wire.StatusError
	if _, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TMetaAppend}, Body: hb.Marshal()}); !errors.As(err, &se) || se.Status != wire.StatusProtocol {
		t.Fatalf("append whose note panics: %v, want StatusProtocol", err)
	}
	if got := n.Stats().HandlerPanics; got != 1 {
		t.Fatalf("Node.Stats counts %d handler panics, want 1", got)
	}
	resp, err := c.Call(wire.Message{Header: wire.Header{Type: wire.TServerStats}})
	if err != nil {
		t.Fatalf("stats after a panic on the same connection: %v", err)
	}
	var st wire.ServerStats
	if err := st.Unmarshal(resp.Body); err != nil {
		t.Fatal(err)
	}
	if st.HandlerPanics != 1 {
		t.Fatalf("TServerStats counts %d handler panics, want 1", st.HandlerPanics)
	}
}
