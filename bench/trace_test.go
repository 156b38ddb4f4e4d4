package main

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/wire"
)

func TestSelfTimeCountsOverlappingCallsOnce(t *testing.T) {
	op := interval{0, 100}
	calls := []interval{{10, 40}, {30, 60}, {35, 38}, {70, 80}, {90, 120}} // pipelined, nested, and one running past the op
	// Covered inside the op: [10,60) + [70,80) + [90,100) = 70.
	if got := selfTime(op, calls); got != 30 {
		t.Fatalf("selfTime = %d, want 30", got)
	}
	if got := selfTime(op, nil); got != 100 {
		t.Fatalf("selfTime with no children = %d, want 100", got)
	}
	a := union([]interval{{0, 10}, {20, 30}, {5, 12}})
	b := union([]interval{{8, 25}})
	if coverLen(a) != 22 || overlapLen(a, b) != 9 {
		t.Fatalf("cover %d overlap %d, want 22 and 9", coverLen(a), overlapLen(a, b))
	}
}

// The conn wrapper must pair frames by tag, not by order: the first
// request is answered last.
func TestTracedConnPairsOutOfOrderResponses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := pvfsnet.NewServer(ln, func(req wire.Message) wire.Message {
		if req.Body[0] == 1 {
			time.Sleep(30 * time.Millisecond)
		}
		return wire.Message{Body: req.Body}
	}, nil)
	defer srv.Close()

	rec := newRecorder()
	rank := rec.newRank()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := pvfsnet.NewConn(srv.Addr(), rank.wrapConn(raw))
	defer c.Close()

	rec.phase.Store(uint32(phaseRead))
	end := rank.begin()
	slow, err := c.CallAsync(wire.Message{Header: wire.Header{Type: wire.TPing}, Body: []byte{1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := c.CallAsync(wire.Message{Header: wire.Header{Type: wire.TPing}, Body: []byte{2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pvfsnet.Pending{fast, slow} {
		resp, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	end()

	_, rs := splitSpans(rec.all())
	if len(rs.ops) != 1 || len(rs.calls) != 2 {
		t.Fatalf("%d op spans and %d call spans, want 1 and 2", len(rs.ops), len(rs.calls))
	}
	for _, s := range rs.calls {
		if s.Op != rs.ops[0].Op {
			t.Errorf("call span has parent %d, want %d", s.Op, rs.ops[0].Op)
		}
		dur := time.Duration(s.End - s.Start)
		switch s.ReqBytes {
		case wire.HeaderSize + 3:
			if dur < 30*time.Millisecond || s.RespBytes != wire.HeaderSize+3 {
				t.Errorf("slow call: %v, %d response bytes", dur, s.RespBytes)
			}
		case wire.HeaderSize + 1:
			if dur >= 30*time.Millisecond || s.RespBytes != wire.HeaderSize+1 {
				t.Errorf("fast call: %v, %d response bytes", dur, s.RespBytes)
			}
		default:
			t.Errorf("call span with %d request bytes", s.ReqBytes)
		}
	}
	if lt := rs.times(); lt.inflight <= 1 {
		t.Errorf("in-flight mean %.2f for two overlapping calls, want > 1", lt.inflight)
	}
}

// optional reports which of the store package's optional interfaces
// st offers.
func optional(st store.Store) [7]bool {
	_, v := st.(store.VectorIO)
	_, s := st.(store.SpanIO)
	_, b := st.(store.BatchIO)
	_, f := st.(store.FileStreamer)
	_, y := st.(store.Syncer)
	_, i := st.(store.IOStatsProvider)
	_, c := st.(store.CacheStatsProvider)
	return [7]bool{v, s, b, f, y, i, c}
}

func TestTracedStoreOffersWhatItWraps(t *testing.T) {
	rec := newRecorder()
	dir, err := store.NewDir(filepath.Join(t.TempDir(), "d"))
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	cached := store.Cached(store.NewMem(), store.CacheOptions{})
	defer cached.Close()
	for _, st := range []store.Store{dir, cached} {
		if got, want := optional(rec.wrapStore(st)), optional(st); got != want {
			t.Errorf("%T: wrapper offers %v, store offers %v", st, got, want)
		}
	}

	// A traced daemon must take the same rung as an untraced one: a
	// gapped 64-span window is still one submission.
	spans := make([]store.Span, 64)
	for i := range spans {
		spans[i] = store.Span{Off: int64(i) * 8192, Bufs: [][]byte{make([]byte, 4096)}}
	}
	traced := rec.wrapStore(dir)
	rec.phase.Store(uint32(phaseWrite))
	before := traced.(store.IOStatsProvider).IOStats()
	if _, err := traced.(store.BatchIO).WriteBatch(1, spans); err != nil {
		t.Fatal(err)
	}
	delta := traced.(store.IOStatsProvider).IOStats().Sub(before)
	if store.RingAvailable() && delta.Submissions != 1 {
		t.Errorf("64-span gapped window took %d submissions through the wrapper, want 1", delta.Submissions)
	}
	if ws, _ := splitSpans(rec.all()); len(ws.stores) != 1 {
		t.Errorf("%d store spans for one call, want 1", len(ws.stores))
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	v := []float64{5, 1, 4, 2, 3}
	if percentile(v, 50) != 3 || percentile(v, 100) != 5 || percentile(v, 0) != 1 || median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("percentile or median selection is off")
	}
}
