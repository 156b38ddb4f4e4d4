package client

// Datatype I/O (DESIGN.md §6): the access pattern crosses the wire as
// an encoded constructor tree and each I/O daemon evaluates its own
// share. The client's job shrinks to windowing: planDatatype cuts each
// server's share of the pattern-data stream into response-size windows,
// and the mover (move.go) pipelines one request per window and moves
// each window's bytes between the user arena and the wire. Wire
// requests per server are O(transfer size / window) — independent of
// how many contiguous fragments the pattern flattens to, the paper's §5
// fix for list I/O's linear request growth.

import (
	"fmt"

	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// DatatypeOptions tunes datatype I/O.
type DatatypeOptions struct {
	// WindowBytes caps the payload of one request (a server's bytes in
	// pattern-stream order). 0 selects DefaultWindowBytes;
	// values above wire.MaxBodyLen are clipped to it.
	WindowBytes int64
}

func (o DatatypeOptions) windowBytes() int64 {
	w := o.WindowBytes
	if w <= 0 {
		w = DefaultWindowBytes
	}
	if w > wire.MaxBodyLen {
		w = wire.MaxBodyLen
	}
	return w
}

// planDatatype plans datatype I/O of count repetitions of t at base
// from or into the arena regions of mem (pattern-stream order: the i-th
// data byte of the pattern is the i-th byte of the concatenated memory
// regions); smap is the stream map of mem, whose build pass already
// holds every answer validation needs (see checkMapped). The sizing
// walk that finds each server's share is streaming: O(tree depth)
// state, closed-form striping arithmetic per fragment — the flattened
// region list is never materialized, even client-side. One request per
// server per WindowBytes of its share travels the wire: fragment count
// does not appear in the request arithmetic.
func (f *File) planDatatype(write bool, arena []byte, smap *memio.StreamMap, mem ioseg.List, t datatype.Type, base, count int64, opts DatatypeOptions, window int) (*transfer, error) {
	dataLen, _, err := datatype.CheckPattern(t, base, count)
	if err != nil {
		return nil, fmt.Errorf("pvfs: %w", err)
	}
	if err := smap.Err(); err != nil {
		return nil, fmt.Errorf("pvfs: memory list: %w", err)
	}
	if smap.Total() != dataLen {
		return nil, fmt.Errorf("pvfs: memory list covers %d bytes, pattern %d", smap.Total(), dataLen)
	}
	if err := checkMappedArena(arena, smap, mem); err != nil {
		return nil, err
	}
	enc, err := datatype.Encode(t)
	if err != nil {
		return nil, fmt.Errorf("pvfs: %w", err)
	}
	cfg := f.info.Striping
	owned := make([]int64, cfg.PCount) // per relative server: bytes of the pattern it holds
	var maxEnd int64
	datatype.WalkRepeated(t, base, count, 0, func(seg ioseg.Segment) bool {
		for rel := range owned {
			owned[rel] += cfg.PhysRange(rel, seg.Offset, seg.End())
		}
		maxEnd = max(maxEnd, seg.End())
		return true
	})
	x := &transfer{write: write, arena: arena, smap: smap, window: window, path: &f.fs.stats.Datatype}
	typ := wire.TReadDatatype
	if write {
		typ, x.end = wire.TWriteDatatype, maxEnd
	}
	winBytes := opts.windowBytes()
	for rel, n := range owned {
		if n == 0 {
			continue // a server with no share gets no request
		}
		x.scheds = append(x.scheds, &dtWindows{
			typ: typ, enc: enc, t: t, base: base, count: count,
			cfg: cfg, rel: rel, winBytes: winBytes,
			n: int((n + winBytes - 1) / winBytes), remaining: n,
		})
	}
	return x, nil
}

// dtWindows is one server's datatype schedule: its share of the
// pattern-data stream in window-sized requests, cut lazily. Each call to
// next resumes the walk at the data position where the previous window's
// last owned byte ended (an O(tree depth) seek), so the full iteration
// visits each pattern fragment once; live state is one window's piece
// list, never the flattened pattern.
type dtWindows struct {
	typ         wire.MsgType
	enc         []byte // wire encoding of the type
	t           datatype.Type
	base, count int64
	cfg         striping.Config
	rel         int
	winBytes    int64
	n           int // windows

	nextPos   int64 // data-stream position to resume scanning at
	remaining int64 // owned bytes not yet windowed

	dataPos, want int64 // the window next cut last: where the server seeks, what it moves
}

func (w *dtWindows) server() int   { return w.rel }
func (w *dtWindows) requests() int { return w.n }

// next cuts the next window: the data position the server's evaluation
// should seek to, the owned bytes it should transfer, and the runs of
// the pattern-data stream those bytes occupy, in the order the window's
// body holds them.
func (w *dtWindows) next(int) (wire.MsgType, int, []memio.Piece, int64) {
	want := min(w.winBytes, w.remaining)
	w.dataPos = w.nextPos
	stream := w.dataPos
	var got int64
	var pieces []memio.Piece
	datatype.WalkRepeated(w.t, w.base, w.count, w.dataPos, func(seg ioseg.Segment) bool {
		segStream := stream
		stream += seg.Length
		return w.cfg.ClipServer(seg, w.rel, func(p striping.Piece) bool {
			pos := segStream + (p.Logical.Offset - seg.Offset)
			take := p.Phys.Length
			if rem := want - got; take >= rem {
				take = rem
				w.nextPos = pos + take
			}
			pieces = append(pieces, memio.Piece{Pos: pos, Len: take})
			got += take
			return got < want
		})
	})
	w.remaining -= got
	w.want = got
	return w.typ, wire.DatatypeReqSize(len(w.enc)), pieces, got
}

func (w *dtWindows) appendFixed(_ int, body []byte) ([]byte, error) {
	req := wire.ReadDatatypeReq{
		Base: w.base, Count: w.count, DataPos: w.dataPos, Want: w.want,
		Striping: w.cfg, RelIndex: w.rel, TypeEnc: w.enc,
	}
	return req.AppendTo(body), nil
}
