package client

// The request engine. A contiguous transfer, list I/O and datatype I/O
// differ only in how they cut each server's share of a transfer into
// requests, so each is a planner that does just that (planContig,
// planList, planDatatype) and one mover runs every plan: it pipelines
// each server's requests, picks each request's payload arm, checks the
// responses and keeps the counters (DESIGN.md §2, §4).

import (
	"context"
	"fmt"

	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// transfer is one planned data movement: the schedules a planner cut
// and what the mover needs to run them.
type transfer struct {
	write  bool
	arena  []byte           // the user memory the payload lives in
	smap   *memio.StreamMap // stream map of the transfer's memory regions
	window int              // requests in flight per server
	path   *PathCounters    // the method's counters; nil for none
	end    int64            // a write's high-water mark (one past its last file byte); 0 for none
	scheds []schedule       // one per server the transfer touches
}

// schedule is one server's requests, as a planner cut them. The mover
// asks for each request once, in order: next cuts request i, then
// appendFixed writes its fixed fields.
type schedule interface {
	// server is the relative server the requests go to.
	server() int
	// requests is how many requests there are.
	requests() int
	// next cuts request i: its message type, the size of its fixed
	// fields, the stream pieces its payload holds in body order and
	// their byte total.
	next(i int) (typ wire.MsgType, fixed int, pieces []memio.Piece, bytes int64)
	// appendFixed appends request i's fixed fields to body.
	appendFixed(i int, body []byte) ([]byte, error)
}

// subReq is one wire-level request of a planServer: the index range
// [lo, hi) into its piece arrays.
type subReq struct {
	lo, hi int
	bytes  int64
}

// planServer is the request schedule for one I/O server that the list
// and contiguous planners cut: the server's physical regions in logical
// order, the stream range of each (its bytes' place in a request body),
// and the request boundaries. Pieces accumulate into two flat arrays
// rather than per-request slices, so planning allocates O(log n) times
// per server instead of O(requests).
type planServer struct {
	rel    int
	typ    wire.MsgType
	phys   ioseg.List
	stream []memio.Piece
	reqs   []subReq

	openLo    int   // first piece of the not-yet-cut request
	openBytes int64 // payload bytes accumulated since the last cut
}

// add appends a piece to the open request: physical region phys, whose
// bytes sit at stream position pos.
func (ps *planServer) add(phys ioseg.Segment, pos int64) {
	ps.phys = append(ps.phys, phys)
	ps.stream = append(ps.stream, memio.Piece{Pos: pos, Len: phys.Length})
	ps.openBytes += phys.Length
}

// cut closes the open request, if it holds any pieces.
func (ps *planServer) cut() {
	if len(ps.phys) > ps.openLo {
		ps.reqs = append(ps.reqs, subReq{lo: ps.openLo, hi: len(ps.phys), bytes: ps.openBytes})
		ps.openLo = len(ps.phys)
		ps.openBytes = 0
	}
}

func (ps *planServer) server() int   { return ps.rel }
func (ps *planServer) requests() int { return len(ps.reqs) }

// next returns request i. A contiguous request's fixed fields are its
// physical offset (and a read's length); a list request's are its
// region descriptors.
func (ps *planServer) next(i int) (wire.MsgType, int, []memio.Piece, int64) {
	r := ps.reqs[i]
	fixed := wire.TrailingDataSize(r.hi - r.lo)
	switch ps.typ {
	case wire.TRead:
		fixed = wire.ReadReqSize
	case wire.TWrite:
		fixed = wire.WriteReqFixedSize
	}
	return ps.typ, fixed, ps.stream[r.lo:r.hi], r.bytes
}

func (ps *planServer) appendFixed(i int, body []byte) ([]byte, error) {
	r := ps.reqs[i]
	switch ps.typ {
	case wire.TRead:
		req := wire.ReadReq{Offset: ps.phys[r.lo].Offset, Length: r.bytes}
		return req.Append(body), nil
	case wire.TWrite:
		req := wire.WriteReq{Offset: ps.phys[r.lo].Offset}
		return req.AppendFixed(body), nil
	}
	return wire.AppendRegions(body, ps.phys[r.lo:r.hi])
}

// planServers hands out the per-server schedules of one transfer.
type planServers struct {
	typ   wire.MsgType
	byRel []*planServer // nil for a server with no piece yet
}

func newPlanServers(cfg striping.Config, typ wire.MsgType) planServers {
	return planServers{typ: typ, byRel: make([]*planServer, cfg.PCount)}
}

// get returns server rel's schedule, opening it on first use.
func (p planServers) get(rel int) *planServer {
	if p.byRel[rel] == nil {
		p.byRel[rel] = &planServer{rel: rel, typ: p.typ}
	}
	return p.byRel[rel]
}

// cutAll closes every server's open request.
func (p planServers) cutAll() {
	for _, ps := range p.byRel {
		if ps != nil {
			ps.cut()
		}
	}
}

// schedules closes the open requests and returns the schedules of the
// servers that got pieces, in server order.
func (p planServers) schedules() []schedule {
	p.cutAll()
	var out []schedule
	for _, ps := range p.byRel {
		if ps != nil {
			out = append(out, ps)
		}
	}
	return out
}

// contig moves one contiguous logical extent at off from or into p, the
// entry point of every method that moves contiguous extents (multiple
// I/O, data sieving); path attributes the requests to that method.
func (f *File) contig(ctx context.Context, write bool, p []byte, off int64, path *PathCounters) error {
	return f.move(ctx, f.planContig(write, p, off, path))
}

// planContig plans the contiguous transfer of p at logical offset off.
// A server's share of it is one physically contiguous extent, cut into
// DefaultWindowBytes requests, a stripe unit straddling a cut split
// there; the memory side is one region over p. Every request is one
// extent of p in the mover's sense, so a write's payload goes to the
// socket from p and a read's response lands in p: nothing is staged,
// no share is bounded by the frame limit, and a failed request replays
// alone.
func (f *File) planContig(write bool, p []byte, off int64, path *PathCounters) *transfer {
	n := int64(len(p))
	x := &transfer{
		write: write, arena: p, smap: memio.NewStreamMap(ioseg.List{{Offset: 0, Length: n}}),
		window: DefaultWindow, path: path,
	}
	typ := wire.TRead
	if write {
		typ = wire.TWrite
		if n > 0 {
			x.end = off + n
		}
	}
	plans := newPlanServers(f.info.Striping, typ)
	f.info.Striping.SplitFunc(ioseg.Segment{Offset: off, Length: n}, func(sp striping.Piece) {
		ps := plans.get(sp.Server)
		pos, phys := sp.Logical.Offset-off, sp.Phys
		for phys.Length > 0 {
			take := min(phys.Length, DefaultWindowBytes-ps.openBytes)
			ps.add(ioseg.Segment{Offset: phys.Offset, Length: take}, pos)
			if ps.openBytes == DefaultWindowBytes {
				ps.cut()
			}
			pos, phys.Offset, phys.Length = pos+take, phys.Offset+take, phys.Length-take
		}
	})
	x.scheds = plans.schedules()
	return x
}

// move runs the transfer x: every server's schedule through
// pipelineCalls, in parallel across servers, x.window requests in
// flight per server. A request goes out as request builds it; a read's
// response must hold exactly the request's bytes, and lands in the
// arena (the copy-free arm) or is scattered there from its pooled body.
// A write that completes records its high-water mark for Close.
func (f *File) move(ctx context.Context, x *transfer) error {
	err := parallel(x.scheds, func(s schedule) error {
		rel := s.server()
		sent := make([]sentReq, s.requests())
		return f.fs.pipelineCalls(ctx, f.info.IODAddrs[rel], len(sent), x.window,
			func(i int) (wire.Message, error) {
				msg, err := f.request(x, s, i, &sent[i])
				return msg, err
			},
			func(i int, resp wire.Message) error {
				defer resp.Release()
				if x.write {
					return nil // the acknowledgement's body is advisory
				}
				r := sent[i]
				sent[i] = sentReq{} // a window's pieces need not outlive it
				if int64(resp.BodyLen) != r.bytes {
					return fmt.Errorf("pvfs: read from server %d returned %d bytes, want %d", rel, resp.BodyLen, r.bytes)
				}
				f.fs.stats.BytesIn.Add(r.bytes)
				if x.path != nil {
					x.path.Bytes.Add(r.bytes)
				}
				if resp.Body == nil {
					return nil // the body landed in the arena: the request's Dest
				}
				return x.smap.ScatterPieces(x.arena, resp.Body, r.pieces)
			})
	})
	if err == nil && x.end > 0 {
		f.noteWritten(x.end)
	}
	return err
}

// sentReq is what consuming a read's response needs of its request.
type sentReq struct {
	pieces []memio.Piece
	bytes  int64
}

// request builds request i of schedule s: its fixed fields in a pooled
// body, then its payload by the arm vec picks — a write's payload a
// wire.Vec over the arena (BodyStream) or gathered into the body behind
// the fixed fields, a read's response landing in the arena (Dest) or in
// a pooled body to scatter. The wire bytes are the same on either arm.
// It counts the request, and a write's bytes, and records in sent what
// the response will be checked and scattered against.
func (f *File) request(x *transfer, s schedule, i int, sent *sentReq) (wire.Message, error) {
	typ, fixed, pieces, n := s.next(i)
	vec, err := x.vec(pieces, n)
	if err != nil {
		return wire.Message{}, err
	}
	gather := x.write && vec == nil
	size := fixed
	if gather {
		size += int(n)
	}
	body, err := s.appendFixed(i, wire.GetBuf(size)[:0])
	if err == nil && gather {
		body, err = x.smap.GatherPieces(body, x.arena, pieces)
	}
	if err != nil {
		wire.PutBuf(body)
		return wire.Message{}, err
	}
	msg := wire.Message{Header: wire.Header{Type: typ, Handle: f.info.Handle}, Body: body}
	if vec != nil && x.write {
		msg.BodyStream = vec
	} else if vec != nil {
		msg.Dest = vec
	}
	f.fs.stats.Requests.Add(1)
	if x.path != nil {
		x.path.Requests.Add(1)
	}
	if x.write {
		f.fs.stats.BytesOut.Add(n)
		if x.path != nil {
			x.path.Bytes.Add(n)
		}
	}
	*sent = sentReq{pieces: pieces, bytes: n}
	return msg, nil
}

// vec returns the copy-free arm's payload when every piece is one
// extent of the arena: a wire.Vec over those extents, abutting ones
// merged — nil or contiguous memory, or memory regions one to one with
// the file's. It returns nil at the first piece that is more than one
// extent (FLASH-shaped memory), having looked no further into it than
// its second extent: that request's bytes are gathered or scattered
// instead. The arm is chosen per request.
func (x *transfer) vec(pieces []memio.Piece, n int64) (*wire.Vec, error) {
	var ext [][]byte
	lo, hi := int64(-1), int64(-1) // arena extent of the last Vec piece
	for _, p := range pieces {
		if p.Len == 0 {
			continue
		}
		off, one, err := x.smap.Extent(x.arena, p.Pos, p.Len)
		if err != nil || !one {
			return nil, err
		}
		if off != hi {
			if ext == nil {
				ext = make([][]byte, 0, len(pieces))
			}
			ext = append(ext, nil)
			lo = off
		}
		hi = off + p.Len
		ext[len(ext)-1] = x.arena[lo:hi]
	}
	return &wire.Vec{N: int(n), Pieces: ext}, nil
}
