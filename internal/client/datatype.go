package client

// Datatype I/O (DESIGN.md §6): the access pattern crosses the wire as
// an encoded constructor tree and each I/O daemon evaluates its own
// share. The client's job shrinks to windowing and memory movement:
// cut each server's share of the pattern-data stream into
// response-size windows, pipeline one request per window, and
// scatter/gather between the user arena and pooled message bodies via
// memio.StreamMap. Wire requests per server are O(transfer size /
// window) — independent of how many contiguous fragments the pattern
// flattens to, the paper's §5 fix for list I/O's linear request
// growth.

import (
	"context"
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

// dtPlan is the validated, encoded form of one datatype operation.
type dtPlan struct {
	enc     []byte  // wire encoding of the type
	dataLen int64   // pattern data bytes (count * t.Size())
	maxEnd  int64   // highest file offset written + 1 (write high-water)
	owned   []int64 // per relative server: bytes of the pattern it holds
}

// planDatatype validates the pattern against the memory list — through
// smap, the stream map of mem, whose build pass already holds every
// answer (see checkMapped) — and computes each server's share. The
// sizing walk is streaming: O(tree depth) state, closed-form striping
// arithmetic per fragment — the flattened region list is never
// materialized, even client-side.
func (f *File) planDatatype(arena []byte, smap *memio.StreamMap, mem ioseg.List, t datatype.Type, base, count int64) (*dtPlan, error) {
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
	p := &dtPlan{enc: enc, dataLen: dataLen, owned: make([]int64, cfg.PCount)}
	datatype.WalkRepeated(t, base, count, 0, func(seg ioseg.Segment) bool {
		for rel := range p.owned {
			p.owned[rel] += cfg.PhysRange(rel, seg.Offset, seg.End())
		}
		if seg.End() > p.maxEnd {
			p.maxEnd = seg.End()
		}
		return true
	})
	return p, nil
}

// dtWindows iterates one server's share of the pattern-data stream in
// window-sized steps. Each call to next resumes the walk at the data
// position where the previous window's last owned byte ended (an
// O(tree depth) seek), so the full iteration visits each pattern
// fragment once; live state is one window's piece list, never the
// flattened pattern.
type dtWindows struct {
	t           datatype.Type
	base, count int64
	cfg         striping.Config
	rel         int
	winBytes    int64

	nextPos   int64 // data-stream position to resume scanning at
	remaining int64 // owned bytes not yet windowed
}

// next cuts the next window: the data position the server's evaluation
// should seek to, the owned bytes it should transfer, and the runs of
// the pattern-data stream those bytes occupy, in the order the window's
// body holds them (for arena scatter/gather). It must not be called
// once remaining is zero.
func (w *dtWindows) next() (dataPos, want int64, pieces []memio.Piece) {
	want = w.winBytes
	if want > w.remaining {
		want = w.remaining
	}
	dataPos = w.nextPos
	stream := dataPos
	var got int64
	datatype.WalkRepeated(w.t, w.base, w.count, dataPos, func(seg ioseg.Segment) bool {
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
	return dataPos, got, pieces
}

// datatypeServers builds the per-server window iterators (servers with
// no share are skipped entirely).
func (f *File) datatypeServers(p *dtPlan, t datatype.Type, base, count, winBytes int64) []*dtWindows {
	var jobs []*dtWindows
	for rel, owned := range p.owned {
		if owned == 0 {
			continue
		}
		jobs = append(jobs, &dtWindows{
			t: t, base: base, count: count,
			cfg: f.info.Striping, rel: rel,
			winBytes: winBytes, remaining: owned,
		})
	}
	return jobs
}

// readDatatype reads count repetitions of datatype t at base into the
// arena regions of mem (pattern-stream order: the i-th data byte of
// the pattern lands at the i-th byte of the concatenated memory
// regions). One request per server per WindowBytes of that server's
// share travels the wire — fragment count does not appear in the
// request arithmetic — window of them in flight, and responses scatter
// straight from pooled bodies into the arena.
func (f *File) readDatatype(ctx context.Context, arena []byte, smap *memio.StreamMap, mem ioseg.List, t datatype.Type, base, count int64, opts DatatypeOptions, window int) error {
	plan, err := f.planDatatype(arena, smap, mem, t, base, count)
	if err != nil {
		return err
	}
	path := &f.fs.stats.Datatype
	winBytes := opts.windowBytes()
	jobs := f.datatypeServers(plan, t, base, count, winBytes)
	return parallel(jobs, func(w *dtWindows) error {
		n := int((w.remaining + winBytes - 1) / winBytes)
		wins := make([][]memio.Piece, n)
		wants := make([]int64, n)
		return f.fs.pipelineCalls(ctx, f.info.IODAddrs[w.rel], n, window,
			func(i int) (wire.Message, error) {
				dataPos, want, pieces := w.next()
				wins[i], wants[i] = pieces, want
				req := wire.ReadDatatypeReq{
					Base: base, Count: count, DataPos: dataPos, Want: want,
					Striping: f.info.Striping, RelIndex: w.rel, TypeEnc: plan.enc,
				}
				body := req.AppendTo(wire.GetBuf(wire.DatatypeReqSize(len(plan.enc)))[:0])
				f.fs.stats.Requests.Add(1)
				path.Requests.Add(1)
				return wire.Message{
					Header: wire.Header{Type: wire.TReadDatatype, Handle: f.info.Handle},
					Body:   body,
				}, nil
			},
			func(i int, resp wire.Message) error {
				defer resp.Release()
				if int64(len(resp.Body)) != wants[i] {
					return fmt.Errorf("pvfs: datatype read returned %d bytes, want %d", len(resp.Body), wants[i])
				}
				f.fs.stats.BytesIn.Add(wants[i])
				path.Bytes.Add(wants[i])
				err := smap.ScatterPieces(arena, resp.Body, wins[i])
				wins[i] = nil
				return err
			})
	})
}

// writeDatatype writes count repetitions of datatype t at base from
// the arena regions of mem, with the same windowed, pipelined request
// discipline as readDatatype. Each window's payload is gathered
// directly from the arena into the pooled request body behind the
// encoded type.
func (f *File) writeDatatype(ctx context.Context, arena []byte, smap *memio.StreamMap, mem ioseg.List, t datatype.Type, base, count int64, opts DatatypeOptions, window int) error {
	plan, err := f.planDatatype(arena, smap, mem, t, base, count)
	if err != nil {
		return err
	}
	path := &f.fs.stats.Datatype
	winBytes := opts.windowBytes()
	jobs := f.datatypeServers(plan, t, base, count, winBytes)
	err = parallel(jobs, func(w *dtWindows) error {
		n := int((w.remaining + winBytes - 1) / winBytes)
		return f.fs.pipelineCalls(ctx, f.info.IODAddrs[w.rel], n, window,
			func(i int) (wire.Message, error) {
				dataPos, want, pieces := w.next()
				req := wire.ReadDatatypeReq{
					Base: base, Count: count, DataPos: dataPos, Want: want,
					Striping: f.info.Striping, RelIndex: w.rel, TypeEnc: plan.enc,
				}
				body := req.AppendTo(wire.GetBuf(wire.DatatypeReqSize(len(plan.enc)) + int(want))[:0])
				body, err := smap.GatherPieces(body, arena, pieces)
				if err != nil {
					wire.PutBuf(body)
					return wire.Message{}, err
				}
				f.fs.stats.Requests.Add(1)
				f.fs.stats.BytesOut.Add(want)
				path.Requests.Add(1)
				path.Bytes.Add(want)
				return wire.Message{
					Header: wire.Header{Type: wire.TWriteDatatype, Handle: f.info.Handle},
					Body:   body,
				}, nil
			},
			func(i int, resp wire.Message) error {
				resp.Release()
				return nil
			})
	})
	if err != nil {
		return err
	}
	if plan.maxEnd > 0 {
		f.noteWritten(plan.maxEnd)
	}
	return nil
}
