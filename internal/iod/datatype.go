package iod

// Server-side access-pattern evaluation (DESIGN.md §6). A datatype
// request carries the encoded constructor tree, a repetition count, a
// base offset and the striping geometry; the daemon walks the pattern,
// intersects it with its own stripe and streams the data. The region
// list the pattern flattens to is never materialized: evaluation state
// is O(tree depth) regardless of how many contiguous fragments the
// pattern describes, which is what removes list I/O's linear
// region-to-request relationship (paper §5).

import (
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/store"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// Evaluation limits. They bound daemon CPU and memory per request, not
// pattern expressiveness: a client that needs more splits the transfer
// into more windows.
const (
	// maxEvalSegments caps the contiguous pattern fragments one request
	// evaluation may visit. Each visited fragment covers at least one
	// data byte, so this also caps walk CPU. A 64 MiB window of 8-byte
	// fragments striped 16-wide scans ~128M bytes of pattern — still
	// within budget at the default window sizes; hostile patterns that
	// scatter a window across more fragments than this are refused.
	maxEvalSegments = 1 << 22

	// maxEvalPCount / maxEvalStripe bound the striping geometry a
	// request may carry so stripe-cycle arithmetic cannot overflow.
	maxEvalPCount = 1 << 16
	maxEvalStripe = 1 << 40
)

// checkGeometry validates the striping config and relative index of a
// pattern-evaluating request.
func checkGeometry(cfg striping.Config, rel int) wire.Status {
	if cfg.Validate() != nil || cfg.PCount > maxEvalPCount || cfg.StripeSize > maxEvalStripe ||
		rel < 0 || rel >= cfg.PCount {
		return wire.StatusInvalid
	}
	return wire.StatusOK
}

// decodePattern decodes and validates the pattern of a datatype
// request: the type tree, its repetition bounds and the striping
// geometry. A nil error guarantees every offset the walk emits lies in
// non-negative int64 space (datatype.CheckPattern).
func decodePattern(body *wire.ReadDatatypeReq) (datatype.Type, wire.Status) {
	if st := checkGeometry(body.Striping, body.RelIndex); st != wire.StatusOK {
		return nil, st
	}
	t, err := datatype.Decode(body.TypeEnc)
	if err != nil {
		return nil, wire.StatusProtocol
	}
	if _, _, err := datatype.CheckPattern(t, body.Base, body.Count); err != nil {
		return nil, wire.StatusInvalid
	}
	return t, wire.StatusOK
}

// evalWindow streams the physical pieces of one request window: it
// seeks the walk of count repetitions of t at base to data position
// dataPos (O(tree depth) for uniform constructors), clips each emitted
// logical fragment to relative server rel, and invokes fn for each
// physical extent in logical order until want owned bytes are covered
// or the pattern ends. fn returning false aborts with StatusIOError.
// Memory is O(tree depth); fragments visited are capped by
// maxEvalSegments.
func evalWindow(t datatype.Type, base, count int64, cfg striping.Config, rel int, dataPos, want int64, fn func(phys ioseg.Segment) bool) (filled, pieces int64, st wire.Status) {
	if want == 0 {
		return 0, 0, wire.StatusOK
	}
	st = wire.StatusOK
	budget := maxEvalSegments
	datatype.WalkRepeated(t, base, count, dataPos, func(seg ioseg.Segment) bool {
		budget--
		if budget < 0 {
			st = wire.StatusInvalid
			return false
		}
		return cfg.ClipServer(seg, rel, func(p striping.Piece) bool {
			phys := p.Phys
			if rem := want - filled; phys.Length > rem {
				phys.Length = rem
			}
			if !fn(phys) {
				st = wire.StatusIOError
				return false
			}
			filled += phys.Length
			pieces++
			return filled < want
		})
	})
	return filled, pieces, st
}

// vecBatchSegs bounds the physical extents a pattern evaluation
// batches before submitting to the store. Memory stays O(batch) — the
// region list the pattern flattens to is still never materialized —
// while the store sees one submission per batch instead of one per
// fragment. Exactly-adjacent extents merge as they arrive, so dense
// windows (the FLASH shapes) usually collapse far below the cap.
const vecBatchSegs = 2048

// vecApplier accumulates the physical extents a pattern walk emits in
// logical order and applies each batch with store.ApplyPacked, the path
// list windows take too (DESIGN.md §11). data is the packed stream the
// window moves (read target or write source); extents are applied in
// arrival order across batches, so the exact per-fragment semantics —
// including overlapping writes, later wins — are preserved.
type vecApplier struct {
	st      store.Store
	handle  uint64
	data    []byte
	isWrite bool
	segs    ioseg.List
	pos     int64 // stream position where segs[0] begins
	next    int64 // stream position past the last batched byte
}

// add batches one emitted extent, flushing when the batch is full. It
// returns false when a flush failed (the walk then aborts).
func (a *vecApplier) add(phys ioseg.Segment) bool {
	if n := len(a.segs); n > 0 && a.segs[n-1].End() == phys.Offset {
		a.segs[n-1].Length += phys.Length
	} else {
		if len(a.segs) == vecBatchSegs && !a.flush() {
			return false
		}
		a.segs = append(a.segs, phys)
	}
	a.next += phys.Length
	return true
}

// flush submits the pending batch. It must also be called once after
// the walk completes.
func (a *vecApplier) flush() bool {
	if len(a.segs) == 0 {
		return true
	}
	_, err := store.ApplyPacked(a.st, a.handle, a.segs, a.data[a.pos:a.next], a.isWrite)
	a.segs = a.segs[:0]
	a.pos = a.next
	return err == nil
}

func (s *Server) readDatatype(req wire.Message) wire.Message {
	var body wire.ReadDatatypeReq
	if err := body.Unmarshal(req.Body); err != nil {
		return fail(wire.StatusProtocol)
	}
	t, st := decodePattern(&body)
	if st != wire.StatusOK {
		return fail(st)
	}
	out := wire.GetBuf(int(body.Want))
	ap := &vecApplier{st: s.st, handle: req.Handle, data: out}
	filled, pieces, st := evalWindow(t, body.Base, body.Count, body.Striping, body.RelIndex,
		body.DataPos, body.Want, ap.add)
	if st == wire.StatusOK && !ap.flush() {
		st = wire.StatusIOError
	}
	if st != wire.StatusOK {
		wire.PutBuf(out)
		return fail(st)
	}
	s.account(func(stats *wire.ServerStats) {
		stats.Requests++
		stats.DatatypeRequests++
		stats.Regions += pieces
		stats.BytesRead += filled
		stats.TypeBytes += int64(len(body.TypeEnc))
	})
	return okPooled(req.Handle, out[:filled])
}

func (s *Server) writeDatatype(req wire.Message) wire.Message {
	var body wire.WriteDatatypeReq
	if err := body.Unmarshal(req.Body); err != nil {
		return fail(wire.StatusProtocol)
	}
	t, st := decodePattern(&body.ReadDatatypeReq)
	if st != wire.StatusOK {
		return fail(st)
	}
	ap := &vecApplier{st: s.st, handle: req.Handle, data: body.Data, isWrite: true}
	filled, pieces, st := evalWindow(t, body.Base, body.Count, body.Striping, body.RelIndex,
		body.DataPos, body.Want, ap.add)
	if st == wire.StatusOK && !ap.flush() {
		st = wire.StatusIOError
	}
	if st != wire.StatusOK {
		return fail(st)
	}
	if filled != body.Want {
		// The window named more bytes than the pattern holds for this
		// server from DataPos on: the payload cannot correspond.
		return fail(wire.StatusInvalid)
	}
	s.account(func(stats *wire.ServerStats) {
		stats.Requests++
		stats.DatatypeRequests++
		stats.Regions += pieces
		stats.BytesWritten += filled
		stats.TypeBytes += int64(len(body.TypeEnc))
	})
	return ok(req.Handle, (&wire.WrittenResp{N: filled}).Marshal())
}
