package simcluster

import (
	"fmt"

	"pvfs/internal/client"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/wire"
)

// --- lazy entry iterators ---

// segIter lazily yields file-space entries in stream order.
type segIter func() (ioseg.Segment, bool)

func fileRegionIter(pat patterns.Pattern, rank int) segIter {
	i, n := 0, pat.FileRegions(rank)
	return func() (ioseg.Segment, bool) {
		if i >= n {
			return ioseg.Segment{}, false
		}
		s := pat.FileRegion(rank, i)
		i++
		return s, true
	}
}

// intersectIter yields (memory ∩ file) pieces lazily: a new piece
// starts whenever either the memory or the file side starts a new
// region. Patterns with contiguous memory degenerate to file regions.
func intersectIter(pat patterns.Pattern, rank int) segIter {
	mp, ok := pat.(patterns.MemPattern)
	if !ok {
		return fileRegionIter(pat, rank)
	}
	nf, nm := pat.FileRegions(rank), pat.MemPieces(rank)
	fi, mi := 0, 0
	var fOff, mOff int64
	var fseg, mseg ioseg.Segment
	loaded := false
	return func() (ioseg.Segment, bool) {
		if fi >= nf || mi >= nm {
			return ioseg.Segment{}, false
		}
		if !loaded {
			fseg = pat.FileRegion(rank, fi)
			mseg = mp.MemRegion(rank, mi)
			loaded = true
		}
		n := fseg.Length - fOff
		if r := mseg.Length - mOff; r < n {
			n = r
		}
		out := ioseg.Segment{Offset: fseg.Offset + fOff, Length: n}
		fOff += n
		mOff += n
		if fOff == fseg.Length {
			fi, fOff = fi+1, 0
			if fi < nf {
				fseg = pat.FileRegion(rank, fi)
			}
		}
		if mOff == mseg.Length {
			mi, mOff = mi+1, 0
			if mi < nm {
				mseg = mp.MemRegion(rank, mi)
			}
		}
		return out, true
	}
}

// coalesceIter merges consecutive entries whose gap is at most gap
// bytes (entries must arrive in nondecreasing offset order, which all
// patterns provide): ioseg.List.Coalesce, lazily. It implements the
// hybrid list+sieve rule.
func coalesceIter(inner segIter, gap int64) segIter {
	var pending ioseg.Segment
	havePending := false
	return func() (ioseg.Segment, bool) {
		for {
			s, ok := inner()
			if !ok {
				if havePending {
					havePending = false
					return pending, true
				}
				return ioseg.Segment{}, false
			}
			if !havePending {
				pending, havePending = s, true
				continue
			}
			if s.Offset <= pending.End()+gap && s.Offset >= pending.Offset {
				if e := s.End(); e > pending.End() {
					pending.Length = e - pending.Offset
				}
				continue
			}
			out := pending
			pending = s
			return out, true
		}
	}
}

// --- method chains ---

// multipleChain yields one step per doubly-contiguous piece: the
// traditional interface takes one buffer pointer and one file offset
// per call, so a piece boundary in either memory or file forces a new
// request (983,040 per process for FLASH, §4.3.1).
func multipleChain(p Params, pat patterns.Pattern, rank int, write bool) StepIter {
	entries := intersectIter(pat, rank)
	return func() (Step, bool) {
		seg, ok := entries()
		if !ok {
			return nil, false
		}
		pieces := p.Striping.Split(seg)
		step := make(Step, len(pieces))
		for k, pc := range pieces {
			step[k] = Op{Server: pc.Server, Payload: pc.Phys.Length, Regions: 1, Write: write}
		}
		return step, true
	}
}

// listChain yields one list request at a time: up to maxR entries in
// stream order (§3.3: "I/O requests that contain more file regions
// than the trailing data limit are broken up into several list I/O
// requests"), fanned out in parallel to the servers holding the
// batch's pieces. This is the client's planList batching: the FLASH
// arithmetic (80·24)/64 = 30 requests per process emerges from it
// (asserted in tests).
func listChain(p Params, entries segIter, write bool, maxR int) StepIter {
	nSrv := p.Striping.PCount
	counts := make([]int, nSrv)
	bytes := make([]int64, nSrv)
	return func() (Step, bool) {
		for s := 0; s < nSrv; s++ {
			counts[s], bytes[s] = 0, 0
		}
		got := 0
		for got < maxR {
			seg, ok := entries()
			if !ok {
				break
			}
			got++
			for _, pc := range p.Striping.Split(seg) {
				counts[pc.Server]++
				bytes[pc.Server] += pc.Phys.Length
			}
		}
		if got == 0 {
			return nil, false
		}
		var step Step
		for s := 0; s < nSrv; s++ {
			// A server's share can exceed the wire limit when entries
			// straddle many stripes; split defensively as the real
			// client does.
			for counts[s] > 0 {
				n := counts[s]
				if n > wire.MaxRegionsPerRequest {
					n = wire.MaxRegionsPerRequest
				}
				share := bytes[s] * int64(n) / int64(counts[s])
				step = append(step, Op{
					Server:       s,
					Payload:      share,
					Regions:      n,
					TrailerBytes: int64(wire.TrailingDataSize(n)),
					Write:        write,
				})
				counts[s] -= n
				bytes[s] -= share
			}
		}
		return step, true
	}
}

// sieveSpan is the extent from the rank's first to last file byte.
func sieveSpan(pat patterns.Pattern, rank int) ioseg.Segment {
	n := pat.FileRegions(rank)
	if n == 0 {
		return ioseg.Segment{}
	}
	first := pat.FileRegion(rank, 0)
	last := pat.FileRegion(rank, n-1)
	return ioseg.Segment{Offset: first.Offset, Length: last.End() - first.Offset}
}

// windowStep builds the parallel fan-out of one contiguous window
// access: one op per server holding part of the window.
func windowStep(p Params, w ioseg.Segment, write bool) Step {
	var step Step
	for s := 0; s < p.Striping.PCount; s++ {
		b := p.Striping.PhysRange(s, w.Offset, w.End())
		if b > 0 {
			step = append(step, Op{Server: s, Payload: b, Regions: 1, Write: write})
		}
	}
	return step
}

// sieveChain yields the window steps of a data-sieving operation with
// a buf-byte buffer: reads are one step per window; writes are
// read-modify-write, two steps per window (§3.2).
func sieveChain(p Params, pat patterns.Pattern, rank int, write bool, buf int64) StepIter {
	span := sieveSpan(pat, rank)
	var pos int64 // consumed bytes of span
	pendingWrite := false
	var window ioseg.Segment
	return func() (Step, bool) {
		if pendingWrite {
			pendingWrite = false
			return windowStep(p, window, true), true
		}
		if pos >= span.Length {
			return nil, false
		}
		n := span.Length - pos
		if n > buf {
			n = buf
		}
		window = ioseg.Segment{Offset: span.Offset + pos, Length: n}
		pos += n
		if write {
			// Read-modify-write: the read step now, the write-back on
			// the next call.
			pendingWrite = true
		}
		return windowStep(p, window, false), true
	}
}

// datatypeChain is the AccessDatatype chain. Each server's share of the
// pattern is cut into windows of win bytes, as the client's dtWindows
// cuts it: a region straddling a window boundary counts in both. Round
// k — every server's k-th window — is one step. A request carries a
// fixed-size descriptor however many regions its window holds (§5).
func datatypeChain(p Params, pat patterns.Pattern, rank int, write bool, win int64) StepIter {
	wins := make([][]Op, p.Striping.PCount) // per server, in window order
	open := make([]Op, p.Striping.PCount)
	for s := range open {
		open[s] = Op{Server: s, TrailerBytes: 40, Write: write} // fixed vector descriptor
	}
	for i, n := 0, pat.FileRegions(rank); i < n; i++ {
		for _, pc := range p.Striping.Split(pat.FileRegion(rank, i)) {
			o := &open[pc.Server]
			for left := pc.Phys.Length; left > 0; {
				take := min(left, win-o.Payload)
				o.Payload += take
				o.Regions++
				left -= take
				if o.Payload == win {
					wins[o.Server] = append(wins[o.Server], *o)
					o.Payload, o.Regions = 0, 0
				}
			}
		}
	}
	for _, o := range open {
		if o.Payload > 0 {
			wins[o.Server] = append(wins[o.Server], o)
		}
	}
	round := 0
	return func() (Step, bool) {
		var step Step
		for _, w := range wins {
			if round < len(w) {
				step = append(step, w[round])
			}
		}
		round++
		return step, len(step) > 0
	}
}

// hybridChain is the AccessHybrid chain, as the client's sieving driver
// issues it: the rank's file regions, coalesced across gaps of at most
// gap bytes, travel as list I/O. Granularity does not apply (the list
// pass sees one contiguous buffer). A write whose regions leave a byte
// of the coalesced extents uncovered reads them back first, so it sends
// every list request twice; pattern regions never overlap, so that is
// when their total falls short of the extents'.
func hybridChain(p Params, pat patterns.Pattern, rank int, write bool, gap int64, maxR int) StepIter {
	extents := func() segIter { return coalesceIter(fileRegionIter(pat, rank), max(gap, 0)) }
	if !write {
		return listChain(p, extents(), false, maxR)
	}
	var covered int64
	for it := extents(); ; {
		s, ok := it()
		if !ok {
			break
		}
		covered += s.Length
	}
	writeBack := listChain(p, extents(), true, maxR)
	if covered == pat.TotalBytes(rank) {
		return writeBack
	}
	readBack := listChain(p, extents(), false, maxR)
	return func() (Step, bool) {
		if step, ok := readBack(); ok {
			return step, true
		}
		return writeBack()
	}
}

// orDefault is the client's defaulting rule for a per-method size: a
// value that is not positive selects def.
func orDefault(v, def int64) int64 {
	if v <= 0 {
		return def
	}
	return v
}

// chainFor builds rank's chain for req's method and tuning, with the
// client's defaults.
func chainFor(p Params, pat patterns.Pattern, rank int, req client.Request) StepIter {
	maxR := int(orDefault(int64(req.List.MaxRegions), wire.MaxRegionsPerRequest))
	switch req.Method {
	case client.AccessMultiple:
		return multipleChain(p, pat, rank, req.Write)
	case client.AccessSieve:
		return sieveChain(p, pat, rank, req.Write, orDefault(req.Sieve.BufferSize, client.DefaultSieveBuffer))
	case client.AccessList:
		entries := fileRegionIter(pat, rank)
		if req.List.Granularity == client.GranularityIntersect {
			entries = intersectIter(pat, rank)
		}
		return listChain(p, entries, req.Write, maxR)
	case client.AccessDatatype:
		win := min(orDefault(req.Datatype.WindowBytes, client.DefaultWindowBytes), wire.MaxBodyLen)
		return datatypeChain(p, pat, rank, req.Write, win)
	case client.AccessHybrid:
		return hybridChain(p, pat, rank, req.Write, req.CoalesceGap, maxR)
	}
	panic("simcluster: unsupported method " + req.Method.String())
}

// BuildWorkload assembles the full experiment: every rank issues req
// concurrently. req supplies the direction, the method (multiple,
// sieve, list, datatype or hybrid; any other panics) and its tuning;
// pat supplies the layout. Read-modify-write writers — AccessSieve and AccessHybrid
// writes, the ones trace.Replay serializes — run rank by rank between
// barriers, matching §4.2.1 ("only one processor can write at a time").
func BuildWorkload(p Params, pat patterns.Pattern, req client.Request) Workload {
	ranks := pat.Ranks()
	rankStages := make([][]Stage, ranks)
	serialize := req.Write && (req.Method == client.AccessSieve || req.Method == client.AccessHybrid)
	for r := 0; r < ranks; r++ {
		io := Stage{Chains: []StepIter{chainFor(p, pat, r, req)}}
		if !serialize {
			rankStages[r] = []Stage{io}
			continue
		}
		var prog []Stage
		for k := 0; k < ranks; k++ {
			if k == r {
				prog = append(prog, io)
			} else {
				prog = append(prog, Stage{})
			}
			prog = append(prog, Stage{Barrier: true})
		}
		rankStages[r] = prog
	}
	name := fmt.Sprintf("%s-%v-%dranks", pat.Name(), req.Method, ranks)
	return Workload{Name: name, Params: p, RankStages: rankStages}
}

// WithOpenClose wraps a workload with a manager open before and close
// after each rank's I/O, as the tiled visualization benchmark times
// them (Fig. 17).
func WithOpenClose(w Workload) Workload {
	mgrStage := func() Stage {
		issued := false
		return Stage{Chains: []StepIter{func() (Step, bool) {
			if issued {
				return nil, false
			}
			issued = true
			return Step{Op{Server: ManagerServer}}, true
		}}}
	}
	for r := range w.RankStages {
		prog := []Stage{mgrStage()}
		prog = append(prog, w.RankStages[r]...)
		prog = append(prog, mgrStage())
		w.RankStages[r] = prog
	}
	return w
}

// Counts aggregates what a workload will issue.
type Counts struct {
	// Requests is the number of server messages (what the daemons
	// process and what the simulator costs).
	Requests int64
	// Batches is the number of logical I/O calls: one per step — the
	// quantity the paper's request arithmetic counts (§4.3.1, §4.4.1).
	Batches int64
	// Regions is the total contiguous regions applied at daemons.
	Regions int64
	// Payload is the total data bytes.
	Payload int64
}

// CountWorkload consumes a workload's chains (without simulating) and
// returns the totals the real client would issue. The workload must
// not be Run afterwards: its iterators are exhausted. Build a fresh
// one for simulation.
func CountWorkload(w Workload) Counts {
	var c Counts
	for _, prog := range w.RankStages {
		for _, st := range prog {
			for _, ch := range st.Chains {
				for {
					step, ok := ch()
					if !ok {
						break
					}
					if len(step) > 0 {
						c.Batches++
					}
					for _, op := range step {
						c.Requests++
						c.Regions += int64(op.Regions)
						c.Payload += op.Payload
					}
				}
			}
		}
	}
	return c
}
