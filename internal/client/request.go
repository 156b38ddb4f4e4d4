package client

// The one noncontiguous I/O verb. Every data operation — contiguous
// or noncontiguous, read or write, list or datatype or sieving — is
// one Request descriptor handed to File.Start, which returns an Op:
// a started, cancelable operation; File.Run is Start plus Wait. The
// descriptor is the single point where memory layout, file layout,
// method selection and per-op tuning meet. MPI-IO's nonblocking
// operations (MPI_File_iread/iwrite) are the model.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
)

// AccessMethod selects the datapath a Request travels. The zero value
// (AccessAuto) picks for you: datatype layouts that survive the wire
// codec ship un-flattened (DESIGN.md §6), doubly-contiguous transfers
// take the plain contiguous path, everything else goes to list I/O —
// the paper's preferred method.
type AccessMethod int

const (
	// AccessAuto picks the datapath from the layout (see above).
	AccessAuto AccessMethod = iota
	// AccessContig is one contiguous request per touched server; the
	// layout must be a single memory region and a single file region.
	AccessContig
	// AccessMultiple is one contiguous request per piece that is
	// contiguous in both memory and file (§3.1) — the classic
	// one-buffer, one-offset read/write call per piece; for FLASH-like
	// 8-byte memory pieces that is the paper's 983,040 requests per
	// process (§4.3.1).
	AccessMultiple
	// AccessSieve is data sieving I/O (§3.2): large contiguous reads
	// into a client buffer (Sieve.BufferSize), the wanted regions
	// picked out in memory; writes are read-modify-write of each
	// window, and a window its regions cover entirely is written
	// without reading it first. PVFS has no file locks, so concurrent
	// sieving writers to overlapping extents race: the caller
	// serializes them, as the paper does with a barrier (§4.2.1; see
	// cluster.Barrier). Result.Sieve reports the data movement.
	AccessSieve
	// AccessList is list I/O (§3.3), the paper's contribution: the file
	// regions travel in batches of at most List.MaxRegions (64) per
	// request, each batch fanning out to the servers holding its pieces.
	AccessList
	// AccessDatatype ships the access pattern itself to the I/O
	// daemons (§5, DESIGN.md §6): one request per server per
	// Datatype.WindowBytes of its share, however many fragments the
	// pattern flattens to. The layout must be a Type one — a strided
	// pattern is Type: datatype.Vector(count, blockLen, stride,
	// datatype.Bytes(1)), Base: start.
	AccessDatatype
	// AccessHybrid coalesces file regions whose gaps are at most
	// CoalesceGap bytes and moves the coalesced extents with list I/O
	// (§5), sieving the wanted bytes out client-side. A write reads the
	// extents back first unless the regions cover every byte of them,
	// so with gaps it is read-modify-write at extent granularity and
	// concurrent writers must be serialized as for AccessSieve; gap 0
	// coalesces only adjacent regions and reads nothing back.
	AccessHybrid
)

// ParseAccessMethod is the inverse of AccessMethod.String: it maps
// "auto", "contig", "multiple", "datasieve", "list", "datatype" or
// "hybrid" to its method.
func ParseAccessMethod(name string) (AccessMethod, error) {
	for m := AccessAuto; m <= AccessHybrid; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return AccessAuto, fmt.Errorf("pvfs: unknown access method %q", name)
}

func (m AccessMethod) String() string {
	switch m {
	case AccessAuto:
		return "auto"
	case AccessContig:
		return "contig"
	case AccessMultiple:
		return "multiple"
	case AccessSieve:
		return "datasieve"
	case AccessList:
		return "list"
	case AccessDatatype:
		return "datatype"
	case AccessHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("access(%d)", int(m))
	}
}

// Request is the access descriptor: one value bundles the memory
// layout, the file layout, the method selection and the per-op tuning.
//
// Memory layout: Arena is the user buffer; Mem lists the arena
// regions holding the transfer's bytes in stream order. A nil Mem
// means one region covering the transfer's size from arena offset 0.
// Memory regions must not overlap one another (as with MPI receive
// buffers): read responses land in the arena concurrently — across
// servers, and within one server when Window > 1 — so overlapping
// destinations are undefined. The arena must not change until a write
// completes.
//
// File layout — exactly one of:
//   - File: an explicit region list (the pvfs_read_list vocabulary);
//   - Type/Base/Count: Count repetitions of an MPI-style datatype at
//     byte offset Base (Count 0 means 1).
//
// The zero method (AccessAuto) routes encodable datatype layouts down
// the datatype path, single-region pairs down the contiguous path, and
// everything else to list I/O. Explicit methods that cannot express
// the given layout are errors, except that the flattened methods
// (multiple/sieve/list/hybrid) accept a datatype layout by flattening
// it client-side.
type Request struct {
	// Write selects direction: false reads into Arena, true writes
	// from it.
	Write bool

	// Arena is the user memory the transfer scatters into (reads) or
	// gathers from (writes).
	Arena []byte
	// Mem lists the arena regions of the transfer in stream order; nil
	// selects a single region [0, transfer size).
	Mem ioseg.List

	// File is the region-list file layout.
	File ioseg.List
	// Type/Base/Count is the datatype file layout.
	Type  datatype.Type
	Base  int64
	Count int64

	// Method picks the datapath; the zero value auto-picks.
	Method AccessMethod

	// Window is the number of list or datatype requests kept in flight
	// per server connection (the tagged pipelining of DESIGN.md §2).
	// 0 selects DefaultWindow; 1 restores the original serialized
	// behaviour — one round trip at a time per server — which
	// fault-injection setups that assume serialized calls should keep.
	// With Window > 1 requests to one server may be applied
	// concurrently, so a write's file regions must not overlap one
	// another.
	Window int

	// Per-method tuning (each applies only when its path is taken).
	List        ListOptions
	Sieve       SieveOptions
	Datatype    DatatypeOptions
	CoalesceGap int64 // hybrid coalescing gap, bytes

	// CallTimeout bounds each individual wire call of the operation
	// (not the operation as a whole): a daemon that stalls mid-call
	// fails that call with context.DeadlineExceeded instead of wedging
	// the operation forever, and only the affected tags are abandoned
	// — the pooled connection stays usable. 0 means no per-call bound.
	CallTimeout time.Duration

	// Retry overrides the FS-wide retry policy (FS.SetRetryPolicy)
	// for this operation's wire calls: bounded retries with
	// exponential backoff on retry-safe failures (transport errors,
	// StatusUnavailable), per-tag replay of unacked pipelined
	// requests, typed *RetryError on exhaustion. nil inherits the FS
	// default (DESIGN.md §9).
	Retry *RetryPolicy
}

// Result summarizes a completed operation.
type Result struct {
	// Method is the datapath the operation actually took (never
	// AccessAuto).
	Method AccessMethod
	// Bytes is the transfer's payload size: the bytes the file layout
	// covers, which the memory layout must match for anything to move.
	Bytes int64
	// Sieve reports sieving data movement when Method is AccessSieve
	// or AccessHybrid (zero otherwise). On error it holds the movement
	// up to the failure.
	Sieve SieveStats
}

// Op is a started nonblocking operation. Exactly one goroutine should
// Wait; Done may be selected on by any number.
type Op struct {
	done chan struct{}
	res  Result
	err  error
}

// Done returns a channel closed when the operation completes (with or
// without error) — the select-friendly form of Wait.
func (o *Op) Done() <-chan struct{} { return o.done }

// Wait blocks until the operation completes and returns its Result
// and error. It may be called any number of times; all calls return
// the same values.
func (o *Op) Wait() (Result, error) {
	<-o.done
	return o.res, o.err
}

// Err returns nil while the operation runs, and its final error (or
// nil on success) once it completes.
func (o *Op) Err() error {
	select {
	case <-o.done:
		return o.err
	default:
		return nil
	}
}

// Start begins the operation described by req and returns immediately
// with an Op handle. The operation runs in its own goroutine against
// the tagged, pipelined transport, so several Ops on one file (or many
// files) overlap their round trips — MPI_File_iread/iwrite semantics.
//
// Cancellation: when ctx ends (cancel or deadline), the operation
// fails with the context error. In-flight wire calls abandon their
// tags — the I/O daemons still complete the requests they already
// received, and the read loop discards the late responses — so a
// canceled write may have applied any subset of its requests, but
// never a torn individual request, and the connection pool remains
// usable by other operations. See DESIGN.md §8.
func (f *File) Start(ctx context.Context, req Request) *Op {
	op := &Op{done: make(chan struct{})}
	go func() {
		defer close(op.done)
		op.res, op.err = f.exec(ctx, req)
	}()
	return op
}

// Run is the synchronous form of Start: start, wait, return.
func (f *File) Run(ctx context.Context, req Request) (Result, error) {
	return f.Start(ctx, req).Wait()
}

// resolved is the normalized form of a Request: one concrete layout
// and one concrete method.
type resolved struct {
	method AccessMethod
	mem    ioseg.List
	file   ioseg.List    // region-list layout (nil for datatype path)
	t      datatype.Type // datatype layout (nil for region-list path)
	base   int64
	count  int64
	total  int64 // payload bytes the file layout covers
	window int   // requests in flight per server (Request.Window, defaulted)
}

// resolve validates the descriptor and normalizes layout and method.
func (r Request) resolve() (resolved, error) {
	var out resolved

	// One file layout. No layout at all is the empty region list: a
	// zero-byte transfer.
	if r.File != nil && r.Type != nil {
		return out, errors.New("pvfs: request has both a File and a Type layout")
	}
	if r.Type != nil {
		out.t, out.base, out.count = r.Type, r.Base, r.Count
		if out.count == 0 {
			out.count = 1
		}
	} else {
		out.file = r.File
	}
	out.window = r.Window
	if out.window <= 0 {
		out.window = DefaultWindow
	}

	// Transfer size, for defaulting Mem. A datatype layout's size and
	// span are overflow-checked whatever the method, before anything is
	// flattened.
	var total int64
	var err error
	if out.t != nil {
		if total, _, err = datatype.DataLen(out.t, out.base, out.count); err != nil {
			return out, fmt.Errorf("pvfs: %w", err)
		}
	} else if total, err = out.file.TotalLengthChecked(); err != nil {
		return out, fmt.Errorf("pvfs: file list: %w", err)
	}
	out.total = total
	out.mem = r.Mem
	if out.mem == nil && total > 0 {
		out.mem = ioseg.List{{Offset: 0, Length: total}}
	}

	// Method.
	out.method = r.Method
	if out.method == AccessAuto {
		switch {
		case out.t != nil && datatype.CanEncode(out.t) == nil:
			out.method = AccessDatatype
		case out.t != nil:
			out.method = AccessList
		case len(out.file) == 1 && len(out.mem) <= 1:
			out.method = AccessContig
		default:
			out.method = AccessList
		}
	}

	// Layout/method compatibility; flattened methods accept a datatype
	// layout by collecting its walk client-side: the regions the daemons
	// would evaluate, in data order, touching repetitions merged. The
	// walk allocates a region per piece, so the memory side is first held
	// to the type's total and to the arena: the region list is then
	// bounded by memory the caller already holds.
	switch out.method {
	case AccessDatatype:
		if out.t == nil {
			return out, errors.New("pvfs: AccessDatatype requires a Type layout")
		}
		if err := datatype.CanEncode(out.t); err != nil {
			return out, fmt.Errorf("pvfs: datatype not encodable: %w", err)
		}
	case AccessContig, AccessMultiple, AccessSieve, AccessList, AccessHybrid:
		if out.t != nil {
			if memTotal, err := checkMem(r.Arena, out.mem); err != nil {
				return out, err
			} else if memTotal != total {
				return out, fmt.Errorf("pvfs: memory list covers %d bytes, type %d", memTotal, total)
			}
			datatype.WalkRepeated(out.t, out.base, out.count, 0, func(s ioseg.Segment) bool {
				out.file = append(out.file, s)
				return true
			})
			out.t = nil
		}
		if out.method == AccessContig && (len(out.file) != 1 || len(out.mem) > 1) {
			return out, fmt.Errorf("pvfs: AccessContig requires one memory and one file region, got %d/%d", len(out.mem), len(out.file))
		}
	default:
		return out, fmt.Errorf("pvfs: unknown access method %v", out.method)
	}
	return out, nil
}

// exec runs one resolved Request to completion under ctx.
func (f *File) exec(ctx context.Context, req Request) (Result, error) {
	rv, err := req.resolve()
	if err != nil {
		return Result{}, err
	}
	ctx = withCallTimeout(ctx, req.CallTimeout)
	ctx = withRetryPolicy(ctx, req.Retry)
	// Every method holds the memory list to the file layout's byte total
	// before it moves anything, so that total is the payload size and no
	// walk of Mem is spent on it.
	res := Result{Method: rv.method, Bytes: rv.total}

	if err := ctx.Err(); err != nil {
		return res, err // a canceled Start never touches the wire
	}

	var x *transfer
	switch rv.method {
	case AccessContig:
		if err := checkLists(req.Arena, rv.mem, rv.file); err != nil {
			return res, err
		}
		var p []byte // nil Mem for an empty transfer
		if len(rv.mem) == 1 {
			p = req.Arena[rv.mem[0].Offset:rv.mem[0].End()]
		}
		x = f.planContig(req.Write, p, rv.file[0].Offset, nil)

	case AccessMultiple:
		return res, f.multiple(ctx, req.Write, req.Arena, rv.mem, rv.file)

	case AccessSieve, AccessHybrid:
		res.Sieve, err = f.sieve(ctx, req, rv)
		return res, err

	case AccessList:
		// The list and datatype paths read the memory list exactly once,
		// here: the stream map's build pass yields everything validation
		// needs, and the map then stands in for the list all the way down.
		smap := memio.NewStreamMap(rv.mem)
		x, err = f.planList(req.Write, req.Arena, smap, rv.mem, rv.file, req.List, rv.window)

	case AccessDatatype:
		smap := memio.NewStreamMap(rv.mem) // the one pass over Mem, as for AccessList
		x, err = f.planDatatype(req.Write, req.Arena, smap, rv.mem, rv.t, rv.base, rv.count, req.Datatype, rv.window)

	default:
		return res, fmt.Errorf("pvfs: unknown access method %v", rv.method)
	}
	if err != nil {
		return res, err
	}
	return res, f.move(ctx, x)
}
