//go:build linux && (amd64 || arm64)

// io_uring submission-queue backend for Dir's ReadBatch (DESIGN.md
// §11). Only reads ride the ring; WriteBatch is a pwritev loop. The
// x/sys module is not a dependency of this repo, so the ring is driven
// with raw syscalls against the stable io_uring ABI: io_uring_setup
// (425) + three mmaps for the SQ ring, CQ ring, and SQE array, then
// io_uring_enter (426) to submit batches of READV SQEs and collect
// completions. One enter call submits a whole gapped window — the
// kernel crossing the vectored path paid once per span is paid once per
// batch.
//
// Design notes:
//   - Submissions are synchronous and mutex-serialized: submit N SQEs,
//     wait for N CQEs, return. Buffers are therefore pinned by the
//     caller's stack for the whole kernel round trip — no registered
//     buffers (IORING_REGISTER_BUFFERS is a pessimization under pooled
//     buffer churn: every GetBuf/PutBuf cycle would need a re-register
//     syscall) and no liveness games.
//   - No SQE links (IOSQE_IO_LINK): BatchIO spans are disjoint, so
//     completion order is irrelevant and links would only serialize
//     the kernel's work.
//   - Short transfers and EINTR completions resubmit the op's
//     remainder in the next round, continuing from the interrupted
//     iovec cursor exactly like readvAt. A read that completes with
//     res == 0 hit EOF: the span's tail zero-fills (sparse semantics).
//   - The first refusal that means "this kernel/sandbox cannot do
//     ring I/O" (ENOSYS, EPERM, EINVAL, EOPNOTSUPP from enter or a
//     CQE) latches the ring dead; Dir then redoes the batch on the
//     vectored ladder and never comes back. Real file I/O errors
//     (EBADF, EIO, ENOSPC) surface to the caller unchanged.
package store

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	sysIOURingSetup = 425
	sysIOURingEnter = 426

	// ringEntries sizes the SQ; the kernel gives the CQ twice that.
	// 256 covers any realistic window (the datapath caps batches at
	// vecBatchSegs=2048 segments which coalesce to far fewer spans);
	// larger batches chunk across rounds.
	ringEntries = 256

	ioringOffSQRing = 0
	ioringOffCQRing = 0x8000000
	ioringOffSQEs   = 0x10000000

	ioringEnterGetevents = 1 << 0

	ioringOpReadv = 1

	ioringFeatSingleMmap = 1 << 0
)

// ioSQRingOffsets mirrors struct io_sqring_offsets.
type ioSQRingOffsets struct {
	head        uint32
	tail        uint32
	ringMask    uint32
	ringEntries uint32
	flags       uint32
	dropped     uint32
	array       uint32
	resv1       uint32
	userAddr    uint64
}

// ioCQRingOffsets mirrors struct io_cqring_offsets.
type ioCQRingOffsets struct {
	head        uint32
	tail        uint32
	ringMask    uint32
	ringEntries uint32
	overflow    uint32
	cqes        uint32
	flags       uint32
	resv1       uint32
	userAddr    uint64
}

// ioURingParams mirrors struct io_uring_params (120 bytes).
type ioURingParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFd         uint32
	resv         [3]uint32
	sqOff        ioSQRingOffsets
	cqOff        ioCQRingOffsets
}

// ioURingSQE mirrors struct io_uring_sqe (64 bytes).
type ioURingSQE struct {
	opcode   uint8
	flags    uint8
	ioprio   uint16
	fd       int32
	off      uint64
	addr     uint64
	len      uint32
	rwFlags  uint32
	userData uint64
	extra    [3]uint64
}

// ioURingCQE mirrors struct io_uring_cqe (16 bytes).
type ioURingCQE struct {
	userData uint64
	res      int32
	flags    uint32
}

// uring is one io_uring instance: ring fd plus the mmapped SQ/CQ/SQE
// views. One per Dir, created lazily by the first batch.
type uring struct {
	mu   sync.Mutex
	dead bool // latched on close or kernel refusal; guarded by mu

	fd     int
	sqMem  []byte // SQ ring mapping (also the CQ ring with FEAT_SINGLE_MMAP)
	cqMem  []byte // separate CQ ring mapping on old kernels; nil when shared
	sqeMem []byte // SQE array mapping

	sqHead  *uint32
	sqTail  *uint32
	sqMask  uint32
	sqArray []uint32
	sqes    []ioURingSQE

	cqHead *uint32
	cqTail *uint32
	cqMask uint32
	cqes   []ioURingCQE

	entries uint32
}

var errRingClosed = errors.New("store: io_uring ring closed")

// ringSetupFailed latches a process-wide io_uring_setup refusal so
// every Dir doesn't re-probe a kernel that said no.
var ringSetupFailed atomic.Bool

// ringGet returns d's ring, creating it on first use, or nil when ring
// I/O is unavailable (PVFS_NO_URING, setup refused, or ring latched
// dead by a mid-flight refusal).
func (d *Dir) ringGet() *uring {
	d.ringOnce.Do(func() {
		if os.Getenv("PVFS_NO_URING") != "" {
			return
		}
		if ringSetupFailed.Load() {
			return
		}
		r, err := newURing(ringEntries)
		if err != nil {
			ringSetupFailed.Store(true)
			return
		}
		d.ring = r
	})
	r := d.ring
	if r == nil {
		return nil
	}
	r.mu.Lock()
	dead := r.dead
	r.mu.Unlock()
	if dead {
		return nil
	}
	return r
}

// RingAvailable reports whether this process can create and use an
// io_uring (false under PVFS_NO_URING, on old kernels, or when seccomp
// denies the syscalls). Tests use it to gate ring-pinned assertions.
func RingAvailable() bool {
	if os.Getenv("PVFS_NO_URING") != "" {
		return false
	}
	if ringSetupFailed.Load() {
		return false
	}
	r, err := newURing(8)
	if err != nil {
		return false
	}
	r.close()
	return true
}

// ringDegraded reports whether err means the ring cannot serve batch
// I/O at all — as opposed to a real I/O failure on the file. Dir falls
// back to the vectored ladder on degradation and surfaces everything
// else.
func ringDegraded(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, errRingClosed) {
		return true
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.ENOSYS, syscall.EPERM, syscall.EINVAL, syscall.EOPNOTSUPP:
			return true
		}
	}
	return false
}

// newURing creates a ring of the given SQ depth and maps its three
// regions.
func newURing(entries uint32) (*uring, error) {
	var p ioURingParams
	fd, _, errno := syscall.Syscall(sysIOURingSetup, uintptr(entries),
		uintptr(unsafe.Pointer(&p)), 0)
	if errno != 0 {
		return nil, fmt.Errorf("store: io_uring_setup: %w", errno)
	}
	r := &uring{fd: int(fd), entries: p.sqEntries}

	ok := false
	defer func() {
		if !ok {
			r.unmapAndClose()
		}
	}()

	sqSize := int(p.sqOff.array) + int(p.sqEntries)*4
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(ioURingCQE{}))
	single := p.features&ioringFeatSingleMmap != 0
	if single && cqSize > sqSize {
		sqSize = cqSize
	}

	var err error
	r.sqMem, err = syscall.Mmap(r.fd, ioringOffSQRing, sqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("store: io_uring sq mmap: %w", err)
	}
	cqMem := r.sqMem
	if !single {
		r.cqMem, err = syscall.Mmap(r.fd, ioringOffCQRing, cqSize,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			return nil, fmt.Errorf("store: io_uring cq mmap: %w", err)
		}
		cqMem = r.cqMem
	}
	r.sqeMem, err = syscall.Mmap(r.fd, ioringOffSQEs,
		int(p.sqEntries)*int(unsafe.Sizeof(ioURingSQE{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("store: io_uring sqe mmap: %w", err)
	}

	at := func(mem []byte, off uint32) unsafe.Pointer {
		return unsafe.Pointer(&mem[off])
	}
	r.sqHead = (*uint32)(at(r.sqMem, p.sqOff.head))
	r.sqTail = (*uint32)(at(r.sqMem, p.sqOff.tail))
	r.sqMask = *(*uint32)(at(r.sqMem, p.sqOff.ringMask))
	r.sqArray = unsafe.Slice((*uint32)(at(r.sqMem, p.sqOff.array)), p.sqEntries)
	r.sqes = unsafe.Slice((*ioURingSQE)(unsafe.Pointer(&r.sqeMem[0])), p.sqEntries)
	r.cqHead = (*uint32)(at(cqMem, p.cqOff.head))
	r.cqTail = (*uint32)(at(cqMem, p.cqOff.tail))
	r.cqMask = *(*uint32)(at(cqMem, p.cqOff.ringMask))
	r.cqes = unsafe.Slice((*ioURingCQE)(at(cqMem, p.cqOff.cqes)), p.cqEntries)

	ok = true
	return r, nil
}

// close latches the ring dead and releases its kernel resources. Safe
// against concurrent batches: the flag flips under mu before anything
// is unmapped, so a racing submit returns errRingClosed instead of
// touching freed ring memory.
func (r *uring) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead && r.sqMem == nil {
		return
	}
	r.dead = true
	r.unmapAndClose()
}

func (r *uring) unmapAndClose() {
	if r.sqeMem != nil {
		syscall.Munmap(r.sqeMem)
		r.sqeMem = nil
	}
	if r.cqMem != nil {
		syscall.Munmap(r.cqMem)
		r.cqMem = nil
	}
	if r.sqMem != nil {
		syscall.Munmap(r.sqMem)
		r.sqMem = nil
	}
	if r.fd >= 0 {
		syscall.Close(r.fd)
		r.fd = -1
	}
}

// ringOp tracks one span through submission rounds: the iovec cursor
// (bi, skip) continues across short transfers exactly like readvAt's,
// and iovs is rebuilt in place — one allocation per op, ever.
type ringOp struct {
	pos       int64 // current file offset (advances with completions)
	bufs      [][]byte
	bi, skip  int
	remaining int
	iovs      []iovec
	done      bool
}

// readSpans drives a whole batch of disjoint read spans through the
// ring: one SQE per span per round, one io_uring_enter per round
// (submit-and-wait), rounds repeating only for short transfers, EINTR
// completions, or batches deeper than the ring. It returns the bytes
// moved, the number of enter calls (the syscall count), and the first
// error. All CQEs of a round are always reaped before returning, even
// on error — the kernel holds iovec pointers into the caller's
// buffers until then.
func (r *uring) readSpans(f *os.File, spans []Span) (int, int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return 0, 0, errRingClosed
	}

	fd := int32(f.Fd())

	ops := make([]*ringOp, 0, len(spans))
	for _, sp := range spans {
		n := spanLen(sp.Bufs)
		if n == 0 {
			continue
		}
		ops = append(ops, &ringOp{
			pos:       sp.Off,
			bufs:      sp.Bufs,
			remaining: n,
			iovs:      make([]iovec, 0, min(len(sp.Bufs), uioMaxIOV)),
		})
	}

	var (
		moved    int
		enters   int64
		firstErr error
	)

	for {
		// Collect the ops still needing I/O, up to the ring depth.
		var round []int
		for i, op := range ops {
			if !op.done {
				round = append(round, i)
				if uint32(len(round)) == r.entries {
					break
				}
			}
		}
		if len(round) == 0 || firstErr != nil {
			break
		}

		// Fill one SQE per op. user_data carries the op's index in ops
		// so CQEs — which arrive in any order — map back to their span.
		tail := atomic.LoadUint32(r.sqTail)
		for i, oi := range round {
			op := ops[oi]
			op.iovs, _ = buildIovecs(op.iovs, op.bufs, op.bi, op.skip)
			idx := (tail + uint32(i)) & r.sqMask
			sqe := &r.sqes[idx]
			*sqe = ioURingSQE{
				opcode:   ioringOpReadv,
				fd:       fd,
				off:      uint64(op.pos),
				addr:     uint64(uintptr(unsafe.Pointer(&op.iovs[0]))),
				len:      uint32(len(op.iovs)),
				userData: uint64(oi),
			}
			r.sqArray[idx] = idx
		}
		n := uint32(len(round))
		// Publish the SQEs: the tail store is the release barrier the
		// kernel pairs its acquire load with.
		atomic.StoreUint32(r.sqTail, tail+n)

		// Submit and wait in one syscall. A signal can interrupt
		// either phase: the SQ head shows how much the kernel actually
		// consumed, and the reap loop below waits out the completions.
		enters++
		_, _, errno := syscall.Syscall6(sysIOURingEnter, uintptr(r.fd),
			uintptr(n), uintptr(n), ioringEnterGetevents, 0, 0)
		if errno != 0 && errno != syscall.EINTR && errno != syscall.EAGAIN && errno != syscall.EBUSY {
			r.dead = true
			return moved, enters, fmt.Errorf("store: io_uring_enter: %w", errno)
		}
		for atomic.LoadUint32(r.sqHead) != tail+n {
			remaining := tail + n - atomic.LoadUint32(r.sqHead)
			enters++
			_, _, errno := syscall.Syscall6(sysIOURingEnter, uintptr(r.fd),
				uintptr(remaining), 0, 0, 0, 0)
			if errno != 0 && errno != syscall.EINTR && errno != syscall.EAGAIN && errno != syscall.EBUSY {
				r.dead = true
				return moved, enters, fmt.Errorf("store: io_uring_enter: %w", errno)
			}
		}

		// Reap exactly this round's CQEs, blocking for stragglers.
		reaped := uint32(0)
		for reaped < n {
			head := atomic.LoadUint32(r.cqHead)
			tailC := atomic.LoadUint32(r.cqTail)
			for head != tailC && reaped < n {
				cqe := r.cqes[head&r.cqMask]
				head++
				reaped++
				if cqe.userData >= uint64(len(ops)) {
					continue
				}
				op := ops[cqe.userData]
				res := cqe.res
				switch {
				case res == -int32(syscall.EINTR) || res == -int32(syscall.EAGAIN):
					// Interrupted before transfer: resubmit as-is.
				case res < 0:
					errno := syscall.Errno(-res)
					op.done = true
					if firstErr == nil {
						firstErr = fmt.Errorf("store: ring read: %w", errno)
						if ringDegraded(firstErr) {
							r.dead = true
						}
					}
				case res == 0:
					// EOF inside the span: sparse zero-fill.
					op.done = true
					zeroFrom(op.bufs, op.bi, op.skip)
					moved += op.remaining
					op.remaining = 0
				default:
					got := int(res)
					moved += got
					op.pos += int64(got)
					op.bi, op.skip = advance(op.bufs, op.bi, op.skip, got)
					op.remaining -= got
					if op.remaining == 0 {
						op.done = true
					}
				}
			}
			atomic.StoreUint32(r.cqHead, head)
			if reaped < n {
				enters++
				_, _, errno := syscall.Syscall6(sysIOURingEnter, uintptr(r.fd),
					0, uintptr(n-reaped), ioringEnterGetevents, 0, 0)
				if errno != 0 && errno != syscall.EINTR {
					r.dead = true
					return moved, enters, fmt.Errorf("store: io_uring_enter: %w", errno)
				}
			}
		}
	}
	runtime.KeepAlive(ops)
	runtime.KeepAlive(f)
	if firstErr != nil {
		return moved, enters, firstErr
	}
	return moved, enters, nil
}
