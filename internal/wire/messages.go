package wire

import (
	"fmt"

	"pvfs/internal/ioseg"
	"pvfs/internal/striping"
)

// This file defines the typed request/response bodies. Clients address
// I/O daemons in *physical* stripe-file coordinates: the client library
// performs the striping math (as the PVFS library does) and each I/O
// daemon sees only the regions that live on it.

// CreateReq asks the manager to create a file. A PCount of 0 lets the
// manager choose (all servers); a StripeSize of 0 selects the default.
type CreateReq struct {
	Name     string
	Striping striping.Config
	// Token is the client's idempotency token for this logical create
	// (0: none). A create whose ack is lost — the proposal committed
	// but the client saw a retryable failure — is re-sent verbatim;
	// the token lets the metadata plane recognize the duplicate and
	// re-ack the committed file instead of answering Exists.
	Token uint64
}

func (m *CreateReq) Marshal() []byte {
	e := encoder{}
	e.str(m.Name)
	e.u32(uint32(m.Striping.Base))
	e.u32(uint32(m.Striping.PCount))
	e.i64(m.Striping.StripeSize)
	e.u64(m.Token)
	return e.buf
}

func (m *CreateReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Name = d.str()
	m.Striping.Base = int(d.u32())
	m.Striping.PCount = int(d.u32())
	m.Striping.StripeSize = d.i64()
	m.Token = d.u64()
	return d.err
}

// FileInfo is the manager's description of a file, returned by create,
// open and stat operations.
type FileInfo struct {
	Handle   uint64
	Size     int64 // logical size as last recorded by the manager
	Striping striping.Config
	IODAddrs []string // network addresses of the I/O daemons, stripe order
	// CreateTok is the idempotency token of the create that made the
	// file (CreateReq.Token; 0: none). It rides in the replicated
	// record, snapshots and resyncs, so any replica or shard can
	// recognize a retried create of the same logical call and re-ack
	// it instead of answering Exists.
	CreateTok uint64
}

func (m *FileInfo) Marshal() []byte {
	e := encoder{}
	e.u64(m.Handle)
	e.i64(m.Size)
	e.u32(uint32(m.Striping.Base))
	e.u32(uint32(m.Striping.PCount))
	e.i64(m.Striping.StripeSize)
	e.u64(m.CreateTok)
	e.u32(uint32(len(m.IODAddrs)))
	for _, a := range m.IODAddrs {
		e.str(a)
	}
	return e.buf
}

func (m *FileInfo) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Handle = d.u64()
	m.Size = d.i64()
	m.Striping.Base = int(d.u32())
	m.Striping.PCount = int(d.u32())
	m.Striping.StripeSize = d.i64()
	m.CreateTok = d.u64()
	n := d.u32()
	if d.err != nil {
		return d.err
	}
	if n > 1<<16 {
		return fmt.Errorf("wire: absurd iod count %d", n)
	}
	m.IODAddrs = make([]string, n)
	for i := range m.IODAddrs {
		m.IODAddrs[i] = d.str()
	}
	return d.err
}

// NameReq is the body for open/stat/remove requests: just a file name.
type NameReq struct{ Name string }

func (m *NameReq) Marshal() []byte {
	e := encoder{}
	e.str(m.Name)
	return e.buf
}

func (m *NameReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Name = d.str()
	return d.err
}

// ListDirResp carries directory contents.
type ListDirResp struct{ Names []string }

func (m *ListDirResp) Marshal() []byte {
	e := encoder{}
	e.u32(uint32(len(m.Names)))
	for _, n := range m.Names {
		e.str(n)
	}
	return e.buf
}

func (m *ListDirResp) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	n := d.u32()
	if d.err != nil {
		return d.err
	}
	if n > 1<<20 {
		return fmt.Errorf("wire: absurd name count %d", n)
	}
	m.Names = make([]string, n)
	for i := range m.Names {
		m.Names[i] = d.str()
	}
	return d.err
}

// SetSizeReq records logical file size at the manager (sent by clients
// after writes extend a file, since the manager does not see I/O).
type SetSizeReq struct {
	Handle uint64
	Size   int64
}

func (m *SetSizeReq) Marshal() []byte {
	e := encoder{}
	e.u64(m.Handle)
	e.i64(m.Size)
	return e.buf
}

func (m *SetSizeReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Handle = d.u64()
	m.Size = d.i64()
	return d.err
}

// ReadReq asks an I/O daemon for one contiguous physical extent.
type ReadReq struct {
	Offset int64
	Length int64
}

// ReadReqSize is the encoded size of a ReadReq.
const ReadReqSize = 16

func (m *ReadReq) Marshal() []byte { return m.Append(nil) }

// Append appends the encoding to dst, so a windowed reader can build
// its request in a pooled buffer.
func (m *ReadReq) Append(dst []byte) []byte {
	e := encoder{buf: dst}
	e.i64(m.Offset)
	e.i64(m.Length)
	return e.buf
}

func (m *ReadReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Offset = d.i64()
	m.Length = d.i64()
	return d.err
}

// WriteReq carries one contiguous physical extent plus its data.
type WriteReq struct {
	Offset int64
	Data   []byte
}

// WriteReqFixedSize is the encoded size of WriteReq's fixed fields,
// which precede the data on the wire.
const WriteReqFixedSize = 8

// AppendFixed appends the fixed fields alone: the body of a vectored
// request whose data follows from where it lies (Message.BodyStream).
func (m *WriteReq) AppendFixed(dst []byte) []byte {
	e := encoder{buf: dst}
	e.i64(m.Offset)
	return e.buf
}

func (m *WriteReq) Marshal() []byte {
	e := encoder{buf: m.AppendFixed(nil)}
	e.bytes(m.Data)
	return e.buf
}

func (m *WriteReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Offset = d.i64()
	m.Data = d.rest()
	return d.err
}

// ListReq is the list I/O request (§3.3): up to MaxRegionsPerRequest
// physical regions in trailing data. For writes, Data holds the packed
// stream matching the regions in order; for reads Data is empty.
type ListReq struct {
	Regions ioseg.List
	Data    []byte
}

func (m *ListReq) Marshal() ([]byte, error) {
	trailer, err := EncodeRegions(m.Regions)
	if err != nil {
		return nil, err
	}
	if m.Data == nil {
		return trailer, nil
	}
	out := make([]byte, 0, len(trailer)+len(m.Data))
	out = append(out, trailer...)
	out = append(out, m.Data...)
	return out, nil
}

func (m *ListReq) Unmarshal(b []byte) error {
	regions, rest, err := DecodeRegions(b)
	if err != nil {
		return err
	}
	m.Regions = regions
	m.Data = rest
	return nil
}

// WrittenResp reports bytes applied by a write-family request.
type WrittenResp struct{ N int64 }

func (m *WrittenResp) Marshal() []byte {
	e := encoder{}
	e.i64(m.N)
	return e.buf
}

func (m *WrittenResp) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.N = d.i64()
	return d.err
}

// SizeResp reports a physical stripe-file size (iod TStat response).
type SizeResp struct{ Size int64 }

func (m *SizeResp) Marshal() []byte {
	e := encoder{}
	e.i64(m.Size)
	return e.buf
}

func (m *SizeResp) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Size = d.i64()
	return d.err
}

// TruncateReq sets a stripe file's physical size.
type TruncateReq struct{ Size int64 }

func (m *TruncateReq) Marshal() []byte {
	e := encoder{}
	e.i64(m.Size)
	return e.buf
}

func (m *TruncateReq) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Size = d.i64()
	return d.err
}

// ServerStats carries an I/O daemon's request accounting, used by the
// benchmarks to report the request-count arithmetic of §4.3.1/§4.4.1.
type ServerStats struct {
	Requests      int64 // I/O requests processed
	Regions       int64 // contiguous regions applied (>= Requests)
	BytesRead     int64
	BytesWritten  int64
	ListRequests  int64 // list I/O requests among Requests
	TrailingBytes int64 // trailing data received
	// Datatype-path accounting (DESIGN.md §6).
	DatatypeRequests int64 // datatype I/O requests among Requests
	TypeBytes        int64 // encoded-datatype bytes received
	// Storage-cache accounting (DESIGN.md §7), populated when the
	// daemon runs a write-back block cache (store.Cached).
	CacheHits    int64 // block lookups served from cache memory
	CacheMisses  int64 // block fills from the backing store
	CacheFlushes int64 // dirty blocks written back
	// Storage-syscall accounting (DESIGN.md §10): the submissions and
	// bytes that reached the daemon's storage backend, the denominator
	// of the vectored datapath's syscalls/op metric.
	StoreSyscallsRead  int64 // backend read submissions
	StoreSyscallsWrite int64 // backend write submissions
	StoreBytesRead     int64 // bytes moved by backend reads
	StoreBytesWritten  int64 // bytes moved by backend writes
	// Batch-submission and zero-copy accounting (DESIGN.md §11): store
	// ReadBatch/WriteBatch calls that moved data, and the bytes that
	// crossed a user-space buffer copy (sendfile-streamed bytes don't),
	// the numerator of the copies/op metric.
	StoreSubmissions int64 // batches submitted (ReadBatch/WriteBatch)
	StoreBytesCopied int64 // bytes moved through user-space copies
	// Metadata-plane accounting (DESIGN.md §13), populated by the
	// metadata shards and master replicas.
	MetaCreates   int64 // creates applied by this shard
	MetaOpens     int64 // opens/stats served from shard state
	MetaForwards  int64 // envelopes proxied to the owning shard
	ElectionCount int64 // leadership changes observed (masters)
	// Group-commit accounting (DESIGN.md §13): how well concurrent
	// proposals coalesce at the leader. proposals/batches is the mean
	// batch size, proposals/append-rounds the replication amortization,
	// and WAL syncs per proposal < 1 demonstrates fsync coalescing.
	MetaProposals    int64 // mutation entries appended at the leader
	MetaBatches      int64 // group-commit flushes (>= 1 proposal each)
	MetaAppendRounds int64 // append RPCs shipped carrying entries
	MetaWALSyncs     int64 // WAL fsyncs (log, hard state, snapshots)
}

func (m *ServerStats) Marshal() []byte {
	e := encoder{}
	e.i64(m.Requests)
	e.i64(m.Regions)
	e.i64(m.BytesRead)
	e.i64(m.BytesWritten)
	e.i64(m.ListRequests)
	e.i64(m.TrailingBytes)
	e.i64(m.DatatypeRequests)
	e.i64(m.TypeBytes)
	e.i64(m.CacheHits)
	e.i64(m.CacheMisses)
	e.i64(m.CacheFlushes)
	e.i64(m.StoreSyscallsRead)
	e.i64(m.StoreSyscallsWrite)
	e.i64(m.StoreBytesRead)
	e.i64(m.StoreBytesWritten)
	e.i64(m.StoreSubmissions)
	e.i64(m.StoreBytesCopied)
	e.i64(m.MetaCreates)
	e.i64(m.MetaOpens)
	e.i64(m.MetaForwards)
	e.i64(m.ElectionCount)
	e.i64(m.MetaProposals)
	e.i64(m.MetaBatches)
	e.i64(m.MetaAppendRounds)
	e.i64(m.MetaWALSyncs)
	return e.buf
}

func (m *ServerStats) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	m.Requests = d.i64()
	m.Regions = d.i64()
	m.BytesRead = d.i64()
	m.BytesWritten = d.i64()
	m.ListRequests = d.i64()
	m.TrailingBytes = d.i64()
	m.DatatypeRequests = d.i64()
	m.TypeBytes = d.i64()
	m.CacheHits = d.i64()
	m.CacheMisses = d.i64()
	m.CacheFlushes = d.i64()
	m.StoreSyscallsRead = d.i64()
	m.StoreSyscallsWrite = d.i64()
	m.StoreBytesRead = d.i64()
	m.StoreBytesWritten = d.i64()
	m.StoreSubmissions = d.i64()
	m.StoreBytesCopied = d.i64()
	m.MetaCreates = d.i64()
	m.MetaOpens = d.i64()
	m.MetaForwards = d.i64()
	m.ElectionCount = d.i64()
	m.MetaProposals = d.i64()
	m.MetaBatches = d.i64()
	m.MetaAppendRounds = d.i64()
	m.MetaWALSyncs = d.i64()
	return d.err
}

// HandleListResp enumerates the handles an I/O daemon stores and each
// one's physical (stripe-file) size. The consistency checker
// (internal/fsck) cross-references this against the manager's
// metadata to find orphan and missing stripes.
type HandleListResp struct {
	Handles []uint64
	Sizes   []int64
}

// maxHandleList caps the entries a decoder will allocate.
const maxHandleList = 1 << 24

func (m *HandleListResp) Marshal() []byte {
	e := encoder{}
	e.u64(uint64(len(m.Handles)))
	for i, h := range m.Handles {
		e.u64(h)
		e.i64(m.Sizes[i])
	}
	return e.buf
}

func (m *HandleListResp) Unmarshal(b []byte) error {
	d := decoder{buf: b}
	n := d.u64()
	if d.err != nil {
		return d.err
	}
	if n > maxHandleList {
		return fmt.Errorf("wire: handle list of %d entries exceeds limit", n)
	}
	m.Handles = make([]uint64, n)
	m.Sizes = make([]int64, n)
	for i := range m.Handles {
		m.Handles[i] = d.u64()
		m.Sizes[i] = d.i64()
	}
	return d.err
}

// Add accumulates other into m.
func (m *ServerStats) Add(other ServerStats) {
	m.Requests += other.Requests
	m.Regions += other.Regions
	m.BytesRead += other.BytesRead
	m.BytesWritten += other.BytesWritten
	m.ListRequests += other.ListRequests
	m.TrailingBytes += other.TrailingBytes
	m.DatatypeRequests += other.DatatypeRequests
	m.TypeBytes += other.TypeBytes
	m.CacheHits += other.CacheHits
	m.CacheMisses += other.CacheMisses
	m.CacheFlushes += other.CacheFlushes
	m.StoreSyscallsRead += other.StoreSyscallsRead
	m.StoreSyscallsWrite += other.StoreSyscallsWrite
	m.StoreBytesRead += other.StoreBytesRead
	m.StoreBytesWritten += other.StoreBytesWritten
	m.StoreSubmissions += other.StoreSubmissions
	m.StoreBytesCopied += other.StoreBytesCopied
	m.MetaCreates += other.MetaCreates
	m.MetaOpens += other.MetaOpens
	m.MetaForwards += other.MetaForwards
	m.ElectionCount += other.ElectionCount
	m.MetaProposals += other.MetaProposals
	m.MetaBatches += other.MetaBatches
	m.MetaAppendRounds += other.MetaAppendRounds
	m.MetaWALSyncs += other.MetaWALSyncs
}
