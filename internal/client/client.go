// Package client implements the PVFS client library: the code an
// application links against to open files and perform contiguous and
// noncontiguous I/O against the manager and I/O daemons.
//
// Every noncontiguous access is one Request — memory layout, file
// layout (a region list or a datatype), method and tuning — run by
// File.Start (nonblocking) or File.Run (blocking). Request.Method
// selects among the three methods of §3 of the paper:
//
//   - AccessMultiple (§3.1): one contiguous PVFS request per piece.
//   - AccessSieve (§3.2): a client-side buffer covers many regions per
//     contiguous request; writes are read-modify-write where the
//     regions leave holes.
//   - AccessList (§3.3): up to 64 file regions per request in trailing
//     data (the pvfs_read_list interface).
//
// and the §5 future work: AccessDatatype ships the access pattern
// itself as an encoded datatype and each I/O daemon evaluates its own
// share, removing the linear region-to-request relationship
// (DESIGN.md §6); AccessHybrid coalesces nearby regions before list
// I/O. The zero method, AccessAuto, picks from the layout.
// File.ReadAt/WriteAt/Read/Write/Seek are the io interfaces over the
// contiguous path.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvfs/internal/ioseg"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// PathCounters is the per-access-path accounting: wire requests
// issued and payload bytes moved through one noncontiguous method.
type PathCounters struct {
	Requests atomic.Int64
	Bytes    atomic.Int64
}

func (p *PathCounters) snapshot() PathValues {
	return PathValues{Requests: p.Requests.Load(), Bytes: p.Bytes.Load()}
}

// PathValues is a point-in-time copy of PathCounters.
type PathValues struct {
	Requests int64
	Bytes    int64
}

// Sub returns the delta p - o.
func (p PathValues) Sub(o PathValues) PathValues {
	return PathValues{Requests: p.Requests - o.Requests, Bytes: p.Bytes - o.Bytes}
}

// Counters tracks client-side request accounting, used by benchmarks
// and tests to verify the request arithmetic of the paper (§4.3.1:
// 983,040 vs 30 vs 1 requests per process). The per-path counters
// break the totals down by access method, so a trace replay or
// benchmark can show which datapath its requests took.
type Counters struct {
	Requests    atomic.Int64 // I/O requests sent to I/O daemons
	MgrRequests atomic.Int64 // metadata requests to the manager
	BytesOut    atomic.Int64 // payload bytes sent (writes)
	BytesIn     atomic.Int64 // payload bytes received (reads)
	Retries     atomic.Int64 // transport-level retries (SetRetries)

	// Per-path accounting (DESIGN.md §6): multiple I/O (§3.1), data
	// sieving (§3.2), list I/O (§3.3) and datatype I/O (§5).
	Multiple PathCounters
	Sieve    PathCounters
	List     PathCounters
	Datatype PathCounters
}

// Snapshot returns a plain-value copy of the counters.
func (c *Counters) Snapshot() CounterValues {
	return CounterValues{
		Requests:    c.Requests.Load(),
		MgrRequests: c.MgrRequests.Load(),
		BytesOut:    c.BytesOut.Load(),
		BytesIn:     c.BytesIn.Load(),
		Retries:     c.Retries.Load(),
		Multiple:    c.Multiple.snapshot(),
		Sieve:       c.Sieve.snapshot(),
		List:        c.List.snapshot(),
		Datatype:    c.Datatype.snapshot(),
	}
}

// CounterValues is a point-in-time copy of Counters.
type CounterValues struct {
	Requests    int64
	MgrRequests int64
	BytesOut    int64
	BytesIn     int64
	Retries     int64

	Multiple PathValues
	Sieve    PathValues
	List     PathValues
	Datatype PathValues
}

// Sub returns the delta v - o, the accounting of the work performed
// between two snapshots.
func (v CounterValues) Sub(o CounterValues) CounterValues {
	return CounterValues{
		Requests:    v.Requests - o.Requests,
		MgrRequests: v.MgrRequests - o.MgrRequests,
		BytesOut:    v.BytesOut - o.BytesOut,
		BytesIn:     v.BytesIn - o.BytesIn,
		Retries:     v.Retries - o.Retries,
		Multiple:    v.Multiple.Sub(o.Multiple),
		Sieve:       v.Sieve.Sub(o.Sieve),
		List:        v.List.Sub(o.List),
		Datatype:    v.Datatype.Sub(o.Datatype),
	}
}

// FS is a connection to a PVFS deployment: a metadata plane (a single
// manager, or replicated masters fronting hash-partitioned metadata
// shards — DESIGN.md §13) and N I/O daemons.
type FS struct {
	mgrAddr string
	pool    *pvfsnet.Pool
	stats   Counters
	retry   atomic.Pointer[RetryPolicy]

	// smap caches the epoch-stamped shard map; nil until the first
	// metadata call fetches it.
	smap atomic.Pointer[wire.ShardMap]
}

// Connect dials the manager.
func Connect(mgrAddr string) (*FS, error) {
	return ConnectContext(context.Background(), mgrAddr)
}

// ConnectContext dials the manager, honoring the context's deadline
// and cancellation for the TCP connect, so an unreachable manager fails
// here. The probe is closed at once: metadata calls draw the manager's
// connection from the pool on first use, like every daemon connection,
// so a SetConnWrap hook installed after Connect covers it too.
func ConnectContext(ctx context.Context, mgrAddr string) (*FS, error) {
	c, err := pvfsnet.DialContext(ctx, mgrAddr)
	if err != nil {
		return nil, err
	}
	c.Close()
	return &FS{mgrAddr: mgrAddr, pool: pvfsnet.NewPool()}, nil
}

// RetryPolicy bounds transparent retry of I/O daemon calls that fail
// in a retry-safe way: transport-level failures (broken or
// unreachable connection) and StatusUnavailable answers from a
// draining daemon. Server verdicts on the request itself (bad
// geometry, missing handle) are never retried, and neither are
// context cancellations or per-call deadlines.
//
// Replay is safe by request identity: every PVFS data operation
// addresses absolute physical offsets, so re-issuing the identical
// request is idempotent — a read returns the same bytes, a write
// re-applies the same image. Partially-acked pipelined windows are
// re-driven per tag: only the requests whose responses never arrived
// are re-issued (DESIGN.md §9).
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables
	// retry (the original PVFS behaviour — a died daemon fails the job).
	Max int
	// Backoff is the delay before the first retry, doubling on each
	// subsequent one; 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the doubling; 0 means uncapped.
	MaxBackoff time.Duration
}

// delay returns the backoff before the i-th retry (1-based).
func (p RetryPolicy) delay(i int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	shift := i - 1
	if shift > 20 { // 2^20× the base is past any sane MaxBackoff
		shift = 20
	}
	d := p.Backoff << shift
	if d <= 0 || (p.MaxBackoff > 0 && d > p.MaxBackoff) {
		d = p.MaxBackoff
		if d <= 0 {
			d = p.Backoff
		}
	}
	return d
}

// sleep blocks for the i-th retry's backoff, honoring ctx.
func (p RetryPolicy) sleep(ctx context.Context, i int) error {
	d := p.delay(i)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RetryError is the typed exhaustion error: the retry policy ran out
// of attempts against one daemon address. Err holds the final
// attempt's failure; errors.Is/As reach through it.
type RetryError struct {
	Addr     string
	Attempts int
	Err      error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("pvfs: %s still failing after %d attempts: %v", e.Addr, e.Attempts, e.Err)
}

func (e *RetryError) Unwrap() error { return e.Err }

// ctxKey keys request-scoped knobs carried through the datapath.
type ctxKey int

// callTimeoutKey carries Request.CallTimeout: a deadline applied to
// each individual wire call rather than the whole operation.
const callTimeoutKey ctxKey = iota

// retryPolicyKey carries Request.Retry: a per-operation retry policy
// overriding the FS-wide default for the calls it spans.
const retryPolicyKey ctxKey = iota + 1

// withCallTimeout attaches a per-wire-call deadline to ctx; d <= 0 is
// a no-op.
func withCallTimeout(ctx context.Context, d time.Duration) context.Context {
	if d <= 0 {
		return ctx
	}
	return context.WithValue(ctx, callTimeoutKey, d)
}

// callCtx derives the context governing one wire call: the operation
// context bounded by the per-call timeout, when one is set. The
// returned cancel must always be called.
func callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if d, ok := ctx.Value(callTimeoutKey).(time.Duration); ok && d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// ctxFailed reports whether err is a context cancellation or deadline
// error — failures the datapath must not retry and must not blame on
// the connection (the pooled connection stays healthy; only the
// affected tags are abandoned).
func ctxFailed(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Counters exposes the client request accounting.
func (fs *FS) Counters() *Counters { return &fs.stats }

// SetRetries enables transparent retry of I/O daemon calls that fail
// in a retry-safe way, attempting each call up to 1+n times with no
// backoff — shorthand for SetRetryPolicy(RetryPolicy{Max: n}). The
// original PVFS client had no retry — a died daemon failed the job —
// so the default is 0; deployments that restart daemons in place (see
// internal/fsck, cluster.RestartIOD and the recovery tests) turn it
// on. All PVFS data operations are idempotent (absolute offsets), so
// retrying a possibly-applied write is safe.
func (fs *FS) SetRetries(n int) {
	fs.SetRetryPolicy(RetryPolicy{Max: n})
}

// SetRetryPolicy installs the FS-wide default retry policy; a
// Request.Retry overrides it per operation.
func (fs *FS) SetRetryPolicy(p RetryPolicy) {
	if p.Max < 0 {
		p.Max = 0
	}
	fs.retry.Store(&p)
}

// retryPolicy resolves the policy governing calls under ctx: the
// per-request override when one rode in, the FS default otherwise.
func (fs *FS) retryPolicy(ctx context.Context) RetryPolicy {
	if p, ok := ctx.Value(retryPolicyKey).(RetryPolicy); ok {
		return p
	}
	if p := fs.retry.Load(); p != nil {
		return *p
	}
	return RetryPolicy{}
}

// withRetryPolicy attaches a per-operation retry policy to ctx.
func withRetryPolicy(ctx context.Context, p *RetryPolicy) context.Context {
	if p == nil {
		return ctx
	}
	q := *p
	if q.Max < 0 {
		q.Max = 0
	}
	return context.WithValue(ctx, retryPolicyKey, q)
}

// SetConnWrap installs a raw-connection wrapper on the I/O daemon
// connection pool: every subsequently dialed connection passes through
// it before the tagged transport takes over. Fault-injection harnesses
// (internal/faultnet) use it to run a client over a scripted faulty
// wire; nil removes the hook.
func (fs *FS) SetConnWrap(w func(net.Conn) net.Conn) { fs.pool.SetConnWrap(w) }

// iodCall issues one request to the daemon at addr and waits for its
// response, retrying per the governing RetryPolicy (see settle).
func (fs *FS) iodCall(ctx context.Context, addr string, msg wire.Message) (wire.Message, error) {
	pc, err := fs.send(ctx, addr, msg)
	return fs.settle(ctx, addr, fs.retryPolicy(ctx), msg, pc, err)
}

// send issues msg on the pooled connection for addr, which the pool
// redials if the connection has died.
func (fs *FS) send(ctx context.Context, addr string, msg wire.Message) (*pvfsnet.Pending, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conn, err := fs.pool.GetContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return conn.CallAsync(msg)
}

// settle sees one request through to its outcome under pol: its first
// attempt is pc, in flight, or err, why it could not be sent. Every
// attempt, the first included, spends one of the request's 1+pol.Max,
// and the i-th retry waits pol's i-th backoff first. Retry-safe
// failures are transport errors (a broken or unreachable connection,
// which the pool redials) and StatusUnavailable answers (the daemon is
// draining). Other server-reported errors are verdicts and fail at
// once, returned with the response. Context failures — the operation's
// cancellation or the per-call deadline of withCallTimeout — are never
// retried: the call's tag is abandoned and every other tag on the
// connection proceeds. When the policy is exhausted the last failure is
// wrapped in *RetryError.
func (fs *FS) settle(ctx context.Context, addr string, pol RetryPolicy, msg wire.Message, pc *pvfsnet.Pending, err error) (wire.Message, error) {
	for try := 1; ; try++ {
		var resp wire.Message
		if err == nil {
			cctx, cancel := callCtx(ctx)
			resp, err = pc.WaitContext(cctx)
			cancel()
			if err == nil {
				return resp, nil
			}
		}
		var se *wire.StatusError
		if errors.As(err, &se) && !se.Status.Retryable() {
			return resp, err // the server answered with a verdict; retrying cannot help
		}
		resp.Release()
		if ctxFailed(err) {
			return wire.Message{}, err
		}
		if try > pol.Max {
			if pol.Max > 0 {
				err = &RetryError{Addr: addr, Attempts: try, Err: err}
			}
			return wire.Message{}, err
		}
		fs.stats.Retries.Add(1)
		if err := pol.sleep(ctx, try); err != nil {
			return wire.Message{}, err
		}
		pc, err = fs.send(ctx, addr, msg)
	}
}

// Close releases all connections.
func (fs *FS) Close() error { return fs.pool.Close() }

// shardMap returns the deployment's shard map, fetching and caching it
// on first use. Every manager role answers the query: a classic
// manager with a one-shard map naming itself.
func (fs *FS) shardMap(ctx context.Context) (*wire.ShardMap, error) {
	if m := fs.smap.Load(); m != nil {
		return m, nil
	}
	resp, err := fs.iodCall(ctx, fs.mgrAddr, wire.Message{Header: wire.Header{Type: wire.TShardMap}})
	if err != nil {
		resp.Release()
		return nil, err
	}
	m := new(wire.ShardMap)
	uerr := m.Unmarshal(resp.Body)
	resp.Release()
	if uerr != nil {
		return nil, uerr
	}
	fs.installMap(m)
	return fs.smap.Load(), nil
}

// installMap adopts a shard map observed on the wire, keeping the
// freshest epoch under concurrent installs.
func (fs *FS) installMap(m *wire.ShardMap) {
	for {
		cur := fs.smap.Load()
		if cur != nil && cur.Epoch >= m.Epoch {
			return
		}
		if fs.smap.CompareAndSwap(cur, m) {
			return
		}
	}
}

// metaCall routes one metadata request to the shard pick selects,
// wrapped in the epoch-stamped TMetaForward envelope. StatusWrongEpoch
// answers are absorbed here: the response body carries the shard's
// current map, which is installed and the request re-routed — user
// code never sees the epoch protocol.
func (fs *FS) metaCall(ctx context.Context, t wire.MsgType, handle uint64, body []byte, pick func(*wire.ShardMap) int) (wire.Message, error) {
	m, err := fs.shardMap(ctx)
	if err != nil {
		return wire.Message{}, err
	}
	fs.stats.MgrRequests.Add(1)
	const maxReroutes = 5
	for attempt := 0; ; attempt++ {
		env := wire.MetaEnvelope{Epoch: m.Epoch, Inner: t, Body: body}
		resp, err := fs.iodCall(ctx, m.Shards[pick(m)], wire.Message{
			Header: wire.Header{Type: wire.TMetaForward, Handle: handle},
			Body:   env.Marshal(),
		})
		if err != nil {
			var se *wire.StatusError
			if errors.As(err, &se) && se.Status == wire.StatusWrongEpoch && attempt < maxReroutes {
				// The shard knows a different epoch and sent its map
				// along; adopt it and re-route.
				nm := new(wire.ShardMap)
				uerr := nm.Unmarshal(resp.Body)
				resp.Release()
				if uerr != nil {
					return wire.Message{}, uerr
				}
				fs.installMap(nm)
				if cur := fs.smap.Load(); cur != nil {
					m = cur
				} else {
					m = nm
				}
				continue
			}
		}
		return resp, err
	}
}

// metaByName routes a name-addressed metadata request.
func (fs *FS) metaByName(ctx context.Context, t wire.MsgType, name string, body []byte) (wire.Message, error) {
	return fs.metaCall(ctx, t, 0, body, func(m *wire.ShardMap) int {
		return m.ShardForName(name)
	})
}

// metaByHandle routes a handle-addressed metadata request.
func (fs *FS) metaByHandle(ctx context.Context, t wire.MsgType, handle uint64, body []byte) (wire.Message, error) {
	return fs.metaCall(ctx, t, handle, body, func(m *wire.ShardMap) int {
		return m.ShardForHandle(handle)
	})
}

// Create creates a file with the given striping (zero values select
// manager defaults) and opens it.
func (fs *FS) Create(name string, cfg striping.Config) (*File, error) {
	return fs.CreateContext(context.Background(), name, cfg)
}

// createToken returns a fresh non-zero idempotency token for one
// logical create call. Retries of the call re-send the same token, so
// the metadata plane can tell "this client's earlier attempt
// committed but the ack was lost" (re-acked OK) from "someone else
// owns the name" (Exists).
func createToken() uint64 {
	for {
		if t := rand.Uint64(); t != 0 {
			return t
		}
	}
}

// CreateContext is Create under a context: the metadata round trip to
// the manager aborts when ctx ends.
func (fs *FS) CreateContext(ctx context.Context, name string, cfg striping.Config) (*File, error) {
	req := wire.CreateReq{Name: name, Striping: cfg, Token: createToken()}
	resp, err := fs.metaByName(ctx, wire.TCreate, name, req.Marshal())
	if err != nil {
		return nil, fmt.Errorf("create %q: %w", name, err)
	}
	defer resp.Release()
	return fs.fileFromInfo(name, resp.Body)
}

// Open opens an existing file.
func (fs *FS) Open(name string) (*File, error) {
	return fs.OpenContext(context.Background(), name)
}

// OpenContext is Open under a context.
func (fs *FS) OpenContext(ctx context.Context, name string) (*File, error) {
	req := wire.NameReq{Name: name}
	resp, err := fs.metaByName(ctx, wire.TOpen, name, req.Marshal())
	if err != nil {
		return nil, fmt.Errorf("open %q: %w", name, err)
	}
	defer resp.Release()
	return fs.fileFromInfo(name, resp.Body)
}

func (fs *FS) fileFromInfo(name string, body []byte) (*File, error) {
	var info wire.FileInfo
	if err := info.Unmarshal(body); err != nil {
		return nil, err
	}
	if err := info.Striping.Validate(); err != nil {
		return nil, err
	}
	if len(info.IODAddrs) != info.Striping.PCount {
		return nil, fmt.Errorf("pvfs: manager returned %d iods for pcount %d",
			len(info.IODAddrs), info.Striping.PCount)
	}
	return &File{fs: fs, name: name, info: info}, nil
}

// Remove deletes a file: stripe data at every I/O daemon, then the
// manager metadata.
func (fs *FS) Remove(name string) error {
	ctx := context.Background()
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	for _, addr := range f.info.IODAddrs {
		resp, err := fs.iodCall(ctx, addr, wire.Message{Header: wire.Header{Type: wire.TRemove, Handle: f.info.Handle}})
		if err != nil {
			return fmt.Errorf("remove %q at %s: %w", name, addr, err)
		}
		resp.Release()
	}
	req := wire.NameReq{Name: name}
	resp, err := fs.metaByName(ctx, wire.TRemove, name, req.Marshal())
	if err != nil {
		return err
	}
	resp.Release()
	return nil
}

// List returns all file names known to the metadata plane. Under a
// sharded deployment every shard lists its own partition and the
// results are merged; the combined listing is sorted like the classic
// manager's.
func (fs *FS) List() ([]string, error) {
	ctx := context.Background()
	m, err := fs.shardMap(ctx)
	if err != nil {
		return nil, err
	}
	var names []string
	for shard := range m.Shards {
		shard := shard
		resp, err := fs.metaCall(ctx, wire.TListDir, 0, nil, func(*wire.ShardMap) int { return shard })
		if err != nil {
			return nil, err
		}
		var ld wire.ListDirResp
		uerr := ld.Unmarshal(resp.Body)
		resp.Release()
		if uerr != nil {
			return nil, uerr
		}
		names = append(names, ld.Names...)
	}
	sort.Strings(names)
	return names, nil
}

// StatHandle fetches a file's metadata by handle, routed to the shard
// that owns the handle. fsck uses it to re-verify a suspected orphan
// against the live namespace before deleting stripe data (a sharded
// listing is not atomic across shards).
func (fs *FS) StatHandle(ctx context.Context, handle uint64) (wire.FileInfo, error) {
	var nr wire.NameReq
	resp, err := fs.metaByHandle(ctx, wire.TStat, handle, nr.Marshal())
	if err != nil {
		return wire.FileInfo{}, err
	}
	defer resp.Release()
	var info wire.FileInfo
	if err := info.Unmarshal(resp.Body); err != nil {
		return wire.FileInfo{}, err
	}
	return info, nil
}

// MetaStats sums request accounting across the metadata plane: every
// shard plus every master replica that answers. Dead replicas are
// skipped (their counters are gone with them).
func (fs *FS) MetaStats(ctx context.Context) (wire.ServerStats, error) {
	var total wire.ServerStats
	m, err := fs.shardMap(ctx)
	if err != nil {
		return total, err
	}
	query := wire.Message{Header: wire.Header{Type: wire.TServerStats}}
	addrs := append(append([]string(nil), m.Shards...), m.Masters...)
	seen := make(map[string]bool, len(addrs))
	for _, addr := range addrs {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		resp, err := fs.iodCall(ctx, addr, query)
		if err != nil {
			continue
		}
		var st wire.ServerStats
		uerr := st.Unmarshal(resp.Body)
		resp.Release()
		if uerr == nil {
			total.Add(st)
		}
	}
	return total, nil
}

// ServerStats fetches request accounting from every I/O daemon serving
// file f, summed, plus the per-server breakdown.
func (fs *FS) ServerStats(f *File) (wire.ServerStats, []wire.ServerStats, error) {
	ctx := context.Background()
	per := make([]wire.ServerStats, len(f.info.IODAddrs))
	var total wire.ServerStats
	for i, addr := range f.info.IODAddrs {
		resp, err := fs.iodCall(ctx, addr, wire.Message{Header: wire.Header{Type: wire.TServerStats}})
		if err != nil {
			return total, per, err
		}
		uerr := per[i].Unmarshal(resp.Body)
		resp.Release()
		if uerr != nil {
			return total, per, uerr
		}
		total.Add(per[i])
	}
	return total, per, nil
}

// File is an open PVFS file.
type File struct {
	fs   *FS
	name string
	info wire.FileInfo

	mu         sync.Mutex
	maxWritten int64

	seq seqState // the io.Reader/Writer/Seeker cursor
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Handle returns the manager-assigned handle.
func (f *File) Handle() uint64 { return f.info.Handle }

// Striping returns the file's striping configuration.
func (f *File) Striping() striping.Config { return f.info.Striping }

// Servers returns the addresses of the I/O daemons holding the file's
// stripes, in stripe order.
func (f *File) Servers() []string { return append([]string(nil), f.info.IODAddrs...) }

// RecordedSize returns the logical size the manager recorded at the
// last Close. The authoritative size comes from Size(), which asks the
// I/O daemons; the two can disagree when a writer crashed before
// closing (see internal/fsck).
func (f *File) RecordedSize() int64 { return f.info.Size }

// call issues one request to relative server rel, honoring the FS
// retry policy.
func (f *File) call(ctx context.Context, rel int, msg wire.Message) (wire.Message, error) {
	return f.fs.iodCall(ctx, f.info.IODAddrs[rel], msg)
}

// Size queries every I/O daemon for its stripe size and derives the
// logical file size, as PVFS does (the manager does not see I/O).
func (f *File) Size() (int64, error) {
	return f.size(context.Background())
}

func (f *File) size(ctx context.Context) (int64, error) {
	phys := make([]int64, f.info.Striping.PCount)
	err := f.eachServer(func(rel int) error {
		resp, err := f.call(ctx, rel, wire.Message{Header: wire.Header{Type: wire.TStat, Handle: f.info.Handle}})
		if err != nil {
			return err
		}
		var sr wire.SizeResp
		uerr := sr.Unmarshal(resp.Body)
		resp.Release()
		phys[rel] = sr.Size
		return uerr
	})
	if err != nil {
		return 0, err
	}
	return f.info.Striping.FileSizeFromStripes(phys), nil
}

// eachServer runs fn once per relative server of the file, all of them
// in parallel (one round trip, not PCount sequential ones), and returns
// the first error.
func (f *File) eachServer(fn func(rel int) error) error {
	rels := make([]int, f.info.Striping.PCount)
	for i := range rels {
		rels[i] = i
	}
	return parallel(rels, fn)
}

// Sync asks every I/O daemon serving the file to hand its cached
// dirty blocks for this handle to its backend store (TSync). Daemons
// running without a write-back cache acknowledge immediately, so Sync
// is always safe to call. On return, every write that completed before
// the call survives a daemon crash; it does not yet survive a host
// crash, because no daemon calls fdatasync (DESIGN.md §7).
func (f *File) Sync() error {
	return f.SyncContext(context.Background())
}

// SyncContext is Sync under a context; canceling it abandons the
// outstanding flush round trips (daemons still complete them).
func (f *File) SyncContext(ctx context.Context) error {
	return f.eachServer(func(rel int) error {
		resp, err := f.call(ctx, rel, wire.Message{
			Header: wire.Header{Type: wire.TSync, Handle: f.info.Handle},
		})
		if err != nil {
			return err
		}
		resp.Release()
		return nil
	})
}

// Close flushes the daemons' cached dirty blocks for the file
// (flush-on-close), reports the logical high-water mark to the
// manager and releases the handle. Pooled connections stay open for
// other files. If the file was only read, no sync round trip is made.
func (f *File) Close() error {
	return f.CloseContext(context.Background())
}

// CloseContext is Close under a context. A canceled close leaves the
// handle usable: the size report is skipped, not half-applied.
func (f *File) CloseContext(ctx context.Context) error {
	f.mu.Lock()
	hw := f.maxWritten
	f.mu.Unlock()
	if hw > 0 {
		if err := f.SyncContext(ctx); err != nil {
			return err
		}
		req := wire.SetSizeReq{Handle: f.info.Handle, Size: hw}
		resp, err := f.fs.metaByHandle(ctx, wire.TSetSize, f.info.Handle, req.Marshal())
		if err != nil {
			return err
		}
		resp.Release()
	}
	return nil
}

func (f *File) noteWritten(end int64) {
	f.mu.Lock()
	if end > f.maxWritten {
		f.maxWritten = end
	}
	f.mu.Unlock()
}

// parallel runs fn for every job in its own goroutine (one per server,
// as the PVFS library fans out) and returns the first error.
func parallel[T any](jobs []T, fn func(T) error) error {
	if len(jobs) == 1 {
		return fn(jobs[0])
	}
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		go func(j T) { errs <- fn(j) }(j)
	}
	var first error
	for range jobs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// The one pair of pipelining defaults every windowed datapath shares:
// list requests, datatype windows and the chunks of a contiguous read
// or write.
const (
	// DefaultWindow is the number of requests kept in flight per server
	// connection. Eight hide most of the per-round-trip latency while
	// bounding client buffering to eight request bodies per server.
	DefaultWindow = 8
	// DefaultWindowBytes is the payload of one windowed request: large
	// enough that a multi-MB share moves in a handful of requests,
	// small enough that the daemon's receive body stays in a pool class
	// that parks 16 buffers (its own: wire's classes keep headroom for
	// a request's fixed fields) and neither side buffers more than a
	// few windows per connection.
	DefaultWindowBytes = wire.ChunkBytes
)

// pipelineCalls issues n requests against the daemon at addr, keeping
// up to window of them in flight on the pooled connection (the tagged
// pipelining of pvfsnet.CallAsync); window 1 is the serialized
// call-per-round-trip behaviour. build constructs request i on demand —
// so at most window request bodies are live at once — and consume
// handles response i, in issue order.
//
// Each request is seen through by settle, which owns the retry policy:
// a request whose response never arrived is re-driven alone, on the
// budget and backoff its first attempt already started, while acked
// requests in the window stay applied (idempotent replay, DESIGN.md
// §9). A request that could not be sent stops the window from filling
// until it is settled. Request bodies are returned to the wire buffer
// pool once the final attempt for them completes; a vectored request's
// Body is its pooled fixed-field buffer, and the caller memory behind
// its BodyStream or Dest is used again on replay, never released.
//
// Cancellation (ctx or the per-call deadline of withCallTimeout) fails
// the operation without poisoning the connection: every in-flight tag
// is abandoned — the read loop discards and recycles its eventual
// response — and the pooled connection stays usable for other tags.
// Abandoning returns only once no response can still land in a
// request's Dest, so when pipelineCalls returns, by any path, the
// caller's memory is the caller's alone.
func (fs *FS) pipelineCalls(ctx context.Context, addr string, n, window int, build func(int) (wire.Message, error), consume func(int, wire.Message) error) error {
	type slot struct {
		msg wire.Message
		pc  *pvfsnet.Pending
		err error // why the request could not be sent
	}
	window = max(window, 1)
	var qbuf [DefaultWindow]slot
	q := qbuf[:0] // in flight, issue order
	if window > len(qbuf) {
		q = make([]slot, 0, window)
	}
	// On any error return, abandon what is still in flight so tags are
	// discarded cleanly and pooled request bodies come back.
	defer func() {
		for _, s := range q {
			if s.pc != nil {
				s.pc.Abandon()
			}
			wire.PutBuf(s.msg.Body)
		}
	}()
	pol := fs.retryPolicy(ctx)
	for next, done := 0, 0; done < n; done++ {
		// Fill the window, but not past a request that could not be sent.
		for next < n && len(q) < window && (len(q) == 0 || q[len(q)-1].err == nil) {
			if err := ctx.Err(); err != nil {
				return err
			}
			msg, err := build(next)
			if err != nil {
				return err
			}
			pc, err := fs.send(ctx, addr, msg)
			q = append(q, slot{msg: msg, pc: pc, err: err})
			next++
		}
		s := q[0]
		q = q[:copy(q, q[1:])]
		resp, err := fs.settle(ctx, addr, pol, s.msg, s.pc, s.err)
		wire.PutBuf(s.msg.Body)
		if err != nil {
			return err
		}
		if err := consume(done, resp); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt implements contiguous reads (io.ReaderAt semantics against
// the logical file; holes read as zeros). It is a synchronous wrapper
// over Start with a contiguous Request.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("pvfs: negative offset")
	}
	_, err := f.Run(context.Background(), Request{
		Arena: p,
		File:  ioseg.List{{Offset: off, Length: int64(len(p))}},
		Mem:   ioseg.List{{Offset: 0, Length: int64(len(p))}},
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteAt implements contiguous writes (a synchronous wrapper over
// Start with a contiguous write Request).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("pvfs: negative offset")
	}
	_, err := f.Run(context.Background(), Request{
		Write: true,
		Arena: p,
		File:  ioseg.List{{Offset: off, Length: int64(len(p))}},
		Mem:   ioseg.List{{Offset: 0, Length: int64(len(p))}},
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// Truncate sets the logical file size: each stripe file is cut to the
// physical size implied by the logical size.
func (f *File) Truncate(size int64) error {
	return f.TruncateContext(context.Background(), size)
}

// TruncateContext is Truncate under a context. The daemons are cut in
// parallel; a canceled or failed truncate may have cut any subset of
// the stripe files (each cut is idempotent, so re-issuing it is safe).
func (f *File) TruncateContext(ctx context.Context, size int64) error {
	cfg := f.info.Striping
	err := f.eachServer(func(rel int) error {
		req := wire.TruncateReq{Size: cfg.PhysPrefix(rel, size)}
		resp, err := f.call(ctx, rel, wire.Message{
			Header: wire.Header{Type: wire.TTruncate, Handle: f.info.Handle},
			Body:   req.Marshal(),
		})
		if err != nil {
			return err
		}
		resp.Release()
		return nil
	})
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.maxWritten = size
	f.mu.Unlock()
	return nil
}
