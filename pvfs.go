// Package pvfs is a from-scratch Go reproduction of the system in
// "Noncontiguous I/O through PVFS" (Ching, Choudhary, Liao, Ross,
// Gropp — IEEE Cluster 2002): a PVFS-style parallel file system (one
// metadata manager, N I/O daemons, striped files) with three
// noncontiguous access methods —
//
//   - Multiple I/O: one contiguous request per doubly-contiguous piece
//     (the traditional method, §3.1);
//   - Data sieving I/O: large windows through a 32 MB client buffer,
//     read-modify-write for writes (§3.2);
//   - List I/O: the paper's contribution — up to 64 file regions
//     described in a request's trailing data (§3.3);
//
// plus the paper's future-work extensions (§5): MPI-style datatype
// descriptors and the hybrid list+sieve method.
//
// This package is the public facade: it re-exports the client library,
// the in-process cluster harness, the access-pattern generators of the
// paper's benchmarks, and the calibrated cluster performance model
// that regenerates the paper's figures. See README.md for a tour and
// EXPERIMENTS.md for paper-vs-measured results.
//
// A minimal session:
//
//	c, _ := pvfs.StartCluster(pvfs.ClusterOptions{NumIOD: 8})
//	defer c.Close()
//	fs, _ := c.Connect()
//	defer fs.Close()
//	f, _ := fs.Create("data.bin", pvfs.StripeConfig{})
//	f.Run(ctx, pvfs.Request{Write: true, Arena: buf, Mem: memRegions,
//		File: fileRegions, Method: pvfs.AccessList})
package pvfs

import (
	"context"
	iofs "io/fs"

	"pvfs/internal/client"
	"pvfs/internal/cluster"
	"pvfs/internal/collective"
	"pvfs/internal/datatype"
	"pvfs/internal/faultnet"
	"pvfs/internal/ioseg"
	"pvfs/internal/mpiio"
	"pvfs/internal/stdfs"
	"pvfs/internal/striping"
)

// Core region types (the pvfs_read_list offset/length vocabulary).
type (
	// Segment is a contiguous byte extent [Offset, Offset+Length).
	Segment = ioseg.Segment
	// List is an ordered list of segments.
	List = ioseg.List
	// StripeConfig selects a file's striping (base server, server
	// count, stripe unit size; zero values select defaults).
	StripeConfig = striping.Config
)

// DefaultStripeSize is PVFS's 16 KiB default stripe unit.
const DefaultStripeSize = striping.DefaultStripeSize

// Regions builds a List from parallel offset/length slices, the shape
// of the paper's pvfs_read_list interface.
func Regions(offsets, lengths []int64) (List, error) {
	return ioseg.FromOffLen(offsets, lengths)
}

// Client library.
type (
	// FS is a client session against a PVFS deployment.
	FS = client.FS
	// File is an open PVFS file: File.Start/Run take a Request, the
	// one noncontiguous I/O verb; ReadAt/WriteAt are the io interfaces.
	File = client.File
	// ListOptions tunes list I/O (entry granularity, batch size).
	ListOptions = client.ListOptions
	// SieveOptions tunes data sieving (buffer size; default 32 MB).
	SieveOptions = client.SieveOptions
	// SieveStats reports sieving/hybrid data movement.
	SieveStats = client.SieveStats
	// Granularity selects list-entry construction.
	Granularity = client.Granularity
	// DatatypeOptions tunes datatype I/O (per-request payload window,
	// DESIGN.md §6).
	DatatypeOptions = client.DatatypeOptions

	// Request is the access descriptor: one value bundles memory
	// layout, file layout (region list or datatype), method selection
	// and per-op tuning. File.Start(ctx, Request) runs it without
	// blocking, File.Run with (DESIGN.md §8).
	Request = client.Request
	// Op is a started nonblocking operation (Wait / Done / Err).
	Op = client.Op
	// Result summarizes a completed operation (resolved method, bytes
	// moved, sieving stats).
	Result = client.Result
	// AccessMethod selects a Request's datapath; the zero value
	// auto-picks.
	AccessMethod = client.AccessMethod

	// RetryPolicy bounds transparent retry of retry-safe daemon-call
	// failures (transport errors, StatusUnavailable): Max attempts
	// beyond the first, exponential backoff from Backoff capped at
	// MaxBackoff. Install FS-wide with FS.SetRetryPolicy or per
	// operation via Request.Retry (DESIGN.md §9).
	RetryPolicy = client.RetryPolicy
	// RetryError is the typed exhaustion error a failed retry surfaces
	// (errors.As reaches it through wrapping).
	RetryError = client.RetryError
)

// Request access methods (DESIGN.md §8). AccessAuto routes encodable
// datatype layouts down the datatype path, doubly-contiguous transfers
// down the contiguous path, and everything else to list I/O.
const (
	AccessAuto     = client.AccessAuto
	AccessContig   = client.AccessContig
	AccessMultiple = client.AccessMultiple
	AccessSieve    = client.AccessSieve
	AccessList     = client.AccessList
	AccessDatatype = client.AccessDatatype
	AccessHybrid   = client.AccessHybrid
)

// List-entry granularities (DESIGN.md §3).
const (
	GranularityFileRegions = client.GranularityFileRegions
	GranularityIntersect   = client.GranularityIntersect
)

// DefaultSieveBuffer is the paper's 32 MB sieve buffer (§3.2).
const DefaultSieveBuffer = client.DefaultSieveBuffer

// DefaultListWindow is the number of list or datatype requests kept
// in flight per server connection when Request.Window is zero
// (DESIGN.md §2). Set Request.Window to 1 for the original serialized
// PVFS behaviour. The chunks of a contiguous transfer keep the same
// number in flight.
const DefaultListWindow = client.DefaultWindow

// DefaultDatatypeWindow is the per-request payload window of datatype
// I/O when DatatypeOptions.WindowBytes is zero (DESIGN.md §6), and the
// chunk size of a contiguous write.
const DefaultDatatypeWindow = client.DefaultWindowBytes

// Connect opens a client session against a manager daemon address.
func Connect(mgrAddr string) (*FS, error) { return client.Connect(mgrAddr) }

// ConnectContext is Connect honoring the context's deadline and
// cancellation for the TCP connect to the manager.
func ConnectContext(ctx context.Context, mgrAddr string) (*FS, error) {
	return client.ConnectContext(ctx, mgrAddr)
}

// StdFS wraps a client session as a read-only io/fs.FS — the Go
// analogue of §2's "existing binaries operate on PVFS files without
// the need for recompiling": fs.WalkDir, fs.ReadFile, http.FileServer
// and anything else written against io/fs runs over the deployment
// unchanged. The session must stay open while the file system is in
// use. The adapter passes testing/fstest.TestFS; see internal/stdfs
// for semantics (flat namespace, zero mod times).
func StdFS(fs *FS) iofs.FS { return stdfs.New(fs) }

// In-process cluster harness.
type (
	// Cluster is an in-process PVFS deployment (manager + I/O
	// daemons on loopback TCP).
	Cluster = cluster.Cluster
	// ClusterOptions configures StartCluster.
	ClusterOptions = cluster.Options
	// Barrier is an MPI_Barrier equivalent for coordinating client
	// goroutines (required around concurrent sieving writes, §4.2.1).
	Barrier = cluster.Barrier
)

// StartCluster launches a manager and N I/O daemons on loopback TCP.
func StartCluster(opts ClusterOptions) (*Cluster, error) { return cluster.Start(opts) }

// Fault injection (DESIGN.md §9): wrap an in-process cluster's daemon
// listeners (ClusterOptions.FaultScript) or a client's connection pool
// (FS.SetConnWrap) with scriptable, seed-deterministic wire faults, so
// any test or bench runs over a faulty wire.
type (
	// FaultPlan scripts one connection's faults: latency, drop after
	// N bytes, stall, truncate a frame mid-body, close on the Kth
	// request.
	FaultPlan = faultnet.Plan
	// FaultScript hands out deterministic per-connection FaultPlans.
	FaultScript = faultnet.Script
	// FaultChaosOptions parameterizes a random FaultScript.
	FaultChaosOptions = faultnet.ChaosOptions
)

// NewFaultScript builds a seed-deterministic random fault script.
func NewFaultScript(opts FaultChaosOptions) *FaultScript { return faultnet.NewScript(opts) }

// FixedFaults builds a script applying the same plan to every
// connection.
func FixedFaults(plan FaultPlan) *FaultScript { return faultnet.Fixed(plan) }

// DefaultFaultChaos is a moderately hostile random fault mix.
func DefaultFaultChaos(seed int64) FaultChaosOptions { return faultnet.DefaultChaos(seed) }

// NewBarrier creates an n-party reusable barrier.
func NewBarrier(n int) *Barrier { return cluster.NewBarrier(n) }

// RunRanks runs fn(rank) on n goroutines, one per simulated compute
// process, returning the first error.
func RunRanks(n int, fn func(rank int) error) error { return cluster.RunRanks(n, fn) }

// MPI-style datatypes (§5 future work).
type (
	// Datatype is an MPI-style derived datatype; FlattenType turns it
	// into a region list, Request.Type consumes it directly.
	Datatype = datatype.Type
	// Field is one member of a Struct datatype.
	Field = datatype.Field
)

// Datatype constructors (see internal/datatype for semantics).
var (
	Bytes      = datatype.Bytes
	Double     = datatype.Double
	Contiguous = datatype.Contiguous
	Vector     = datatype.Vector
	HVector    = datatype.HVector
	Indexed    = datatype.Indexed
	Subarray   = datatype.Subarray
	Struct     = datatype.Struct
)

// FlattenType materializes a datatype's regions at a base offset, in
// data order (the order its bytes fill a Request's memory) with
// touching regions merged: the regions every access method moves for
// Type: t, Base: base.
func FlattenType(t Datatype, base int64) List { return datatype.Flatten(t, base) }

// MPI-IO (ROMIO)-style layer: file views over datatypes with hints
// selecting the noncontiguous strategy (the interface the paper
// positions list I/O beneath, §1/§3).
type (
	// ViewFile is a PVFS file with an MPI-IO view installed.
	ViewFile = mpiio.File
	// ViewHints mirrors the ROMIO info keys relevant to the paper
	// (method selection, sieve buffer size, hybrid coalescing gap).
	ViewHints = mpiio.Hints
)

// OpenView wraps an open file with the MPI-IO view interface (the
// default view is a linear byte stream; use SetView for noncontiguous
// tilings).
func OpenView(f *File, hints ViewHints) *ViewFile { return mpiio.Open(f, hints) }

// CollectiveGroup coordinates two-phase collective I/O across ranks
// (ROMIO's companion optimization, the paper's reference [11]): ranks
// exchange data so aggregators issue large contiguous accesses.
type CollectiveGroup = collective.Group

// NewCollectiveGroup creates a two-phase I/O group of n ranks; every
// rank must call each collective (WriteAll/ReadAll) in the same order.
func NewCollectiveGroup(n int) *CollectiveGroup { return collective.NewGroup(n) }
