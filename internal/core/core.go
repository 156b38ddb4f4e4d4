// Package core is the paper's analysis in closed form: the request
// arithmetic of §3.4 over an Access (a rank's region, piece and byte
// counts) and the method selection §3.4 walks through in prose, as an
// executable heuristic over the client's own method vocabulary
// (client.AccessMethod).
//
// Everything here is pure arithmetic. The exact per-request counting
// lives in internal/simcluster (CountWorkload) and the real execution
// in internal/client; tests assert the three agree on the paper's
// workloads, whose per-process numbers bench.RequestCounts tabulates.
package core

import (
	"fmt"

	"pvfs/internal/client"
	"pvfs/internal/wire"
)

// Access summarizes one rank's noncontiguous access pattern, the
// inputs to the paper's analysis.
type Access struct {
	// FileRegions is the number of contiguous file regions.
	FileRegions int64
	// MemPieces is the number of contiguous memory pieces.
	MemPieces int64
	// Pieces is the number of doubly-contiguous pieces (memory ∩
	// file); for nested/aligned layouts it is max(FileRegions,
	// MemPieces).
	Pieces int64
	// Bytes is the total data moved.
	Bytes int64
	// SpanBytes is the file extent from first to last accessed byte.
	SpanBytes int64
}

// Validate sanity-checks the access description.
func (a Access) Validate() error {
	if a.FileRegions <= 0 || a.MemPieces <= 0 || a.Pieces <= 0 {
		return fmt.Errorf("core: region counts must be positive: %+v", a)
	}
	if a.Pieces < a.FileRegions || a.Pieces < a.MemPieces {
		return fmt.Errorf("core: pieces %d below max(file %d, mem %d)", a.Pieces, a.FileRegions, a.MemPieces)
	}
	if a.Bytes <= 0 || a.SpanBytes < a.Bytes {
		return fmt.Errorf("core: bytes %d / span %d inconsistent", a.Bytes, a.SpanBytes)
	}
	return nil
}

// Density is the useful fraction of the access's file span — the
// quantity the paper's §3.4 analysis keys on ("relatively densely
// packed regions of desired data").
func (a Access) Density() float64 {
	if a.SpanBytes == 0 {
		return 0
	}
	return float64(a.Bytes) / float64(a.SpanBytes)
}

// MeanGap is the average hole between consecutive file regions.
func (a Access) MeanGap() int64 {
	if a.FileRegions <= 1 {
		return 0
	}
	return (a.SpanBytes - a.Bytes) / (a.FileRegions - 1)
}

// MultipleRequests is the request count of multiple I/O (§3.1): one
// contiguous request per doubly-contiguous piece (the traditional
// interface takes one buffer pointer and one file offset per call).
func MultipleRequests(a Access) int64 { return a.Pieces }

// ListRequests is the logical request count of list I/O (§3.3): the
// entry list split at the trailing-data limit. Granularity intersect
// counts pieces, granularity file counts file regions.
func ListRequests(entries int64, maxPerRequest int) int64 {
	if maxPerRequest <= 0 {
		maxPerRequest = wire.MaxRegionsPerRequest
	}
	return ceilDiv(entries, int64(maxPerRequest))
}

// SieveRequests is the buffer-operation count of data sieving (§3.2):
// one contiguous operation per buffer-sized window of the span (twice
// for writes: read-modify-write).
func SieveRequests(a Access, bufferBytes int64, write bool) int64 {
	if bufferBytes <= 0 {
		bufferBytes = client.DefaultSieveBuffer
	}
	n := ceilDiv(a.SpanBytes, bufferBytes)
	if write {
		return 2 * n
	}
	return n
}

// SieveBytesMoved is the data volume sieving transfers: the whole
// span once for reads, twice for writes (§3.2's read-modify-write).
func SieveBytesMoved(a Access, write bool) int64 {
	if write {
		return 2 * a.SpanBytes
	}
	return a.SpanBytes
}

// UselessBytes is the impertinent data sieving moves (§3.4's "major
// disadvantage").
func UselessBytes(a Access, write bool) int64 {
	return SieveBytesMoved(a, write) - a.Bytes
}

// CostModel carries the two constants §3.4's comparison needs: what a
// request costs relative to moving a byte.
type CostModel struct {
	// RequestCost is the fixed per-request overhead in byte-transfer
	// equivalents (network + processing amortization). On the paper's
	// fast Ethernet an ~0.8 ms request equals ~10 KB of transfer.
	RequestCost float64
	// Ranks reflects that sieving writes serialize across ranks
	// (multiplies sieve write cost by the rank count).
	Ranks int
}

// DefaultCostModel approximates the Chiba City calibration.
func DefaultCostModel() CostModel { return CostModel{RequestCost: 10000, Ranks: 1} }

// EstimateCost scores a method for an access in byte-equivalents,
// implementing §3.4's qualitative comparison quantitatively.
func EstimateCost(a Access, m client.AccessMethod, write bool, c CostModel) float64 {
	switch m {
	case client.AccessMultiple:
		return float64(MultipleRequests(a))*c.RequestCost + float64(a.Bytes)
	case client.AccessList:
		reqs := ListRequests(a.Pieces, 0)
		return float64(reqs)*c.RequestCost + float64(a.Bytes)
	case client.AccessSieve:
		reqs := SieveRequests(a, 0, write)
		cost := float64(reqs)*c.RequestCost + float64(SieveBytesMoved(a, write))
		if write && c.Ranks > 1 {
			cost *= float64(c.Ranks)
		}
		return cost
	case client.AccessHybrid:
		// Coalescing at the mean gap folds each cluster of nearby
		// regions into one entry: approximate as list I/O over file
		// regions plus the gap bytes as payload.
		reqs := ListRequests(a.FileRegions, 0)
		return float64(reqs)*c.RequestCost + float64(a.SpanBytes)*0.5 + float64(a.Bytes)*0.5
	default:
		return float64(^uint64(0) >> 1)
	}
}

// Recommend picks the cheapest method under the model — the decision
// §3.4 walks through in prose ("The ideal I/O pattern for showcasing
// data sieving I/O is one where there are many noncontiguous file
// regions and the gap between two successive regions is small").
func Recommend(a Access, write bool, c CostModel) client.AccessMethod {
	best, bestCost := client.AccessMultiple, EstimateCost(a, client.AccessMultiple, write, c)
	for _, m := range []client.AccessMethod{client.AccessSieve, client.AccessList} {
		if cost := EstimateCost(a, m, write, c); cost < bestCost {
			best, bestCost = m, cost
		}
	}
	return best
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
