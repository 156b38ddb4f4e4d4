// Package simcluster models the performance of a PVFS deployment on a
// cluster like Argonne's Chiba City (§4.1): client nodes issuing
// synchronous I/O requests over switched 100 Mbit/s full-duplex
// Ethernet to I/O daemons, with per-request software costs and
// per-region storage costs.
//
// A workload is a client.Request's method and tuning over a pattern's
// layout (BuildWorkload). The model issues the request streams the
// client library forms for it (same batching, same striping, same
// trailing-data limits) with the paper's blocking discipline, against
// FCFS resources: per-node CPU and per-direction NIC queues. It
// regenerates the shape of every figure in the paper at full scale;
// calibration constants and their provenance are documented on Params,
// and DESIGN.md §14 lists where the model departs from the client.
package simcluster

import (
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// Params holds the calibrated cost model. All durations are virtual
// nanoseconds; rates are bytes per second.
type Params struct {
	// Servers is the number of I/O daemons (8 in the paper).
	Servers int
	// Striping is the file striping configuration (16 KiB over all
	// servers in the paper).
	Striping striping.Config

	// LinkBytesPerSec is the per-NIC, per-direction bandwidth.
	// 100 Mbit/s full duplex ≈ 12.5 MB/s each way.
	LinkBytesPerSec int64
	// WireLatencyNS is the one-way network latency (switch + stack).
	WireLatencyNS int64

	// ClientReqCPUNS is the client-side cost to build and issue one
	// request (library call, marshal, syscall).
	ClientReqCPUNS int64
	// ClientRespCPUNS is the client-side cost to receive and finish
	// one response.
	ClientRespCPUNS int64
	// ClientCopyNSPerByte models client memory movement (packing,
	// sieve extract/inject) applied to each request's payload.
	ClientCopyNSPerByte int64

	// ServerReadCPUNS / ServerWriteCPUNS are the I/O daemon's
	// fixed per-request costs (parse, dispatch, local file setup).
	ServerReadCPUNS  int64
	ServerWriteCPUNS int64
	// PerRegionReadNS / PerRegionWriteNS are the per-contiguous-region
	// costs at the daemon (one lseek+read/write against the local file
	// system, served from / absorbed by the Linux buffer cache).
	PerRegionReadNS  int64
	PerRegionWriteNS int64
	// ServerBytesNSPerByte is storage/memory movement per payload byte
	// at the daemon.
	ServerBytesNSPerByte int64

	// SmallWritePenaltyNS is a per-request stall applied to write
	// requests whose payload is below one Ethernet MSS. It reproduces
	// the pathological small-write behaviour of 2002-era TCP (Nagle /
	// delayed-ACK interaction on the header+payload write pair) that
	// dominates the paper's multiple-I/O write results (Figs. 10, 12,
	// 15); see EXPERIMENTS.md for the calibration.
	SmallWritePenaltyNS int64

	// MgrCPUNS is the manager's metadata request cost (open/close).
	MgrCPUNS int64
}

// ChibaCity returns the calibration used to regenerate the paper's
// figures. Derived targets:
//
//   - small contiguous read latency ≈ 0.8 ms (Fig. 9: 800k accesses
//     per client ≈ 700 s for multiple I/O);
//   - small write requests ≈ 11 ms (Fig. 10: ≈ 10⁴ s at 800k);
//   - 64-region list requests amortize both (Figs. 9-12 gaps);
//   - 12.5 MB/s per NIC direction bounds data sieving (Fig. 9:
//     sieve ≈ flat vs accesses, doubling with client count).
func ChibaCity() Params {
	return Params{
		Servers: 8,
		Striping: striping.Config{
			PCount:     8,
			StripeSize: striping.DefaultStripeSize,
		},
		LinkBytesPerSec:      12_500_000,
		WireLatencyNS:        150_000,
		ClientReqCPUNS:       150_000,
		ClientRespCPUNS:      100_000,
		ClientCopyNSPerByte:  3,
		ServerReadCPUNS:      200_000,
		ServerWriteCPUNS:     250_000,
		PerRegionReadNS:      10_000,
		PerRegionWriteNS:     15_000,
		ServerBytesNSPerByte: 2,
		SmallWritePenaltyNS:  10_000_000,
		MgrCPUNS:             2_000_000,
	}
}

// Myrinet returns a counterfactual calibration for the fabric the
// paper's cluster had but did not use: §4.1 notes every node carried a
// 64-bit Myrinet card (Revision 3) yet "we used only the fast Ethernet
// for our testing purposes". Myrinet 2000 moves ~160 MB/s per
// direction with ~20 µs latency, and its OS-bypass (GM) transport has
// neither the kernel TCP per-request cost nor the Nagle/delayed-ACK
// small-write stall. Server-side storage costs are unchanged — only
// the network changes. The network ablation (internal/bench) uses this
// to show how much of the multiple-I/O pathology is the network
// stack's rather than the request count's.
func Myrinet() Params {
	p := ChibaCity()
	p.LinkBytesPerSec = 160_000_000
	p.WireLatencyNS = 20_000
	p.ClientReqCPUNS = 40_000
	p.ClientRespCPUNS = 25_000
	p.ServerReadCPUNS = 80_000
	p.ServerWriteCPUNS = 100_000
	p.SmallWritePenaltyNS = 0
	return p
}

// transferNS converts bytes to NIC occupancy.
func (p Params) transferNS(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return bytes * 1_000_000_000 / p.LinkBytesPerSec
}

// Wire sizing. Fixed body bytes for contiguous read/write requests.
const fixedBodyBytes = 16

// reqWireBytes is the on-the-wire size of a request.
func (p Params) reqWireBytes(op Op) int64 {
	n := int64(wire.HeaderSize + fixedBodyBytes)
	n += op.TrailerBytes
	if op.Write {
		n += op.Payload
	}
	return n
}

// respWireBytes is the on-the-wire size of a response.
func (p Params) respWireBytes(op Op) int64 {
	if op.Write {
		return wire.HeaderSize + 8
	}
	return wire.HeaderSize + op.Payload
}

// serverServiceNS is the I/O daemon service time for a request.
func (p Params) serverServiceNS(op Op) int64 {
	if op.Write {
		return p.ServerWriteCPUNS + int64(op.Regions)*p.PerRegionWriteNS +
			op.Payload*p.ServerBytesNSPerByte
	}
	return p.ServerReadCPUNS + int64(op.Regions)*p.PerRegionReadNS +
		op.Payload*p.ServerBytesNSPerByte
}

// stallNS is the small-write penalty applied to sub-MSS write payloads.
func (p Params) stallNS(op Op) int64 {
	if op.Write && op.Server >= 0 && op.Payload < int64(wire.EthernetMSS) {
		return p.SmallWritePenaltyNS
	}
	return 0
}
