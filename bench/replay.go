package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"pvfs/internal/datatype"
	"pvfs/internal/iod"
	"pvfs/internal/ioseg"
	"pvfs/internal/memio"
	"pvfs/internal/meta"
	"pvfs/internal/mgr"
	"pvfs/internal/patterns"
	"pvfs/internal/pvfsnet"
	"pvfs/internal/store"
	"pvfs/internal/striping"
	"pvfs/internal/wire"
)

// Layer replays call one layer's public functions in isolation on the
// shapes the workload generates, so that "N pieces per op × ns per
// piece" can be set against the in-situ self time of the layer above.
// Every replay runs for about replayBudget (-smoke shrinks it).

var replayBudget = 60 * time.Millisecond

// sink keeps replayed results alive.
var sink any

// perCall returns the mean ns of one fn call, measured over batches so
// that the clock is read once per batch, not once per call.
func perCall(fn func()) float64 {
	fn()
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if el := time.Since(t0); el >= replayBudget/4 || batch >= 1<<24 {
			n := batch
			for total := el; total < replayBudget; total = time.Since(t0) {
				for i := 0; i < batch; i++ {
					fn()
				}
				n += batch
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(n)
		}
		batch *= 4
	}
}

// samples times fn n times (fewer under a shrunk budget) and returns
// each call's µs.
func samples(n int, fn func() error) ([]float64, error) {
	n = max(10, n*int(replayBudget/time.Millisecond)/60)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out, nil
}

func mbPerS(bytes int64, ns float64) float64 { return float64(bytes) / 1e6 / (ns / 1e9) }

type replayFn func(dir string, out map[string]metric) error

// replays lists, per workload, the layers it leans on.
var replays = map[string][]replayFn{
	"cyclic_list":   {replayWire, replayIODList, replayDirBatch},
	"flash_dtype":   {replayPlan, replayDatatype, replayIODDatatype},
	"contig_stream": {replayEcho, replayDirStream},
	"tiled_cache":   {replayCache, replayDirBatch},
	"meta_ops":      {replayEcho, replayMeta},
}

func runReplays(w *workload, tmpRoot string, out map[string]metric) error {
	dir, err := os.MkdirTemp(tmpRoot, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, fn := range replays[w.name] {
		if err := fn(dir, out); err != nil {
			return err
		}
	}
	return nil
}

// replayPlan: the client-side planning and copy primitives on the
// FLASH shape (ioseg, striping, memio).
func replayPlan(_ string, out map[string]metric) error {
	pat, typ := flashShape()
	mem := patterns.MemList(pat, 0)
	arena := make([]byte, pat.ArenaBytes(0))
	fill(arena, 1)
	out["ioseg.split_ns_per_region"] = metric{perCall(func() { sink = mem.SplitCount(wire.MaxRegionsPerRequest) }) / float64(len(mem)), "ns"}

	runs := datatype.Flatten(typ, 0)
	cfg := fileCfg()
	pieces := 0
	clip := func() {
		pieces = 0
		for _, s := range runs {
			for rel := 0; rel < cfg.PCount; rel++ {
				cfg.ClipServer(s, rel, func(striping.Piece) bool { pieces++; return true })
			}
		}
	}
	out["striping.clip_ns_per_piece"] = metric{perCall(clip) / float64(pieces), "ns"}

	var sm *memio.StreamMap
	out["memio.streammap_build_ns_per_piece"] = metric{perCall(func() { sm = memio.NewStreamMap(mem) }) / float64(len(mem)), "ns"}
	const window = 512 << 10 // the datatype path's default window
	total := sm.Total()
	buf := make([]byte, 0, window)
	var err error
	gather := perCall(func() {
		for pos := int64(0); pos < total && err == nil; pos += window {
			buf, err = sm.AppendOut(buf[:0], arena, pos, min(window, total-pos))
		}
	})
	scatter := perCall(func() {
		for pos := int64(0); pos < total && err == nil; pos += window {
			err = sm.CopyIn(arena, pos, buf[:min(window, total-pos)])
		}
	})
	out["memio.gather_gb_s"] = metric{float64(total) / gather, "GB/s"}
	out["memio.scatter_gb_s"] = metric{float64(total) / scatter, "GB/s"}
	return err
}

// replayDatatype: the datatype codec and walker on the FLASH type.
func replayDatatype(_ string, out map[string]metric) error {
	_, typ := flashShape()
	enc, err := datatype.Encode(typ)
	if err != nil {
		return err
	}
	out["datatype.encode_ns"] = metric{perCall(func() { sink, _ = datatype.Encode(typ) }), "ns"}
	out["datatype.decode_ns"] = metric{perCall(func() { sink, _ = datatype.Decode(enc) }), "ns"}
	segs := 0
	walk := perCall(func() {
		segs = 0
		datatype.WalkRepeated(typ, 0, 1, 0, func(ioseg.Segment) bool { segs++; return true })
	})
	out["datatype.walk_ns_per_seg"] = metric{walk / float64(segs), "ns"}
	return nil
}

// cyclicWindow is one list request of the cyclic shape as one daemon
// sees it: the client cuts the op into 64-region batches and each
// batch spreads over the four daemons, so a request carries 16 regions
// of 4 KiB, 8 KiB apart in the stripe file.
func cyclicWindow() (ioseg.List, []byte) {
	regions := make(ioseg.List, wire.MaxRegionsPerRequest/numIOD)
	for i := range regions {
		regions[i] = ioseg.Segment{Offset: int64(i) * 2 * cyclicRegion, Length: cyclicRegion}
	}
	data := make([]byte, len(regions)*cyclicRegion)
	fill(data, 2)
	return regions, data
}

// replayWire: list-request codec and framing on the cyclic window.
func replayWire(_ string, out map[string]metric) error {
	regions, data := cyclicWindow()
	req := wire.ListReq{Regions: regions}
	body, err := req.Marshal()
	if err != nil {
		return err
	}
	n := float64(len(regions))
	out["wire.listreq_marshal_ns_per_region"] = metric{perCall(func() { sink, _ = req.Marshal() }) / n, "ns"}
	var back wire.ListReq
	out["wire.listreq_unmarshal_ns_per_region"] = metric{perCall(func() { err = back.Unmarshal(body) }) / n, "ns"}
	if err != nil {
		return err
	}
	msg := wire.Message{Header: wire.Header{Type: wire.TWriteList, Handle: 1}, Body: append(body, data...)}
	var pipe bytes.Buffer
	out["wire.msg_roundtrip_ns"] = metric{perCall(func() {
		pipe.Reset()
		if err = wire.WriteMessage(&pipe, msg); err == nil {
			var got wire.Message
			got, err = wire.ReadMessage(&pipe)
			got.Release()
		}
	}), "ns"}
	return err
}

// echoServer answers every request with its own body.
func echoServer() (*pvfsnet.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return pvfsnet.NewServer(ln, func(req wire.Message) wire.Message {
		return wire.Message{Body: req.Body}
	}, nil), nil
}

func call(c *pvfsnet.Conn, msg wire.Message) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	resp, err := c.CallContext(ctx, msg)
	resp.Release()
	return err
}

// echoRTT is the median µs of a 64-byte echo on loopback.
func echoRTT() (float64, error) {
	srv, err := echoServer()
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	c, err := pvfsnet.Dial(srv.Addr())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	small := wire.Message{Header: wire.Header{Type: wire.TPing}, Body: make([]byte, 64)}
	us, err := samples(2000, func() error { return call(c, small) })
	return median(us), err
}

// replayEcho: the tagged transport alone, small calls and streaming.
func replayEcho(_ string, out map[string]metric) error {
	rtt, err := echoRTT()
	if err != nil {
		return err
	}
	out["pvfsnet.echo_rtt_us_p50"] = metric{rtt, "us"}

	srv, err := echoServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := pvfsnet.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	const inflight, rounds = 8, 24
	big := wire.Message{Header: wire.Header{Type: wire.TPing}, Body: make([]byte, 1<<20)}
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		var pend [inflight]*pvfsnet.Pending
		for i := range pend {
			if pend[i], err = c.CallAsync(big); err != nil {
				return err
			}
		}
		for _, p := range pend {
			resp, err := p.Wait()
			resp.Release()
			if err != nil {
				return err
			}
		}
	}
	// Each body crosses the loopback twice.
	out["pvfsnet.echo_stream_mb_s"] = metric{mbPerS(2*inflight*rounds<<20, float64(time.Since(t0).Nanoseconds())), "MB/s"}
	return nil
}

// iodOverMem times one pre-encoded request against a daemon over
// store.Mem and subtracts the bare echo round trip: what is left is
// the daemon's own decode, evaluation and Mem copy.
func iodOverMem(msg wire.Message) (float64, error) {
	rtt, err := echoRTT()
	if err != nil {
		return 0, err
	}
	srv, err := iod.Listen("127.0.0.1:0", store.NewMem(), nil)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	c, err := pvfsnet.Dial(srv.Addr())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	us, err := samples(400, func() error { return call(c, msg) })
	return median(us) - rtt, err
}

func replayIODList(_ string, out map[string]metric) error {
	regions, data := cyclicWindow()
	req := wire.ListReq{Regions: regions, Data: data}
	body, err := req.Marshal()
	if err != nil {
		return err
	}
	us, err := iodOverMem(wire.Message{Header: wire.Header{Type: wire.TWriteList, Handle: 1}, Body: body})
	out["iod.list_req_us"] = metric{us, "us"}
	return err
}

func replayIODDatatype(_ string, out map[string]metric) error {
	_, typ := flashShape()
	enc, err := datatype.Encode(typ)
	if err != nil {
		return err
	}
	// Server 0's whole share of one op: a quarter of every dense run.
	req := wire.WriteDatatypeReq{
		ReadDatatypeReq: wire.ReadDatatypeReq{
			Count: 1, Want: flashVars * flashRunBytes / numIOD,
			Striping: fileCfg(), RelIndex: 0, TypeEnc: enc,
		},
		Data: make([]byte, flashVars*flashRunBytes/numIOD),
	}
	us, err := iodOverMem(wire.Message{Header: wire.Header{Type: wire.TWriteDatatype, Handle: 1}, Body: req.Marshal()})
	out["iod.dtype_req_us"] = metric{us, "us"}
	return err
}

// replayDirBatch: one gapped window against store.Dir (and store.Mem
// for the syscall-free floor).
func replayDirBatch(dir string, out map[string]metric) error {
	regions, data := cyclicWindow()
	spans := make([]store.Span, len(regions))
	for i, r := range regions {
		spans[i] = store.Span{Off: r.Offset, Bufs: [][]byte{data[int64(i)*r.Length : int64(i+1)*r.Length]}}
	}
	d, err := store.NewDir(filepath.Join(dir, "batch"))
	if err != nil {
		return err
	}
	defer d.Close()
	out["store.dir.write_batch_us"] = metric{perCall(func() { _, err = d.WriteBatch(1, spans) }) / 1e3, "us"}
	if err != nil {
		return err
	}
	out["store.dir.read_batch_us"] = metric{perCall(func() { _, err = d.ReadBatch(1, spans) }) / 1e3, "us"}
	if err != nil {
		return err
	}
	m := store.NewMem()
	out["store.mem.write_batch_us"] = metric{perCall(func() { _, err = m.WriteBatch(1, spans) }) / 1e3, "us"}
	return err
}

// replayDirStream: one daemon's 4 MiB share of a contig_stream op,
// rewritten in place and rewritten after a truncate.
func replayDirStream(dir string, out map[string]metric) error {
	d, err := store.NewDir(filepath.Join(dir, "stream"))
	if err != nil {
		return err
	}
	defer d.Close()
	buf := make([]byte, contigBytes/numIOD)
	fill(buf, 3)
	over := perCall(func() { _, err = d.WriteAt(1, buf, 0) })
	if err != nil {
		return err
	}
	extend := perCall(func() {
		if err = d.Truncate(1, 0); err == nil {
			_, err = d.WriteAt(1, buf, 0)
		}
	})
	out["store.dir.overwrite_mb_s"] = metric{mbPerS(int64(len(buf)), over), "MB/s"}
	out["store.dir.extend_mb_s"] = metric{mbPerS(int64(len(buf)), extend), "MB/s"}
	return err
}

// replayCache: block hits in memory, and a dirty set flushed to Dir.
func replayCache(dir string, out map[string]metric) error {
	const block = 64 << 10
	blocks := 64
	buf := make([]byte, blocks*block)
	fill(buf, 4)
	hot := store.Cached(store.NewMem(), store.CacheOptions{MaxBytes: int64(2 * len(buf)), FlushInterval: -1})
	defer hot.Close()
	_, err := hot.WriteAt(1, buf, 0)
	if err != nil {
		return err
	}
	out["store.cache.hit_ns_per_block"] = metric{perCall(func() { _, err = hot.ReadAt(1, buf, 0) }) / float64(blocks), "ns"}
	if err != nil {
		return err
	}
	d, err := store.NewDir(filepath.Join(dir, "flush"))
	if err != nil {
		return err
	}
	cold := store.Cached(d, store.CacheOptions{MaxBytes: int64(2 * len(buf)), DirtyHighWater: int64(2 * len(buf)), FlushInterval: -1})
	defer cold.Close()
	flush := perCall(func() {
		if _, err = cold.WriteAt(1, buf, 0); err == nil {
			err = cold.Sync(1)
		}
	})
	out["store.cache.flush_mb_s"] = metric{mbPerS(int64(len(buf)), flush), "MB/s"}
	return err
}

// replayMeta: one durable proposal on a solo master, and one lookup
// answered from shard memory.
func replayMeta(dir string, out map[string]metric) error {
	addr := "127.0.0.1:1" // a solo node never dials its peer list
	iods := []string{"a", "b", "c", "d"}
	node, err := meta.NewNode(meta.NodeOptions{
		ID: 0, Peers: []string{addr}, Dir: filepath.Join(dir, "master"),
		Bootstrap: &wire.ShardMap{Epoch: 1, Masters: []string{addr}, Shards: []string{addr}, IODs: iods},
	})
	if err != nil {
		return err
	}
	defer node.Close()
	seq := uint64(0)
	us, err := samples(300, func() error {
		seq++
		rec := wire.MetaCreateRec{
			Name: fmt.Sprintf("replay-%d", seq),
			Info: wire.FileInfo{Handle: wire.MetaHandle(seq, 0, 1), Striping: fileCfg(), IODAddrs: iods},
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		st, _, _, _, err := node.Propose(ctx, wire.MetaRecord{Seq: seq, Op: wire.TCreate, Body: rec.Marshal()})
		if err == nil && st != wire.StatusOK {
			err = st.Err()
		}
		return err
	})
	if err != nil {
		return err
	}
	out["meta.solo_propose_us_p50"] = metric{median(us), "us"}

	m, err := mgr.Listen("127.0.0.1:0", iods, nil)
	if err != nil {
		return err
	}
	defer m.Close()
	create := wire.CreateReq{Name: "replay", Striping: fileCfg()}
	if resp := m.Shard().Handle(wire.Message{Header: wire.Header{Type: wire.TCreate}, Body: create.Marshal()}); resp.Status != wire.StatusOK {
		return resp.Status.Err()
	}
	open := wire.Message{Header: wire.Header{Type: wire.TOpen}, Body: (&wire.NameReq{Name: "replay"}).Marshal()}
	var st wire.Status
	out["meta.shard_lookup_us"] = metric{perCall(func() { st = m.Shard().Handle(open).Status }) / 1e3, "us"}
	return st.Err()
}
