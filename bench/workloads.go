package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"pvfs/internal/client"
	"pvfs/internal/datatype"
	"pvfs/internal/ioseg"
	"pvfs/internal/patterns"
	"pvfs/internal/striping"
)

// A workload is a closed loop of two phases per round: every rank runs
// writeOps write-side ops, then every rank runs readOps read-side ops
// over what was just written. Shapes and per-round counts are frozen
// (README.md "Calibration"); only the number of rounds follows the
// measuring time.
type workload struct {
	name, why string
	opts      deployOpts
	writeOps  int   // ops per rank per round, write side
	readOps   int   // ops per rank per round, read side
	opBytes   int64 // payload of one op; 0 for metadata ops
	regions   int   // file regions of one op's layout; 0 for metadata ops
	extends   bool  // the write op truncates first, so every write extends the file
	start     func(seed uint64, d *deployment) (runner, error)
}

// runner is a workload bound to one deployment. i is the rank's
// running op index within the phase's sequence (the read side of a
// round replays the indexes its write side used); gen is the round
// number, stamped into what a write op writes so that a read op can
// tell this round's bytes from the last one's. Only op calls into the
// program and only op is timed; prepare and verify are the bench's own
// stamping and comparing.
type runner interface {
	prepare(rank int, ph phase, i int, gen uint64)
	op(ctx context.Context, rank int, ph phase, i int) error
	verify(rank int, ph phase, i int) bool
	close() error
}

var errVerify = errors.New("read-back does not match what was written")

var workloads = []workload{
	{
		name:     "cyclic_list",
		why:      "1-D cyclic 4 KiB regions via list I/O: every region is its own gapped run, so wire, iod and store submission do the work and the client little",
		writeOps: 16, readOps: 16, opBytes: cyclicRegions * cyclicRegion, regions: cyclicRegions,
		start: startCyclic,
	},
	{
		name:     "flash_dtype",
		why:      "FLASH checkpoint via datatype I/O: 196k 8-byte memory pieces onto dense file runs, so client plan/walk, memio and datatype dominate and store idles",
		writeOps: 24, readOps: 24, opBytes: flashVars * flashRunBytes, regions: flashVars,
		start: startFlash,
	},
	{
		name:     "contig_stream",
		why:      "control: truncate-and-rewrite 16 MiB files, then read them; no planning or lists, so transport streaming, extending pwrite and sendfile do the work",
		writeOps: 4, readOps: 8, opBytes: contigBytes, regions: 1, extends: true,
		start: startContig,
	},
	{
		name:     "tiled_cache",
		why:      "tiled visualisation through the write-back cache on a 245 MB set, 4x the cache: overlap hits, forced misses, eviction and gapped flushes; only user of store.Cache",
		opts:     deployOpts{cacheBytes: 16 << 20},
		writeOps: tiledFrames * 6 / ranks, readOps: tiledFrames * 6 / ranks, opBytes: 1024 * 768 * 3, regions: 768,
		start: startTiled,
	},
	{
		name:     "meta_ops",
		why:      "create then open/stat on 3 durable masters and 2 shards: bypasses the data path, so shard, propose round, group commit and WAL fsync do the work",
		opts:     deployOpts{meta: true},
		writeOps: 400, readOps: 8000,
		start: startMeta,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- seed-derived content ---

// mix is the splitmix64 finalizer over a pair.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fill writes a seed-determined byte stream over b (len a multiple of 8).
func fill(b []byte, seed uint64) {
	x := seed | 1
	for i := 0; i+8 <= len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
}

// stampSet marks sparse 8-byte positions of an arena whose value
// depends on (seed, round): a write that silently did nothing, or a
// read that returned the previous round's bytes, leaves a wrong stamp
// even though the bulk of the arena never changes. Keys identify the
// position; where writers overlap in the file (tiles) the key is the
// file offset, so both writers stamp the same value.
type stampSet struct {
	off []int64
	key []uint64
}

func (s *stampSet) add(off int64, key uint64) {
	s.off = append(s.off, off)
	s.key = append(s.key, key)
}

func (s *stampSet) apply(arena []byte, salt uint64) {
	for i, o := range s.off {
		binary.LittleEndian.PutUint64(arena[o:], mix(salt, s.key[i]))
	}
}

// clobber inverts the stamped positions, so a read that delivers
// nothing cannot pass by leaving an earlier read's bytes in place.
func (s *stampSet) clobber(arena []byte) {
	for _, o := range s.off {
		binary.LittleEndian.PutUint64(arena[o:], ^binary.LittleEndian.Uint64(arena[o:]))
	}
}

// probe compares 16 bytes at every stamped position (and the last 8).
func (s *stampSet) probe(got, want []byte) bool {
	for _, o := range s.off {
		end := min(o+16, int64(len(want)))
		if !bytes.Equal(got[o:end], want[o:end]) {
			return false
		}
	}
	n := len(want)
	return bytes.Equal(got[n-8:], want[n-8:])
}

func fileCfg() striping.Config {
	return striping.Config{PCount: numIOD, StripeSize: stripeSize}
}

// --- cyclic_list (paper §4.2) ---

const (
	cyclicRegions = 1024
	cyclicRegion  = 4 << 10
)

type cyclicRun struct {
	salt   uint64
	file   [ranks]*client.File
	layout [ranks]ioseg.List
	stamps [ranks]stampSet
	w, r   [ranks][]byte
}

func startCyclic(seed uint64, d *deployment) (runner, error) {
	c := &cyclicRun{salt: seed}
	pat, err := patterns.NewCyclic1D(ranks, cyclicRegions, ranks*cyclicRegions*cyclicRegion)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("cyclic-%x", seed)
	for r := 0; r < ranks; r++ {
		if r == 0 {
			c.file[r], err = d.fs[r].Create(name, fileCfg())
			if err == nil {
				err = c.file[r].Truncate(pat.Total) // pre-sized: extension is contig_stream's subject
			}
		} else {
			c.file[r], err = d.fs[r].Open(name)
		}
		if err != nil {
			return nil, err
		}
		c.layout[r] = patterns.FileList(pat, r)
		c.w[r] = make([]byte, pat.TotalBytes(r))
		fill(c.w[r], mix(seed, uint64(r)))
		c.r[r] = bytes.Clone(c.w[r])
		for i, s := range c.layout[r] {
			c.stamps[r].add(int64(i)*cyclicRegion, uint64(s.Offset))
		}
	}
	return c, nil
}

func (c *cyclicRun) prepare(rank int, ph phase, i int, gen uint64) {
	if ph == phaseWrite {
		c.stamps[rank].apply(c.w[rank], mix(c.salt, gen))
	} else {
		c.stamps[rank].clobber(c.r[rank])
	}
}

func (c *cyclicRun) op(ctx context.Context, rank int, ph phase, i int) error {
	req := client.Request{Arena: c.r[rank], File: c.layout[rank], Method: client.AccessList}
	if ph == phaseWrite {
		req.Write, req.Arena = true, c.w[rank]
	}
	_, err := c.file[rank].Run(ctx, req)
	return err
}

func (c *cyclicRun) verify(rank int, ph phase, i int) bool {
	return ph == phaseWrite || bytes.Equal(c.r[rank], c.w[rank])
}

func (c *cyclicRun) close() error { return closeFiles(c.file[:]) }

func closeFiles(files []*client.File) error {
	var first error
	for _, f := range files {
		if f == nil {
			continue
		}
		if err := f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- flash_dtype (paper §4.3) ---

const (
	flashBlocks   = 16
	flashVars     = 24
	flashRunBytes = flashBlocks * 4096 // one rank's blocks of one variable: a dense file run
)

type flashRun struct {
	salt   uint64
	file   [ranks]*client.File
	mem    [ranks]ioseg.List
	typ    datatype.Type
	stamps [ranks]stampSet
	w, r   [ranks][]byte
}

// flashShape is the FLASH memory pattern and the file type one rank
// writes it through: variable-major, each rank's blocks of a variable
// adjacent.
func flashShape() (*patterns.Flash, datatype.Type) {
	pat := &patterns.Flash{NumRanks: ranks, Blocks: flashBlocks, Elems: 8, Guard: 1, Vars: flashVars}
	return pat, datatype.Vector(flashVars, flashRunBytes, ranks*flashRunBytes, datatype.Bytes(1))
}

func startFlash(seed uint64, d *deployment) (runner, error) {
	f := &flashRun{salt: seed}
	pat, typ := flashShape()
	f.typ = typ
	name := fmt.Sprintf("flash-%x", seed)
	var err error
	for r := 0; r < ranks; r++ {
		if r == 0 {
			f.file[r], err = d.fs[r].Create(name, fileCfg())
			if err == nil {
				err = f.file[r].Truncate(ranks * flashVars * flashRunBytes)
			}
		} else {
			f.file[r], err = d.fs[r].Open(name)
		}
		if err != nil {
			return nil, err
		}
		f.mem[r] = patterns.MemList(pat, r)
		f.w[r] = make([]byte, pat.ArenaBytes(r))
		fill(f.w[r], mix(seed, uint64(r)))
		f.r[r] = bytes.Clone(f.w[r]) // guard cells are never transferred, so they must already agree
		for j := 0; j < len(f.mem[r]); j += 512 {
			f.stamps[r].add(f.mem[r][j].Offset, uint64(r)<<32|uint64(j))
		}
	}
	return f, nil
}

func (f *flashRun) prepare(rank int, ph phase, i int, gen uint64) {
	if ph == phaseWrite {
		f.stamps[rank].apply(f.w[rank], mix(f.salt, gen))
	} else {
		f.stamps[rank].clobber(f.r[rank])
	}
}

func (f *flashRun) op(ctx context.Context, rank int, ph phase, i int) error {
	req := client.Request{
		Arena: f.r[rank], Mem: f.mem[rank],
		Type: f.typ, Base: int64(rank) * flashRunBytes,
		Method: client.AccessDatatype,
	}
	if ph == phaseWrite {
		req.Write, req.Arena = true, f.w[rank]
	}
	_, err := f.file[rank].Run(ctx, req)
	return err
}

func (f *flashRun) verify(rank int, ph phase, i int) bool {
	return ph == phaseWrite || bytes.Equal(f.r[rank], f.w[rank])
}

func (f *flashRun) close() error { return closeFiles(f.file[:]) }

// --- contig_stream (control) ---

const (
	contigBytes = 16 << 20
	contigRing  = 4
)

type contigRun struct {
	salt   uint64
	fs     [ranks]*client.FS
	names  [ranks][contigRing]string
	stamps [ranks][contigRing]stampSet
	w, r   [ranks][]byte
}

func startContig(seed uint64, d *deployment) (runner, error) {
	c := &contigRun{salt: seed, fs: d.fs}
	for r := 0; r < ranks; r++ {
		c.w[r] = make([]byte, contigBytes)
		fill(c.w[r], mix(seed, uint64(r)))
		c.r[r] = make([]byte, contigBytes)
		for k := 0; k < contigRing; k++ {
			c.names[r][k] = fmt.Sprintf("contig-%x-r%d-%d", seed, r, k)
			f, err := d.fs[r].Create(c.names[r][k], fileCfg())
			if err != nil {
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
			for off := int64(0); off < contigBytes; off += 64 << 10 {
				c.stamps[r][k].add(off, uint64(r)<<48|uint64(k)<<40|uint64(off))
			}
		}
	}
	return c, nil
}

func (c *contigRun) prepare(rank int, ph phase, i int, gen uint64) {
	// One source buffer serves the whole ring, so the read side
	// re-stamps it as the file it is about to read was written.
	k := i % contigRing
	c.stamps[rank][k].apply(c.w[rank], mix(c.salt, gen))
	if ph == phaseRead {
		c.stamps[rank][k].clobber(c.r[rank])
	}
}

func (c *contigRun) op(ctx context.Context, rank int, ph phase, i int) error {
	f, err := c.fs[rank].OpenContext(ctx, c.names[rank][i%contigRing])
	if err != nil {
		return err
	}
	whole := ioseg.List{{Offset: 0, Length: contigBytes}}
	if ph == phaseWrite {
		// A checkpoint writer pays file extension on every op.
		if err := f.Truncate(0); err != nil {
			return err
		}
		if _, err := f.Run(ctx, client.Request{Write: true, Arena: c.w[rank], File: whole}); err != nil {
			return err
		}
		if err := f.SyncContext(ctx); err != nil {
			return err
		}
		return f.CloseContext(ctx)
	}
	if _, err := f.Run(ctx, client.Request{Arena: c.r[rank], File: whole}); err != nil {
		return err
	}
	return f.CloseContext(ctx)
}

func (c *contigRun) verify(rank int, ph phase, i int) bool {
	return ph == phaseWrite || c.stamps[rank][i%contigRing].probe(c.r[rank], c.w[rank])
}

func (c *contigRun) close() error { return nil }

// --- tiled_cache (paper §4.4) ---

const tiledFrames = 24

type tiledRun struct {
	salt   uint64
	order  [tiledFrames][]int // seed-shuffled tile order per frame
	layout []ioseg.List       // per tile
	stamps []stampSet         // per tile, keyed by file offset
	files  [ranks][tiledFrames]*client.File
	base   [ranks][][]byte // each worker's own copy of every tile's pixels
	r      [ranks][]byte
}

func startTiled(seed uint64, d *deployment) (runner, error) {
	pat := patterns.DefaultTiled()
	tiles := pat.Ranks()
	t := &tiledRun{salt: seed, layout: make([]ioseg.List, tiles), stamps: make([]stampSet, tiles)}
	rng := rand.New(rand.NewSource(int64(seed)))
	for f := range t.order {
		t.order[f] = rng.Perm(tiles)
	}
	// The frame image is a function of file position, so tiles agree
	// where they overlap. Stamps sit at the first pixel column of every
	// tile, in every row: each tile row holds its own and, when the
	// next tile starts inside it, that one's too.
	frame := make([]byte, (pat.FileBytes()+7)&^7)
	fill(frame, seed)
	rowBytes := pat.RowBytes()
	var cols []int64
	for tx := 0; tx < pat.TilesX; tx++ {
		cols = append(cols, int64(tx*(pat.W-pat.OverlapX)*pat.Bpp))
	}
	tileBytes := pat.TotalBytes(0)
	pixels := make([][]byte, tiles)
	for tile := 0; tile < tiles; tile++ {
		t.layout[tile] = patterns.FileList(pat, tile)
		pixels[tile] = make([]byte, 0, tileBytes)
		for i, s := range t.layout[tile] {
			pixels[tile] = append(pixels[tile], frame[s.Offset:s.End()]...)
			row := s.Offset / rowBytes
			for _, c := range cols {
				if p := row*rowBytes + c; p >= s.Offset && p+8 <= s.End() {
					t.stamps[tile].add(int64(i)*s.Length+(p-s.Offset), uint64(p))
				}
			}
		}
	}
	for r := 0; r < ranks; r++ {
		t.r[r] = make([]byte, tileBytes)
		for tile := 0; tile < tiles; tile++ {
			t.base[r] = append(t.base[r], bytes.Clone(pixels[tile]))
		}
		for f := 0; f < tiledFrames; f++ {
			name := fmt.Sprintf("tiled-%x-f%02d", seed, f)
			var err error
			if r == 0 {
				t.files[r][f], err = d.fs[r].Create(name, fileCfg())
			} else {
				t.files[r][f], err = d.fs[r].Open(name)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// slot maps a worker's op index to its frame and tile. The workers
// walk one sequence together, so they share frames.
func (t *tiledRun) slot(rank, i int) (frame, tile int) {
	tiles := len(t.layout)
	j := ranks*i + rank
	frame = (j / tiles) % tiledFrames
	return frame, t.order[frame][j%tiles]
}

func (t *tiledRun) prepare(rank int, ph phase, i int, gen uint64) {
	frame, tile := t.slot(rank, i)
	t.stamps[tile].apply(t.base[rank][tile], mix(mix(t.salt, gen), uint64(frame)))
	if ph == phaseRead {
		t.stamps[tile].clobber(t.r[rank])
	}
}

func (t *tiledRun) op(ctx context.Context, rank int, ph phase, i int) error {
	frame, tile := t.slot(rank, i)
	f := t.files[rank][frame]
	req := client.Request{Arena: t.r[rank], File: t.layout[tile], Method: client.AccessList}
	if ph == phaseRead {
		_, err := f.Run(ctx, req)
		return err
	}
	req.Write, req.Arena = true, t.base[rank][tile]
	if _, err := f.Run(ctx, req); err != nil {
		return err
	}
	return f.SyncContext(ctx) // render, then push the tile through the write-back cache
}

func (t *tiledRun) verify(rank int, ph phase, i int) bool {
	_, tile := t.slot(rank, i)
	return ph == phaseWrite || bytes.Equal(t.r[rank], t.base[rank][tile])
}

func (t *tiledRun) close() error {
	var first error
	for r := range t.files {
		if err := closeFiles(t.files[r][:]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- meta_ops ---

type metaRun struct {
	salt    uint64
	fs      [ranks]*client.FS
	handles [ranks][]uint64 // by create index
	got     [ranks]struct {
		handle uint64
		cfg    striping.Config
	}
}

func startMeta(seed uint64, d *deployment) (runner, error) {
	return &metaRun{salt: seed, fs: d.fs}, nil
}

func (m *metaRun) name(rank, i int) string {
	return fmt.Sprintf("m-%x-r%d-%d", m.salt, rank, i)
}

func (m *metaRun) prepare(rank int, ph phase, i int, gen uint64) {}

func (m *metaRun) op(ctx context.Context, rank int, ph phase, i int) error {
	if ph == phaseWrite {
		f, err := m.fs[rank].CreateContext(ctx, m.name(rank, i), fileCfg())
		if err != nil {
			return err
		}
		for len(m.handles[rank]) <= i {
			m.handles[rank] = append(m.handles[rank], 0)
		}
		m.handles[rank][i] = f.Handle()
		return nil
	}
	// Lookups sweep everything this rank has created so far.
	j := i % len(m.handles[rank])
	got := &m.got[rank]
	if i%2 == 0 {
		f, err := m.fs[rank].OpenContext(ctx, m.name(rank, j))
		if err != nil {
			return err
		}
		got.handle, got.cfg = f.Handle(), f.Striping()
		return nil
	}
	info, err := m.fs[rank].StatHandle(ctx, m.handles[rank][j])
	got.handle, got.cfg = info.Handle, info.Striping
	return err
}

func (m *metaRun) verify(rank int, ph phase, i int) bool {
	if ph == phaseWrite {
		return true
	}
	got := m.got[rank]
	return got.handle == m.handles[rank][i%len(m.handles[rank])] &&
		got.cfg.PCount == numIOD && got.cfg.StripeSize == stripeSize
}

func (m *metaRun) close() error { return nil }
