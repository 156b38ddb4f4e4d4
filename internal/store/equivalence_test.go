package store

// Backend equivalence harness: every Store implementation — Mem, Dir,
// and Cached over either — must produce identical file images for the
// same operation script. Concurrency is exercised the way the daemon
// produces it (many tagged requests in flight at once) while keeping
// the outcome deterministic: each worker goroutine owns its handles,
// so per-handle operation order is fixed even though workers from the
// same script interleave freely across handles.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pvfs/internal/ioseg"
)

// equivOp is one step of a worker's deterministic script.
type equivOp struct {
	kind int // 0 write, 1 read, 2 truncate, 3 sync, 4 vector write, 5 vector read, 6 batch write, 7 batch read
	off  int64
	size int64
	seed int64
	segs ioseg.List // kinds 4/5: packed vector; kinds 6/7: disjoint gapped spans
}

// makeSegs builds a vector op's segment list: runs of adjacent,
// gapped, and randomly placed (possibly unsorted or overlapping)
// segments, with occasional zero-length entries — the full envelope
// ApplyPacked must keep byte-identical to per-segment application.
func makeSegs(r *rand.Rand) ioseg.List {
	n := 1 + r.Intn(6)
	segs := make(ioseg.List, 0, n)
	pos := int64(r.Intn(48 << 10))
	for j := 0; j < n; j++ {
		if r.Intn(8) == 0 {
			segs = append(segs, ioseg.Segment{Offset: pos})
			continue
		}
		l := 1 + int64(r.Intn(2048))
		segs = append(segs, ioseg.Segment{Offset: pos, Length: l})
		switch r.Intn(3) {
		case 0: // exactly adjacent: the coalescing case
			pos += l
		case 1: // gap
			pos += l + 1 + int64(r.Intn(4096))
		default: // random jump: may produce unsorted/overlapping lists
			pos = int64(r.Intn(64 << 10))
		}
	}
	return segs
}

// makeBatchSegs builds a batch op's span list: several runs kept
// sorted and DISJOINT by construction (gaps between runs), the shape
// the batch contract requires.
func makeBatchSegs(r *rand.Rand) ioseg.List {
	n := 2 + r.Intn(6)
	segs := make(ioseg.List, 0, n)
	pos := int64(r.Intn(16 << 10))
	for j := 0; j < n; j++ {
		l := 1 + int64(r.Intn(2048))
		segs = append(segs, ioseg.Segment{Offset: pos, Length: l})
		pos += l + 1 + int64(r.Intn(4096))
	}
	return segs
}

// makeScript builds one worker's operation list from a seed.
func makeScript(seed int64, ops int) []equivOp {
	r := rand.New(rand.NewSource(seed))
	out := make([]equivOp, ops)
	for i := range out {
		k := r.Intn(14)
		op := equivOp{seed: r.Int63()}
		switch {
		case k < 4: // write
			op.kind = 0
			op.off = int64(r.Intn(64 << 10))
			op.size = 1 + int64(r.Intn(4096))
		case k < 7: // read
			op.kind = 1
			op.off = int64(r.Intn(64 << 10))
			op.size = 1 + int64(r.Intn(4096))
		case k < 8: // truncate
			op.kind = 2
			op.size = int64(r.Intn(64 << 10))
		case k < 9: // sync
			op.kind = 3
		case k < 10: // vector write
			op.kind = 4
			op.segs = makeSegs(r)
		case k < 12: // vector read
			op.kind = 5
			op.segs = makeSegs(r)
		case k < 13: // batch write
			op.kind = 6
			op.segs = makeBatchSegs(r)
		default: // batch read
			op.kind = 7
			op.segs = makeBatchSegs(r)
		}
		out[i] = op
	}
	return out
}

// batchSpansOf turns a batch op's disjoint segments into Spans over p,
// splitting each run into one to three buffers so the scatter-gather
// shape varies deterministically with the op seed.
func batchSpansOf(op equivOp, p []byte) []Span {
	r := rand.New(rand.NewSource(op.seed ^ 0x5a5a))
	spans := make([]Span, len(op.segs))
	var pos int64
	for i, sg := range op.segs {
		run := p[pos : pos+sg.Length]
		var bufs [][]byte
		for len(run) > 0 {
			cut := 1 + r.Intn(len(run))
			bufs = append(bufs, run[:cut])
			run = run[cut:]
			if len(bufs) == 2 && len(run) > 0 {
				bufs = append(bufs, run)
				break
			}
		}
		spans[i] = Span{Off: sg.Offset, Bufs: bufs}
		pos += sg.Length
	}
	return spans
}

// fillPattern fills p deterministically from a seed.
func fillPattern(p []byte, seed int64) {
	r := rand.New(rand.NewSource(seed))
	r.Read(p)
}

// runScript applies one worker's script to its own handle on s,
// verifying every read against a local shadow copy of the file.
func runScript(s Store, handle uint64, script []equivOp) error {
	shadow := make([]byte, 0, 128<<10)
	for i, op := range script {
		switch op.kind {
		case 0:
			p := make([]byte, op.size)
			fillPattern(p, op.seed)
			if _, err := s.WriteAt(handle, p, op.off); err != nil {
				return fmt.Errorf("op %d write: %w", i, err)
			}
			if need := op.off + op.size; need > int64(len(shadow)) {
				shadow = append(shadow, make([]byte, need-int64(len(shadow)))...)
			}
			copy(shadow[op.off:], p)
		case 1:
			p := make([]byte, op.size)
			if _, err := s.ReadAt(handle, p, op.off); err != nil {
				return fmt.Errorf("op %d read: %w", i, err)
			}
			want := make([]byte, op.size)
			if op.off < int64(len(shadow)) {
				copy(want, shadow[op.off:])
			}
			if !bytes.Equal(p, want) {
				return fmt.Errorf("op %d read [%d,+%d) diverges from shadow", i, op.off, op.size)
			}
		case 2:
			if err := s.Truncate(handle, op.size); err != nil {
				return fmt.Errorf("op %d truncate: %w", i, err)
			}
			if op.size <= int64(len(shadow)) {
				shadow = shadow[:op.size]
			} else {
				shadow = append(shadow, make([]byte, op.size-int64(len(shadow)))...)
			}
		case 3:
			if sy, ok := s.(Syncer); ok {
				if err := sy.Sync(handle); err != nil {
					return fmt.Errorf("op %d sync: %w", i, err)
				}
			}
		case 4:
			total := op.segs.TotalLength()
			p := make([]byte, total)
			fillPattern(p, op.seed)
			if _, err := ApplyPacked(s, handle, op.segs, p, true); err != nil {
				return fmt.Errorf("op %d vwrite: %w", i, err)
			}
			// Shadow update in list order: later overlapping wins, the
			// contract ApplyPacked must preserve.
			var pos int64
			for _, sg := range op.segs {
				if need := sg.End(); need > int64(len(shadow)) {
					shadow = append(shadow, make([]byte, need-int64(len(shadow)))...)
				}
				copy(shadow[sg.Offset:sg.End()], p[pos:pos+sg.Length])
				pos += sg.Length
			}
		case 5:
			total := op.segs.TotalLength()
			p := make([]byte, total)
			if _, err := ApplyPacked(s, handle, op.segs, p, false); err != nil {
				return fmt.Errorf("op %d vread: %w", i, err)
			}
			want := make([]byte, total)
			var pos int64
			for _, sg := range op.segs {
				if sg.Offset < int64(len(shadow)) {
					copy(want[pos:pos+sg.Length], shadow[sg.Offset:])
				}
				pos += sg.Length
			}
			if !bytes.Equal(p, want) {
				return fmt.Errorf("op %d vector read %v diverges from shadow", i, op.segs)
			}
		case 6:
			total := op.segs.TotalLength()
			p := make([]byte, total)
			fillPattern(p, op.seed)
			if _, err := s.WriteBatch(handle, batchSpansOf(op, p)); err != nil {
				return fmt.Errorf("op %d bwrite: %w", i, err)
			}
			var pos int64
			for _, sg := range op.segs {
				if need := sg.End(); need > int64(len(shadow)) {
					shadow = append(shadow, make([]byte, need-int64(len(shadow)))...)
				}
				copy(shadow[sg.Offset:sg.End()], p[pos:pos+sg.Length])
				pos += sg.Length
			}
		case 7:
			total := op.segs.TotalLength()
			p := make([]byte, total)
			if _, err := s.ReadBatch(handle, batchSpansOf(op, p)); err != nil {
				return fmt.Errorf("op %d bread: %w", i, err)
			}
			want := make([]byte, total)
			var pos int64
			for _, sg := range op.segs {
				if sg.Offset < int64(len(shadow)) {
					copy(want[pos:pos+sg.Length], shadow[sg.Offset:])
				}
				pos += sg.Length
			}
			if !bytes.Equal(p, want) {
				return fmt.Errorf("op %d batch read %v diverges from shadow", i, op.segs)
			}
		}
	}
	return nil
}

// image reads a handle's full contents.
func image(t *testing.T, s Store, handle uint64) []byte {
	t.Helper()
	sz, err := s.Size(handle)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, sz)
	if sz > 0 {
		if _, err := s.ReadAt(handle, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestCachedStoreEquivalence runs the same randomized concurrent
// workload over every backend and cache layering and demands
// byte-identical final images. The cached variants run with a tiny
// capacity so LRU eviction churns constantly, and a sync-then-reopen
// pass checks the crash consistency contract on the Dir-backed cache.
func TestCachedStoreEquivalence(t *testing.T) {
	const workers = 4
	const ops = 300
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	scripts := make([][]equivOp, workers)
	for w := range scripts {
		scripts[w] = makeScript(seed+int64(w), ops)
	}

	dirRoot := t.TempDir()
	cachedDirRoot := t.TempDir()
	dir, err := NewDir(dirRoot)
	if err != nil {
		t.Fatal(err)
	}
	cachedDirInner, err := NewDir(cachedDirRoot)
	if err != nil {
		t.Fatal(err)
	}
	// 6 blocks of 4 KiB: far smaller than the working set, so every
	// script evicts (and write-back-flushes) constantly.
	tiny := CacheOptions{BlockSize: 4096, MaxBytes: 6 * 4096, DirtyHighWater: 2 * 4096,
		FlushInterval: time.Millisecond, Readahead: 4}
	backends := map[string]Store{
		"mem":        NewMem(),
		"dir":        dir,
		"cached-mem": Cached(NewMem(), tiny),
		"cached-dir": Cached(cachedDirInner, tiny),
	}

	for name, s := range backends {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs <- runScript(s, uint64(w+1), scripts[w])
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if sy, ok := s.(Syncer); ok {
			if err := sy.SyncAll(); err != nil {
				t.Fatalf("%s: syncall: %v", name, err)
			}
		}
	}

	// All backends must agree on every final image.
	ref := backends["mem"]
	for w := 0; w < workers; w++ {
		want := image(t, ref, uint64(w+1))
		for name, s := range backends {
			if name == "mem" {
				continue
			}
			got := image(t, s, uint64(w+1))
			if !bytes.Equal(got, want) {
				t.Fatalf("handle %d: %s image (len %d) diverges from mem (len %d)",
					w+1, name, len(got), len(want))
			}
		}
	}

	// Crash check: after SyncAll, the Dir behind the cache must hold
	// the full images even if the cache is abandoned un-closed.
	backends["cached-dir"].(*Cache).Abandon()
	cachedDirInner.Close()
	re, err := NewDir(cachedDirRoot)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for w := 0; w < workers; w++ {
		want := image(t, ref, uint64(w+1))
		got := image(t, re, uint64(w+1))
		if !bytes.Equal(got, want) {
			t.Fatalf("handle %d: post-crash dir image diverges (synced data lost)", w+1)
		}
	}

	backends["cached-mem"].(*Cache).Close()
	backends["mem"].Close()
	dir.Close()
}
