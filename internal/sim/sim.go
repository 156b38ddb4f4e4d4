// Package sim is a small discrete-event simulation engine: a virtual
// clock, an event heap, and FCFS resources. The cluster performance
// model (internal/simcluster) is built on it to regenerate the paper's
// figures at Chiba City scale, where the slowest configurations take
// tens of thousands of seconds of real time (§4.2.1 notes multiple I/O
// writes were run only once because of their execution time).
//
// Times are int64 nanoseconds of virtual time.
package sim

import "fmt"

// Engine is a discrete-event executor. Events scheduled for the same
// instant run in scheduling order (a stable tie-break), which keeps
// simulations deterministic.
type Engine struct {
	pq  eventHeap
	now int64
	seq int64
	ran int64
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() int64 { return e.now }

// Events returns the number of events processed so far.
func (e *Engine) Events() int64 { return e.ran }

// At schedules fn to run at virtual time t. Scheduling in the past is
// a programming error and panics (it would silently reorder causality).
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.pq.push(event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d int64, fn func()) { e.At(e.now+d, fn) }

// Run processes events until the heap is empty and returns the final
// clock value.
func (e *Engine) Run() int64 {
	for len(e.pq) > 0 {
		ev := e.pq.pop()
		e.now = ev.t
		e.ran++
		ev.fn()
	}
	return e.now
}

type event struct {
	t   int64
	seq int64
	fn  func()
}

// eventHeap is a binary min-heap of events ordered by (t, seq). The
// order is total, so the pop sequence does not depend on the heap's
// shape.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = event{} // drop the closure reference
	q = q[:n]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && q.less(l, m) {
			m = l
		}
		if r := l + 1; r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return ev
}

// Resource is a single-server FCFS station: CPU, NIC direction, or
// disk. Acquire returns the completion time of a job of the given
// service duration arriving at `now`, and accumulates busy time for
// utilization reporting.
//
// Callers must invoke Acquire in nondecreasing arrival order for exact
// FCFS semantics; the engine's event ordering provides that when each
// acquisition happens inside an event scheduled at the arrival time.
type Resource struct {
	Name string
	free int64
	busy int64
}

// Acquire reserves the resource for service ns starting no earlier
// than now, returning the completion time.
func (r *Resource) Acquire(now, service int64) int64 {
	if service < 0 {
		panic("sim: negative service time")
	}
	start := now
	if r.free > start {
		start = r.free
	}
	r.free = start + service
	r.busy += service
	return r.free
}

// Start returns when a job arriving at now would begin service,
// without reserving.
func (r *Resource) Start(now int64) int64 {
	if r.free > now {
		return r.free
	}
	return now
}

// Busy returns the accumulated busy time.
func (r *Resource) Busy() int64 { return r.busy }

// Barrier releases a continuation once n parties have arrived, at the
// time of the last arrival.
type Barrier struct {
	eng     *Engine
	n       int
	arrived int
	waiters []func()
	latest  int64
}

// NewBarrier creates a barrier for n parties on the engine.
func NewBarrier(eng *Engine, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{eng: eng, n: n}
}

// Arrive registers a party at virtual time t with continuation fn; all
// continuations run when the n-th party arrives (at the max arrival
// time). The barrier resets for reuse afterwards.
func (b *Barrier) Arrive(t int64, fn func()) {
	if t > b.latest {
		b.latest = t
	}
	b.arrived++
	b.waiters = append(b.waiters, fn)
	if b.arrived == b.n {
		release := b.latest
		waiters := b.waiters
		b.arrived = 0
		b.waiters = nil
		b.latest = 0
		for _, w := range waiters {
			b.eng.At(release, w)
		}
	}
}
