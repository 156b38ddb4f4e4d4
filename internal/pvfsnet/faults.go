package pvfsnet

import (
	"sync"
	"time"
)

// Faults injects failures into a Server for recovery testing: requests
// can be failed with an I/O status, connections can be dropped
// mid-request (the client sees a broken connection, as when a daemon
// is killed), and service can be delayed. A zero Faults injects
// nothing. All methods are safe for concurrent use.
type Faults struct {
	mu       sync.Mutex
	failNext int
	dropNext int
	unavNext int
	delay    time.Duration

	failed  int
	dropped int
}

// FailRequests arms the injector to answer the next n requests with
// StatusIOError instead of invoking the handler (the daemon is alive but
// its disk errors).
func (f *Faults) FailRequests(n int) {
	f.mu.Lock()
	f.failNext = n
	f.mu.Unlock()
}

// DropConnections arms the injector to close the connection instead of
// answering, for the next n requests (the daemon dies mid-call).
func (f *Faults) DropConnections(n int) {
	f.mu.Lock()
	f.dropNext = n
	f.mu.Unlock()
}

// UnavailableRequests arms the injector to answer the next n requests
// with StatusUnavailable, the retry-safe status a draining daemon
// reports (wire.Status.Retryable): the daemon is alive but refuses
// service, and a client with a retry policy re-issues after backoff.
func (f *Faults) UnavailableRequests(n int) {
	f.mu.Lock()
	f.unavNext = n
	f.mu.Unlock()
}

// SetDelay makes every request sleep d before being handled.
func (f *Faults) SetDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// Counts reports how many requests were failed and dropped so far.
func (f *Faults) Counts() (failed, dropped int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed, f.dropped
}

type faultAction int

const (
	faultNone faultAction = iota
	faultFail
	faultDrop
	faultUnavailable
)

// next consumes one injection decision.
func (f *Faults) next() (faultAction, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.delay
	if f.dropNext > 0 {
		f.dropNext--
		f.dropped++
		return faultDrop, d
	}
	if f.failNext > 0 {
		f.failNext--
		f.failed++
		return faultFail, d
	}
	if f.unavNext > 0 {
		f.unavNext--
		f.failed++
		return faultUnavailable, d
	}
	return faultNone, d
}

// SetFaults installs a fault injector on the server; nil removes it.
func (s *Server) SetFaults(f *Faults) { s.faults.Store(f) }
