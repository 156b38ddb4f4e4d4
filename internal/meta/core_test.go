package meta

// The consensus core driven with no shell: three cores exchange
// messages through an in-memory queue on a virtual clock, with every
// record "written" the moment it is asked for. No sockets, goroutines
// or sleeps, so one seed gives one trace.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"pvfs/internal/wire"
)

// TestCoreIsPure pins the split: the core file imports nothing that
// does I/O or synchronizes, reads no clock and starts no goroutine.
func TestCoreIsPure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "core.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		for _, banned := range []string{"net", "os", "sync", "pvfs/internal/pvfsnet"} {
			if path == banned || strings.HasPrefix(path, banned+"/") {
				t.Errorf("core.go imports %s", path)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" {
				switch n.Sel.Name {
				case "Now", "Sleep", "After", "Since", "Until", "Tick", "NewTimer", "NewTicker", "AfterFunc":
					t.Errorf("core.go calls time.%s", n.Sel.Name)
				}
			}
		case *ast.GoStmt:
			t.Error("core.go starts a goroutine")
		}
		return true
	})
}

// simMsg is one message in flight between cores.
type simMsg struct {
	from, to int
	vote     *wire.MetaVoteReq
	voteResp *wire.MetaVoteResp
	app      *wire.MetaAppendReq
	appResp  *wire.MetaAppendResp
	term     uint64 // the term of the request a response answers
	pre      bool   // a vote response answers a pre-vote
}

// sim is three cores, a FIFO message queue and a virtual clock.
type sim struct {
	t        *testing.T
	now      time.Time
	cores    []*core
	queue    []simMsg
	inflight [][]bool            // [leader][follower]: an append awaits its answer
	lost     [][2]int            // (leader, follower) whose answer was lost
	drop     func(m simMsg) bool // messages lost in transit
	verdicts map[*proposal]applyResult
	leaders  map[uint64]int    // term → the one leader it had
	settled  map[uint64]string // index → the committed entry, once seen
	trace    []string
}

func newSim(t *testing.T, seed int64) *sim {
	peers := []string{"c0", "c1", "c2"}
	s := &sim{
		t: t, now: time.Unix(1, 0),
		drop:     func(simMsg) bool { return false },
		verdicts: make(map[*proposal]applyResult),
		leaders:  make(map[uint64]int),
		settled:  make(map[uint64]string),
	}
	boot := singleShardBoot(peers)
	for i := range peers {
		c := newCore(i, peers, Timing{}.withDefaults(), rand.New(rand.NewSource(seed+int64(i))))
		s.cores = append(s.cores, c)
		s.inflight = append(s.inflight, make([]bool, len(peers)))
		s.carry(i, c.start(s.now, boot))
	}
	return s
}

func (s *sim) logf(format string, args ...any) {
	s.trace = append(s.trace, fmt.Sprintf("%d ", s.now.Sub(time.Unix(1, 0)).Milliseconds())+fmt.Sprintf(format, args...))
}

// carry does what a shell does with core i's output: the records are
// written at once and reported, the verdicts kept, a vote request sent
// to every peer the core names.
func (s *sim) carry(i int, o output) {
	s.keep(o)
	if len(o.persist) > 0 {
		s.keep(s.cores[i].persisted(o.persist, len(o.persist), nil))
	}
	for _, n := range o.notes {
		s.logf("%s", n)
	}
	for _, p := range o.voteTo {
		s.send(simMsg{from: i, to: p, vote: o.vote})
	}
}

func (s *sim) keep(o output) {
	for _, v := range o.verdicts {
		s.verdicts[v.p] = v.res
	}
}

// send queues m unless it is lost; a lost append or append answer
// frees its leader to retry next step, as after a call timeout.
func (s *sim) send(m simMsg) {
	switch {
	case !s.drop(m):
		s.queue = append(s.queue, m)
	case m.app != nil:
		s.lost = append(s.lost, [2]int{m.from, m.to})
	case m.appResp != nil:
		s.lost = append(s.lost, [2]int{m.to, m.from})
	}
}

// step advances the clock 5 ms: every core ticks, every leader ships
// what each idle follower is owed, and the queue drains.
func (s *sim) step() {
	s.now = s.now.Add(5 * time.Millisecond)
	for _, l := range s.lost {
		s.inflight[l[0]][l[1]] = false
	}
	s.lost = nil
	for i, c := range s.cores {
		s.carry(i, c.tick(s.now))
	}
	for n := 0; len(s.queue) > 0 || s.ship(); n++ {
		if n > 10000 {
			s.t.Fatalf("the queue never drains; trace tail:\n%s", strings.Join(s.trace[max(0, len(s.trace)-30):], "\n"))
		}
		m := s.queue[0]
		s.queue = s.queue[1:]
		s.deliver(m)
	}
	s.check()
}

// ship builds the next append for every idle follower of a leader.
func (s *sim) ship() bool {
	sent := false
	for i, c := range s.cores {
		for p := range s.cores {
			if p == i || s.inflight[i][p] {
				continue
			}
			req, refs, ok := c.appendFor(p)
			if !ok {
				continue
			}
			if refs != nil {
				s.t.Fatal("no compaction in this script, so no snapshot install")
			}
			s.inflight[i][p] = true
			s.send(simMsg{from: i, to: p, app: &req})
			sent = true
		}
	}
	return sent && len(s.queue) > 0
}

func (s *sim) deliver(m simMsg) {
	c := s.cores[m.to]
	switch {
	case m.vote != nil:
		resp, o := c.vote(s.now, m.vote)
		s.carry(m.to, o)
		s.logf("vote %d→%d term %d pre %v granted %v", m.to, m.from, m.vote.Term, m.vote.Pre, resp.Granted)
		s.send(simMsg{from: m.to, to: m.from, voteResp: &resp, term: m.vote.Term, pre: m.vote.Pre})
	case m.voteResp != nil:
		s.carry(m.to, c.voteResp(s.now, m.term, m.pre, m.from, *m.voteResp))
	case m.app != nil:
		resp, o := c.append(s.now, m.app, nil)
		s.carry(m.to, o)
		s.logf("append %d→%d term %d prev %d n %d: ok %v match %d", m.from, m.to, m.app.Term, m.app.PrevIndex, len(m.app.Entries), resp.Success, resp.Match)
		s.send(simMsg{from: m.to, to: m.from, appResp: &resp, term: m.app.Term})
	case m.appResp != nil:
		s.inflight[m.to][m.from] = false
		_, o := c.appendResp(s.now, m.from, m.term, 0, *m.appResp)
		s.carry(m.to, o)
	}
}

// check asserts one leader per term and that no committed entry ever
// changes, on any core.
func (s *sim) check() {
	for i, c := range s.cores {
		if c.role == leader {
			if l, ok := s.leaders[c.term]; ok && l != i {
				s.t.Fatalf("term %d has two leaders, %d and %d", c.term, l, i)
			}
			s.leaders[c.term] = i
		}
		for idx := c.snapIndex + 1; idx <= c.commit; idx++ {
			e := c.log[idx-c.snapIndex-1]
			got := fmt.Sprintf("%d/%d/%v/%x", e.Index, e.Term, e.Rec.Op, e.Rec.Body)
			if want, ok := s.settled[idx]; !ok {
				s.settled[idx] = got
				s.logf("settled %d on core %d: term %d op %v", idx, i, e.Term, e.Rec.Op)
			} else if got != want {
				s.t.Fatalf("core %d changed committed entry %d: %s, was %s", i, idx, got, want)
			}
		}
	}
}

// leader runs steps until a leader other than not emerges.
func (s *sim) leader(not int) int {
	for range 400 {
		s.step()
		for i, c := range s.cores {
			if i != not && c.role == leader {
				return i
			}
		}
	}
	s.t.Fatal("no leader elected")
	return -1
}

// commit proposes rec at core l and runs steps until its verdict.
func (s *sim) commit(l int, rec wire.MetaRecord) applyResult {
	p := &proposal{rec: rec}
	if _, err := s.cores[l].enqueue(p); err != nil {
		s.t.Fatalf("enqueue at core %d: %v", l, err)
	}
	s.carry(l, s.cores[l].flush())
	for range 200 {
		if res, ok := s.verdicts[p]; ok {
			return res
		}
		s.step()
	}
	s.t.Fatalf("proposal at core %d never committed", l)
	return applyResult{}
}

// runScript boots three cores, elects a leader, commits a create, cuts
// the leader off until another is elected, and commits a create in the
// new term. It returns the trace.
func runScript(t *testing.T, seed int64) []string {
	s := newSim(t, seed)
	first := s.leader(-1)
	firstTerm := s.cores[first].term
	if res := s.commit(first, createRec("a", 0, 0, 1, testIODs())); res.err != nil || res.status != wire.StatusOK {
		t.Fatalf("first create: %+v", res)
	}
	s.drop = func(m simMsg) bool { return m.from == first }
	second := s.leader(first)
	if term := s.cores[second].term; term <= firstTerm {
		t.Fatalf("new leader %d at term %d, old leader %d led term %d", second, term, first, firstTerm)
	}
	res := s.commit(second, createRec("b", 1, 0, 1, testIODs()))
	if res.err != nil || res.status != wire.StatusOK {
		t.Fatalf("create in the new term: %+v", res)
	}
	if len(s.leaders) < 2 {
		t.Fatalf("leaders by term: %v", s.leaders)
	}
	// Both creates are committed state on the new leader.
	if ns := s.cores[second].states[0]; ns.files["a"] == nil || ns.files["b"] == nil {
		t.Fatalf("new leader's namespace lacks a create: %v", ns.files)
	}
	return s.trace
}

func TestCoresElectCommitAndFailOver(t *testing.T) {
	const seed = 17
	trace := runScript(t, seed)
	again := runScript(t, seed)
	if strings.Join(trace, "\n") != strings.Join(again, "\n") {
		for i := range min(len(trace), len(again)) {
			if trace[i] != again[i] {
				t.Fatalf("seed %d: traces diverge at line %d:\n%s\n%s", seed, i, trace[i], again[i])
			}
		}
		t.Fatalf("seed %d: traces differ in length: %d vs %d lines", seed, len(trace), len(again))
	}
	t.Logf("%d trace lines", len(trace))
}

// TestCutOffFollowerRejoins cuts a follower off for ten election
// timeouts, then lets it back. While cut off its pre-votes reach no
// one; once back they are refused by the leader and by the follower
// that hears from it. Its term never moves, and the leader keeps
// leading the same term and catches it up.
func TestCutOffFollowerRejoins(t *testing.T) {
	s := newSim(t, 5)
	l := s.leader(-1)
	s.step()
	term := s.cores[l].term
	f := (l + 1) % 3
	check := func(when string) {
		t.Helper()
		if got := s.cores[f].term; got != term {
			t.Fatalf("%s: follower %d moved from term %d to %d", when, f, term, got)
		}
		if c := s.cores[l]; c.role != leader || c.term != term {
			t.Fatalf("%s: leader %d at role %v, term %d; it led term %d", when, l, c.role, c.term, term)
		}
	}
	s.drop = func(m simMsg) bool { return m.from == f || m.to == f }
	for end := s.now.Add(10 * s.cores[f].timing.ElectionHi); s.now.Before(end); {
		s.step()
		check("cut off")
	}
	if res := s.commit(l, createRec("a", 0, 0, 1, testIODs())); res.err != nil || res.status != wire.StatusOK {
		t.Fatalf("create without the follower: %+v", res)
	}
	s.drop = func(simMsg) bool { return false }
	for end := s.now.Add(2 * s.cores[f].timing.ElectionHi); s.now.Before(end); {
		s.step()
		check("rejoined")
	}
	if c := s.cores[f]; c.role != follower || c.leaderID != l || c.commit != s.cores[l].commit {
		t.Fatalf("rejoined follower: role %v, leader %d, commit %d; want a follower of %d at commit %d",
			c.role, c.leaderID, c.commit, l, s.cores[l].commit)
	}
}

// TestPreVote pins the pre-vote rules on both sides. A voter grants a
// pre-vote only once ElectionLo has passed since it accepted a
// leader's append, and only to a candidate that passes the election
// restriction; granted or not, its term, vote and deadline stay put and
// nothing is persisted. A leader refuses every pre-vote. A candidate's
// pre-majority starts the real candidacy, and a pre-grant that arrives
// after that is not counted as a vote.
func TestPreVote(t *testing.T) {
	s := newSim(t, 3)
	l := s.leader(-1)
	s.step()
	v := s.cores[(l+1)%3]
	last := v.lastIndex()
	req := wire.MetaVoteReq{Term: v.term + 1, Candidate: uint32((l + 2) % 3), LastIndex: last, LastTerm: v.termAt(last), Pre: true}
	stale := req
	stale.LastTerm = 0
	lo := v.timing.ElectionLo
	for _, tc := range []struct {
		name  string
		c     *core
		at    time.Time
		req   wire.MetaVoteReq
		grant bool
	}{
		{"voter within ElectionLo of an append", v, v.heard.Add(lo - time.Nanosecond), req, false},
		{"voter ElectionLo after an append", v, v.heard.Add(lo), req, true},
		{"voter, candidate with a staler log", v, v.heard.Add(lo), stale, false},
		{"leader", s.cores[l], s.now.Add(time.Hour), req, false},
	} {
		c := tc.c
		term, votedFor, deadline, role := c.term, c.votedFor, c.deadline, c.role
		resp, o := c.vote(tc.at, &tc.req)
		if resp.Granted != tc.grant || resp.Term != term {
			t.Errorf("%s: %+v, want granted %v at term %d", tc.name, resp, tc.grant, term)
		}
		if len(o.persist) != 0 || c.term != term || c.votedFor != votedFor || !c.deadline.Equal(deadline) || c.role != role {
			t.Errorf("%s: the pre-vote persisted %d records; term %d→%d, vote %d→%d, deadline moved %v, role %v→%v",
				tc.name, len(o.persist), term, c.term, votedFor, c.votedFor, c.deadline.Sub(deadline), role, c.role)
		}
	}

	peers := []string{"c0", "c1", "c2"}
	c := newCore(1, peers, Timing{}.withDefaults(), rand.New(rand.NewSource(1)))
	c.start(time.Unix(1, 0), singleShardBoot(peers))
	now := c.deadline.Add(time.Millisecond)
	o := c.tick(now)
	if o.vote == nil || !o.vote.Pre || o.vote.Term != 1 || len(o.persist) != 0 || c.term != 0 || c.votedFor != -1 {
		t.Fatalf("timed-out follower: vote %+v, %d records, term %d, vote %d; want a pre-vote for term 1 that changes nothing",
			o.vote, len(o.persist), c.term, c.votedFor)
	}
	o = c.voteResp(now, 1, true, 0, wire.MetaVoteResp{Term: 0, Granted: true})
	if o.vote == nil || o.vote.Pre || c.term != 1 || c.votedFor != 1 || len(o.persist) != 1 {
		t.Fatalf("pre-majority: vote %+v, %d records, term %d, vote %d; want a durable candidacy for term 1",
			o.vote, len(o.persist), c.term, c.votedFor)
	}
	c.persisted(o.persist, len(o.persist), nil)
	c.voteResp(now, 1, true, 2, wire.MetaVoteResp{Term: 0, Granted: true})
	if c.role != candidate {
		t.Fatalf("a pre-grant for term 1 that arrived in the real campaign was counted: role %v", c.role)
	}
	c.voteResp(now, 1, false, 2, wire.MetaVoteResp{Term: 1, Granted: true})
	if c.role != leader {
		t.Fatalf("a real grant for term 1 left role %v, want leader", c.role)
	}
}
