package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"metacomm/internal/ber"
	"metacomm/internal/ldap"
)

// The load generator. It drives the LTAP listener over C raw connections and
// multiplexes requests by message id. Latency is timed from the instant a
// request was DUE, not from the instant it was written: a stalled server
// delays the requests behind the stall and they must report it (no
// coordinated omission). How late the generator itself wrote each request is
// recorded and reported as gen.late_p99_us.
//
// The generator shares the process and the box with the system under test,
// so it is built to stay out of the way:
//   - an open-loop stage is generated and BER-encoded before it starts; the
//     timed path allocates nothing and so never owes the garbage collector
//     assist work;
//   - one sender, locked to its OS thread, sleeps with nanosleep(2) (Go's
//     timers round an idle process's sleeps up to a millisecond) and writes
//     each request to its connection when it is due;
//   - a reader goroutine per connection decodes responses with the
//     zero-copy ber.Reader and looks only at the message id, the response
//     tag, the result code and a search entry's DN.
//
// gen.cpu_share is the sender thread's run time (the kernel's per-thread
// accounting) plus the time the readers spent handling decoded responses,
// over the process's CPU time.

// sample is one completed (or failed) operation.
type sample struct {
	kind  opKind
	due   int64 // ns since the generator's epoch
	lat   int64 // ns from due to the final response
	late  int64 // ns the request was written after it was due
	depth int32 // requests outstanding on the connection when it was written
	ok    bool
}

// event is one generated request: what to send, where, and when.
type event struct {
	due    int64 // ns since the generator's epoch
	conn   int
	op     op
	value  string
	wantDN []byte // searches: the one entry that must come back
	wire   []byte
	id     int32
}

type pending struct {
	ev      *event
	late    int64
	depth   int32
	entries int
	bad     string
}

// hooks let a workload follow an update past its ack (replication lag).
type hooks struct {
	sent  func(value string, due int64)
	acked func(value string, at int64)
}

type loadConn struct {
	gen    *generator
	idx    int
	nc     net.Conn
	rd     *ber.Reader
	st     *stream
	tr     *tracker
	closed atomic.Bool   // closed-loop stage: the reader signals every completion
	done   chan struct{} // capacity 1
	busyNs atomic.Int64  // time the reader spent handling decoded responses

	mu      sync.Mutex
	queue   []pending
	head    int
	nextID  int32
	samples []sample
	fails   []string
	dead    error

	readerDone chan struct{}
}

func dialLoad(g *generator, addr string, st *stream, conn int) (*loadConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &loadConn{gen: g, idx: conn, nc: nc, rd: ber.NewReader(nc), st: st, tr: newTracker(conn),
		done: make(chan struct{}, 1), nextID: 1, readerDone: make(chan struct{})}
	go c.reader()
	return c, nil
}

func (c *loadConn) close() {
	c.nc.Close()
	<-c.readerDone
}

func (c *loadConn) fail(msg string) {
	if len(c.fails) < 5 {
		c.fails = append(c.fails, msg)
	}
}

func (c *loadConn) outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue) - c.head
}

// generate draws the connection's next operation and encodes it.
func (c *loadConn) generate(due int64) *event {
	o := c.st.nextOp()
	ev := &event{due: due, conn: c.idx, op: o, value: c.st.value(o), id: c.nextID}
	c.nextID++
	if o.kind.isSearch() {
		ev.wantDN = []byte(personDN(int(o.entry)))
	}
	ev.wire = (&ldap.Message{ID: ev.id, Op: c.st.request(o)}).AppendTo(nil)
	return ev
}

// send writes one generated request.
func (c *loadConn) send(ev *event) error {
	c.mu.Lock()
	if c.dead != nil {
		c.mu.Unlock()
		return c.dead
	}
	if c.head > 4096 && c.head*2 > len(c.queue) {
		c.queue = append(c.queue[:0], c.queue[c.head:]...)
		c.head = 0
	}
	c.queue = append(c.queue, pending{ev: ev, late: c.gen.now() - ev.due, depth: int32(len(c.queue) - c.head)})
	c.mu.Unlock()
	if h := c.gen.hooks.sent; h != nil && !ev.op.kind.isSearch() {
		h(ev.value, ev.due)
	}
	_, err := c.nc.Write(ev.wire)
	return err
}

// LDAP protocolOp tags of the responses the generator expects.
const (
	tagSearchEntry = 4
	tagSearchDone  = 5
	tagModifyDone  = 7
	tagAddDone     = 9
	tagDeleteDone  = 11
)

var wantTag = [...]uint32{opSearchBase: tagSearchDone, opSearchEq: tagSearchDone,
	opModify: tagModifyDone, opAdd: tagAddDone, opDelete: tagDeleteDone}

// parseResponse picks the message id, the protocolOp tag and — for a final
// response — the result code, or — for a search entry — the DN out of a
// borrowed LDAPMessage element.
func parseResponse(e *ber.Element) (id int64, tag uint32, code int64, dn []byte, err error) {
	if len(e.Children) < 2 || len(e.Children[1].Children) < 1 {
		return 0, 0, 0, nil, fmt.Errorf("malformed LDAPMessage")
	}
	if id, err = e.Children[0].Int(); err != nil {
		return 0, 0, 0, nil, err
	}
	body := e.Children[1]
	if body.Tag == tagSearchEntry {
		return id, body.Tag, 0, body.Children[0].Value, nil
	}
	code, err = body.Children[0].Int()
	return id, body.Tag, code, nil, err
}

func (c *loadConn) reader() {
	defer close(c.readerDone)
	for {
		e, err := c.rd.ReadElement()
		now := c.gen.now()
		c.mu.Lock()
		if err != nil {
			if c.dead == nil {
				c.dead = fmt.Errorf("connection lost: %w", err)
			}
			// Whatever was outstanding will never be answered.
			for _, p := range c.queue[c.head:] {
				c.samples = append(c.samples, sample{kind: p.ev.op.kind, due: p.ev.due,
					lat: now - p.ev.due, late: p.late, depth: p.depth})
				c.fail(fmt.Sprintf("%s %d: %v", p.ev.op.kind, p.ev.op.entry, err))
			}
			c.head = len(c.queue)
			c.mu.Unlock()
			select {
			case c.done <- struct{}{}:
			default:
			}
			return
		}
		id, tag, code, dn, perr := parseResponse(e)
		if c.head == len(c.queue) {
			c.fail(fmt.Sprintf("unsolicited message id %d", id))
			c.mu.Unlock()
			continue
		}
		p := &c.queue[c.head]
		ev := p.ev
		switch {
		case perr != nil:
			p.bad = perr.Error()
		case id != int64(ev.id):
			p.bad = fmt.Sprintf("response id %d for request %d", id, ev.id)
		}
		if perr == nil && tag == tagSearchEntry {
			p.entries++
			if !bytes.EqualFold(dn, ev.wantDN) {
				p.bad = fmt.Sprintf("search for %s returned %s", ev.wantDN, dn)
			}
			c.mu.Unlock()
			c.busyNs.Add(c.gen.now() - now)
			continue
		}
		switch {
		case p.bad != "":
		case tag != wantTag[ev.op.kind]:
			p.bad = fmt.Sprintf("unexpected response tag %d", tag)
		case code != int64(ldap.ResultSuccess):
			p.bad = ldap.ResultCode(code).String()
		case ev.op.kind.isSearch() && p.entries != 1:
			p.bad = fmt.Sprintf("search returned %d entries, want 1", p.entries)
		}
		s := sample{kind: ev.op.kind, due: ev.due, lat: now - ev.due, late: p.late, depth: p.depth, ok: p.bad == ""}
		if !s.ok {
			c.fail(fmt.Sprintf("%s %d: %s", ev.op.kind, ev.op.entry, p.bad))
		} else if !ev.op.kind.isSearch() {
			c.tr.acked(ev.op, ev.value)
		}
		c.samples = append(c.samples, s)
		c.head++
		c.mu.Unlock()
		if t := c.gen.tracer.Load(); t != nil {
			t.root("client", ev.op.kind.String(), ev.due, ev.due+s.late, now)
		}
		if h := c.gen.hooks.acked; h != nil && s.ok && !ev.op.kind.isSearch() {
			h(ev.value, now)
		}
		c.busyNs.Add(c.gen.now() - now)
		if c.closed.Load() {
			c.done <- struct{}{}
		}
	}
}

// runClosed issues operations back to back, one outstanding, until `until`
// (ns since the epoch).
func (c *loadConn) runClosed(until int64) {
	c.closed.Store(true)
	defer c.closed.Store(false)
	for c.gen.now() < until {
		if err := c.send(c.generate(c.gen.now())); err != nil {
			return
		}
		<-c.done
	}
}

// drain waits until every written request has been answered.
func (c *loadConn) drain(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for c.outstanding() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// threadCPU returns the nanoseconds thread tid of this process has run, from
// the scheduler's own accounting; 0 when the kernel does not expose it.
func threadCPU(tid int64) int64 {
	if tid == 0 {
		return 0
	}
	blob, err := os.ReadFile("/proc/self/task/" + strconv.FormatInt(tid, 10) + "/schedstat")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(blob))
	if len(f) == 0 {
		return 0
	}
	ns, _ := strconv.ParseInt(f[0], 10, 64)
	return ns
}

func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// generator owns the C connections of one run.
type generator struct {
	epoch time.Time
	conns []*loadConn
	seed  int64
	hooks hooks
	// tracer, when set, receives a root span per completed request.
	tracer atomic.Pointer[tracer]
}

// now is nanoseconds since the generator's epoch, on the monotonic clock.
func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

func newGenerator(addr string, m mix, seed int64, conns, pop int) (*generator, error) {
	g := &generator{epoch: time.Now(), seed: seed}
	for i := 0; i < conns; i++ {
		c, err := dialLoad(g, addr, newStream(m, seed, i, conns, pop), i)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.close()
	}
}

// schedule generates an open-loop stage: each connection gets its share of
// the rate as a Poisson process (independent users do not wait for each
// other's replies) drawn from the seed, and the connections' events are
// merged in due order. Due times are relative to the stage's start.
func (g *generator) schedule(name string, dur time.Duration, rate float64) []*event {
	var events []*event
	for i, c := range g.conns {
		arrivals := rand.New(rand.NewSource(g.seed*104729 + int64(i) + int64(len(name))<<20))
		perConn := rate / float64(len(g.conns))
		for due := int64(0); ; {
			due += int64(arrivals.ExpFloat64() / perConn * float64(time.Second))
			if due >= int64(dur) {
				break
			}
			events = append(events, c.generate(due))
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].due < events[j].due })
	return events
}

// sendAll writes each event when it is due and returns the CPU time its
// thread used. A request whose turn has passed is written at once.
func (g *generator) sendAll(events []*event) int64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tid := int64(syscall.Gettid())
	cpu0 := threadCPU(tid)
	for _, ev := range events {
		// The runtime's preemption signals cut a nanosleep short; sleep
		// again for the remainder.
		for d := ev.due - g.now(); d > 0; d = ev.due - g.now() {
			ts := syscall.NsecToTimespec(d)
			_ = syscall.Nanosleep(&ts, nil)
		}
		// A dead connection fails its outstanding requests in the reader;
		// the rest of its schedule is not attempted.
		_ = g.conns[ev.conn].send(ev)
	}
	return threadCPU(tid) - cpu0
}

// stage is the outcome of one timed stage.
type stage struct {
	name     string
	rate     float64 // offered ops/s over all connections; 0 for a closed loop
	dur      time.Duration
	start    int64 // ns since epoch
	samples  []sample
	failed   int64
	failures []string
	lateP99  float64 // µs
	cpuShare float64
}

// run executes one stage on every connection and collects its samples.
// rate 0 runs a closed loop with one request outstanding per connection.
func (g *generator) run(name string, dur time.Duration, rate float64) *stage {
	marks := make([]int, len(g.conns))
	var busy0 int64
	for i, c := range g.conns {
		c.mu.Lock()
		marks[i] = len(c.samples)
		c.mu.Unlock()
		busy0 += c.busyNs.Load()
	}
	st := &stage{name: name, rate: rate, dur: dur}
	var senderCPU int64
	var cpu0 int64
	if rate == 0 {
		cpu0 = processCPU()
		st.start = g.now()
		var wg sync.WaitGroup
		for _, c := range g.conns {
			wg.Add(1)
			go func(c *loadConn) {
				defer wg.Done()
				c.runClosed(st.start + int64(dur))
			}(c)
		}
		wg.Wait()
	} else {
		// The stage is generated before it starts, then placed a little
		// ahead of now.
		events := g.schedule(name, dur, rate)
		st.start = g.now() + int64(20*time.Millisecond)
		for _, ev := range events {
			ev.due += st.start
		}
		cpu0 = processCPU()
		senderCPU = g.sendAll(events)
	}
	for _, c := range g.conns {
		if !c.drain(15 * time.Second) {
			st.failed++
			st.failures = append(st.failures, name+": requests still unanswered 15 s after the stage ended")
			break
		}
	}
	busy := senderCPU - busy0
	var lates []int64
	for i, c := range g.conns {
		busy += c.busyNs.Load()
		c.mu.Lock()
		st.samples = append(st.samples, c.samples[marks[i]:]...)
		st.failures = append(st.failures, c.fails...)
		c.fails = nil
		if c.dead != nil && len(st.failures) == 0 {
			st.failures = append(st.failures, c.dead.Error())
		}
		c.mu.Unlock()
	}
	if cpu := processCPU() - cpu0; cpu > 0 {
		st.cpuShare = float64(busy) / float64(cpu)
	}
	for _, s := range st.samples {
		lates = append(lates, s.late)
		if !s.ok {
			st.failed++
		}
	}
	st.lateP99 = float64(quantile(sortedCopy(lates), 0.99)) / 1e3
	return st
}

// latencies returns the stage's successful samples of the wanted kind as
// (due since stage start, latency) pairs.
func (st *stage) latencies(search bool) []timed {
	var out []timed
	for _, s := range st.samples {
		if s.ok && s.kind.isSearch() == search {
			out = append(out, timed{due: s.due - st.start, lat: s.lat})
		}
	}
	return out
}

// throughput is the median completion rate over half-second windows of a
// closed-loop stage, in ops/s: robust against one slow window.
func (st *stage) throughput() (float64, int) {
	const width = int64(500 * time.Millisecond)
	full := int64(st.dur) / width
	counts := make([]float64, full)
	for _, s := range st.samples {
		if w := (s.due + s.lat - st.start) / width; s.ok && w >= 0 && w < full {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] *= float64(time.Second) / float64(width)
	}
	return median(counts), len(counts)
}

// backlogGrew reports whether requests were piling up: the mean number
// outstanding at send time over the last quarter of the stage against the
// first quarter. An open loop above capacity shows it long before failures.
func (st *stage) backlogGrew() bool {
	var first, last, nf, nl float64
	q := int64(st.dur) / 4
	for _, s := range st.samples {
		switch off := s.due - st.start; {
		case off < q:
			first += float64(s.depth)
			nf++
		case off >= 3*q:
			last += float64(s.depth)
			nl++
		}
	}
	if nf == 0 || nl == 0 {
		return nl == 0
	}
	return last/nl > 2*(first/nf)+2
}
