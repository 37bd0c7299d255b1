//go:build linux

// The epoll reactor: readiness-driven serving for 10k+ mostly-idle
// connections. Goroutine mode (serveConn) parks a goroutine stack, a bufio
// reader, a 4 KB write buffer, an encode buffer and a decode arena on every
// connection; at 10k connections that is ~10k stacks and tens of MB doing
// nothing. Here a single event-loop goroutine owns an epoll set of
// non-blocking fds and peels complete BER frames into pooled buffers; ready
// connections are handed to a bounded worker pool that decodes with a
// per-worker arena and dispatches through the same s.dispatch the goroutine
// path uses. An idle connection costs one ~200-byte econn and one fd —
// buffers return to the pools whenever a connection has no pending bytes.
//
// Invariants the implementation maintains (DESIGN.md §16):
//
//   - Per-connection order: a connection is in the worker queue at most once
//     (the scheduled flag, under the conn lock); the owning worker serves its
//     frames strictly in arrival order and no other worker touches it until
//     it deschedules.
//   - Flush coalescing, byte-for-byte with the goroutine path: responses
//     append to a per-conn output buffer and are written to the kernel once
//     per scheduling turn — a pipelined burst of N requests is answered in
//     one write; oversize requests get the unsolicited notice-of-
//     disconnection and a close, before any content is buffered.
//   - Edge-triggered registration happens once per conn (IN|OUT|RDHUP|ET):
//     ET EPOLLOUT fires only on not-writable→writable transitions, so there
//     is no EPOLL_CTL_MOD rearming and no rearm races. The reads that
//     follow an event always drain to EAGAIN.
//   - Locks nest conn→registry only, and a conn's fd is closed exactly once
//     (finalizeLocked, guarded by c.closed), which also drops it from the
//     epoll set.
package ldapserver

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"metacomm/internal/ber"
	"metacomm/internal/ldap"
)

// reactorSupported reports build-level availability of the epoll reactor.
const reactorSupported = true

const (
	// epollET requests edge-triggered delivery. syscall.EPOLLET is declared
	// as a negative untyped int on linux; keep a uint32 mask.
	epollET = uint32(1) << 31

	// readChunk is the minimum spare capacity ensured before each
	// non-blocking read.
	readChunk = 2048

	// maxPooledBuf caps the capacity of buffers returned to the pool so a
	// burst of large messages cannot pin memory in idle pools.
	maxPooledBuf = 64 << 10

	// flushThreshold flushes a connection's pending output mid-turn once it
	// grows past this size, bounding buffering for large search streams
	// (the goroutine path's 4 KB bufio writer overflows implicitly the same
	// way; neither counts toward the coalescing flush counter).
	flushThreshold = 32 << 10

	// framesPerTurn bounds how many frames one scheduling turn serves from
	// a single connection before requeueing it, so a pipelining firehose
	// cannot starve other ready connections.
	framesPerTurn = 64

	// reactorMaxWorkers caps the pool including overflow workers. Overflow
	// exists because handlers may block (the LTAP gateway proxies to a
	// backend; quiesce gates hold update handlers): whenever work is queued
	// and every worker is occupied, a transient worker is spawned rather
	// than risking the queued op being the one that would unblock the rest.
	// Worst case this degenerates to a goroutine per *active* op — still
	// zero goroutines for idle connections.
	reactorMaxWorkers = 4096
)

func defaultReactorWorkers() int {
	if n := 4 * runtime.GOMAXPROCS(0); n > 8 {
		return n
	}
	return 8
}

// bufPool recycles connection I/O buffers. Idle connections hold none.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// netBuf is a byte queue: the producer appends at the tail, the consumer
// advances off. The backing array returns to the pool when the queue drains.
type netBuf struct {
	buf []byte
	off int
}

func (b *netBuf) size() int       { return len(b.buf) - b.off }
func (b *netBuf) pending() []byte { return b.buf[b.off:] }

func (b *netBuf) consume(n int) {
	b.off += n
	if b.off == len(b.buf) {
		b.buf = b.buf[:0]
		b.off = 0
	}
}

// compact reclaims the consumed prefix. Callers must hold no aliases into
// the buffer: compact moves bytes in place.
func (b *netBuf) compact() {
	if b.off == 0 {
		return
	}
	n := copy(b.buf, b.buf[b.off:])
	b.buf = b.buf[:n]
	b.off = 0
}

// release returns a drained buffer to the pool. No-op while bytes pend.
func (b *netBuf) release() {
	if b.size() != 0 {
		return
	}
	if b.buf != nil && cap(b.buf) <= maxPooledBuf {
		s := b.buf[:0]
		bufPool.Put(&s)
	}
	b.buf, b.off = nil, 0
}

// ensureSpace guarantees n spare bytes of append capacity. It never moves
// pending bytes in place (growth reallocates), so frame slices handed to a
// worker stay valid while the reactor keeps appending.
func (b *netBuf) ensureSpace(n int) {
	if b.buf == nil {
		b.buf = (*bufPool.Get().(*[]byte))[:0]
		b.off = 0
	}
	if cap(b.buf)-len(b.buf) >= n {
		return
	}
	newCap := 2 * cap(b.buf)
	if newCap < len(b.buf)+n {
		newCap = len(b.buf) + n
	}
	nb := make([]byte, len(b.buf), newCap)
	copy(nb, b.buf)
	b.buf = nb // old array may still be aliased by an in-flight frame; GC owns it
}

// econn is one connection registered with the reactor.
type econn struct {
	fd    int
	file  *os.File // keeps the (sole) fd reference; closing it leaves the epoll set
	conn  *Conn
	write func(*ldap.Message) error // appends a response to out; set at register

	mu              sync.Mutex
	in              netBuf // unprocessed inbound bytes (reactor appends, worker consumes)
	out             netBuf // un-flushed outbound bytes
	scheduled       bool   // queued for / being served by a worker
	throttled       bool   // input reads paused until the worker catches up
	eof             bool   // peer done writing, or the read path failed
	frameErr        error  // fatal framing/decode error (oversize ⇒ notice first)
	unbound         bool   // client sent UnbindRequest: drop input, flush, close
	closeAfterFlush bool   // close as soon as out drains (EPOLLOUT finishes it)
	closed          bool   // fd closed, conn deregistered
}

// workQueue is the ready-connection FIFO feeding the worker pool.
type workQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*econn
	head   int
	idle   int // workers parked in pop
	closed bool
}

func (q *workQueue) pop(block bool) (*econn, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.head < len(q.items) {
			c := q.items[q.head]
			q.items[q.head] = nil
			q.head++
			if q.head == len(q.items) {
				q.items = q.items[:0]
				q.head = 0
			}
			return c, true
		}
		if q.closed || !block {
			return nil, false
		}
		q.idle++
		q.cond.Wait()
		q.idle--
	}
}

func (q *workQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

type reactor struct {
	srv          *Server
	epfd         int
	wakeR, wakeW int // self-pipe: wakes the event loop for shutdown
	maxMsg       int
	maxIn        int // throttle bound on unprocessed inbound bytes per conn

	mu     sync.Mutex // registry lock; nests inside econn.mu
	conns  map[int32]*econn
	closed bool

	q  workQueue
	wg sync.WaitGroup

	registered atomic.Int64
	workers    atomic.Int64
	wakeups    atomic.Uint64
	events     atomic.Uint64
	frames     atomic.Uint64
}

func newReactor(s *Server) (*reactor, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	r := &reactor{srv: s, epfd: epfd, wakeR: p[0], wakeW: p[1], conns: map[int32]*econn{}}
	r.maxMsg = s.MaxMessageSize
	if r.maxMsg <= 0 {
		r.maxMsg = ber.DefaultMaxMessageSize
	}
	// One max-size frame must always be able to complete; beyond that the
	// reactor stops reading a conn until its worker catches up, so a
	// flooding client cannot buffer more than the goroutine path would.
	r.maxIn = r.maxMsg + 16
	r.q.cond = sync.NewCond(&r.q.mu)
	// The wake pipe is the one level-triggered registration: its byte must
	// stay visible until the loop drains it.
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN), Fd: int32(p[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p[0], &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(p[0])
		syscall.Close(p[1])
		return nil, err
	}
	base := s.Workers
	if base <= 0 {
		base = defaultReactorWorkers()
	}
	if base > reactorMaxWorkers {
		base = reactorMaxWorkers
	}
	r.wg.Add(1)
	go r.loop()
	for i := 0; i < base; i++ {
		r.workers.Add(1)
		r.wg.Add(1)
		go r.workerLoop(false)
	}
	return r, nil
}

func (r *reactor) stats() ReactorStats {
	r.q.mu.Lock()
	depth := len(r.q.items) - r.q.head
	r.q.mu.Unlock()
	return ReactorStats{
		Enabled:    true,
		Conns:      uint64(max64(r.registered.Load(), 0)),
		Workers:    uint64(max64(r.workers.Load(), 0)),
		Wakeups:    r.wakeups.Load(),
		Events:     r.events.Load(),
		Frames:     r.frames.Load(),
		QueueDepth: uint64(depth),
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// register moves an accepted connection onto the reactor: the fd is dup'd
// out of the net.Conn (which is then closed), set non-blocking, and added to
// the epoll set edge-triggered for both directions, once — no CTL_MOD ever.
func (r *reactor) register(nc net.Conn) {
	ra := nc.RemoteAddr().String()
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		// Non-TCP listener (not used today): keep the portable path.
		r.srv.wg.Add(1)
		go func() {
			defer r.srv.wg.Done()
			r.srv.serveConn(nc)
		}()
		return
	}
	f, err := tc.File()
	nc.Close()
	if err != nil {
		r.srv.logf("ldapserver: %s: reactor register: %v", ra, err)
		return
	}
	fd := int(f.Fd())
	if err := syscall.SetNonblock(fd, true); err != nil {
		f.Close()
		r.srv.logf("ldapserver: %s: reactor register: %v", ra, err)
		return
	}
	c := &econn{fd: fd, file: f, conn: &Conn{RemoteAddr: ra}}
	c.write = r.responseWriter(c)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		f.Close()
		return
	}
	r.conns[int32(fd)] = c
	r.mu.Unlock()
	r.registered.Add(1)
	ev := syscall.EpollEvent{
		Events: uint32(syscall.EPOLLIN|syscall.EPOLLOUT|syscall.EPOLLRDHUP) | epollET,
		Fd:     int32(fd),
	}
	if err := syscall.EpollCtl(r.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		r.srv.logf("ldapserver: %s: reactor register: %v", ra, err)
		c.mu.Lock()
		r.finalizeLocked(c)
		c.mu.Unlock()
	}
}

// loop is the event loop: one goroutine regardless of connection count.
func (r *reactor) loop() {
	defer r.wg.Done()
	events := make([]syscall.EpollEvent, 256)
	for {
		n, err := syscall.EpollWait(r.epfd, events, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return
		}
		r.wakeups.Add(1)
		for i := 0; i < n; i++ {
			fd := events[i].Fd
			if int(fd) == r.wakeR {
				var scratch [64]byte
				for {
					if n, _ := syscall.Read(r.wakeR, scratch[:]); n < len(scratch) {
						break
					}
				}
				if r.isClosed() {
					return
				}
				continue
			}
			r.mu.Lock()
			c := r.conns[fd]
			r.mu.Unlock()
			if c == nil {
				continue // closed while the event was in flight (fd may be reused)
			}
			r.events.Add(1)
			r.handleEvent(c, events[i].Events)
		}
	}
}

func (r *reactor) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

func (r *reactor) handleEvent(c *econn, ev uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if ev&uint32(syscall.EPOLLOUT) != 0 && c.out.size() > 0 {
		// Writability returned: continue the flush a worker started. Not a
		// new coalescing flush, so it is not counted as one.
		r.flushLocked(c, false)
		if c.closed {
			return
		}
	}
	if ev&uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
		if !c.throttled && !c.closeAfterFlush {
			r.readLocked(c)
		}
		r.scheduleLocked(c)
	}
}

// readLocked drains the socket (edge-triggered: until EAGAIN or throttle),
// appending to c.in. Appends may reallocate but never move pending bytes in
// place, so a frame slice held by the owning worker stays valid. Called with
// c.mu held, by the reactor and by workers resuming a throttled conn.
func (r *reactor) readLocked(c *econn) {
	for !c.eof && !c.closed {
		if c.in.size() >= r.maxIn {
			c.throttled = true
			return
		}
		c.in.ensureSpace(readChunk)
		spare := c.in.buf[len(c.in.buf):cap(c.in.buf)]
		n, err := syscall.Read(c.fd, spare)
		if n > 0 {
			c.in.buf = c.in.buf[:len(c.in.buf)+n]
			continue
		}
		switch {
		case n == 0 && err == nil:
			c.eof = true
		case err == syscall.EAGAIN:
			return
		case err == syscall.EINTR:
			continue
		default:
			r.srv.logf("ldapserver: %s: read: %v", c.conn.RemoteAddr, err)
			c.eof = true
		}
	}
}

// scheduleLocked hands the connection to the worker pool when it has
// servable work (a complete frame, or a framing error to refuse). A conn at
// EOF with nothing servable closes right here, reactor-side — idle
// disconnects never occupy a worker. Called with c.mu held.
func (r *reactor) scheduleLocked(c *econn) {
	if c.scheduled || c.closed || c.closeAfterFlush {
		return
	}
	servable := c.frameErr != nil
	if !servable {
		pend := c.in.pending()
		size, ok, err := ber.FrameSize(pend, r.maxMsg)
		if err != nil {
			c.frameErr = err
			servable = true
		} else {
			servable = ok && len(pend) >= size
		}
	}
	if servable {
		c.scheduled = true
		r.enqueue(c)
		return
	}
	if c.eof {
		if c.in.size() > 0 {
			// Bytes with no complete frame behind them: same diagnostic the
			// goroutine path's io.ReadFull surfaces.
			r.srv.logf("ldapserver: %s: read: %v", c.conn.RemoteAddr, io.ErrUnexpectedEOF)
		}
		r.flushLocked(c, false)
		if c.closed {
			return
		}
		if c.out.size() > 0 {
			c.closeAfterFlush = true
			return
		}
		r.finalizeLocked(c)
	}
}

// enqueue pushes a scheduled connection to the worker queue, growing the
// pool with a transient worker when nobody is idle to take it (see
// reactorMaxWorkers for why blocking handlers make this necessary).
func (r *reactor) enqueue(c *econn) {
	q := &r.q
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, c)
	spawn := q.idle == 0 && r.workers.Load() < reactorMaxWorkers
	q.cond.Signal()
	q.mu.Unlock()
	if spawn {
		r.workers.Add(1)
		r.wg.Add(1)
		go r.workerLoop(true)
	}
}

func (r *reactor) workerLoop(transient bool) {
	defer r.wg.Done()
	defer r.workers.Add(-1)
	var dec ber.Decoder
	for {
		c, ok := r.q.pop(!transient)
		if !ok {
			return
		}
		r.serveTurn(c, &dec)
		dec.Trim()
	}
}

// serveTurn serves one scheduling turn of a connection: every complete frame
// currently buffered (up to framesPerTurn), in arrival order, through the
// same s.dispatch as the goroutine path, with all responses coalesced into
// one kernel write at deschedule.
func (r *reactor) serveTurn(c *econn, dec *ber.Decoder) {
	served := 0
	for {
		c.mu.Lock()
		if c.closed {
			c.scheduled = false
			c.mu.Unlock()
			return
		}
		var frame []byte
		if c.frameErr == nil && !c.unbound {
			pend := c.in.pending()
			if size, ok, err := ber.FrameSize(pend, r.maxMsg); err != nil {
				c.frameErr = err
			} else if ok && len(pend) >= size {
				if served >= framesPerTurn {
					// Requeue behind other ready conns; stay scheduled so
					// the reactor cannot double-enqueue in between.
					r.flushLocked(c, true)
					c.mu.Unlock()
					r.enqueue(c)
					return
				}
				frame = pend[:size:size]
			}
		}
		if frame == nil {
			r.finishTurn(c) // releases c.mu
			return
		}
		c.mu.Unlock()

		served++
		r.frames.Add(1)
		// Decode outside the conn lock: the frame slice is stable (the
		// reactor only appends) and this worker is the conn's only consumer.
		// DecodeMessage copies everything it keeps — the ber tree and frame
		// bytes are dead after this line, so consuming the input (and even
		// pooling its backing array) is safe mid-dispatch.
		e, _, derr := dec.Decode(frame)
		var msg *ldap.Message
		if derr == nil {
			msg, derr = ldap.DecodeMessage(e)
		}
		if derr != nil {
			c.mu.Lock()
			c.in.consume(len(frame))
			c.frameErr = derr
			c.mu.Unlock()
			continue
		}
		r.srv.wire.messagesRead.Add(1)
		if _, ok := msg.Op.(*ldap.UnbindRequest); ok {
			c.mu.Lock()
			c.in.consume(len(frame))
			c.unbound = true
			c.mu.Unlock()
			continue
		}
		resp := r.srv.dispatch(c.conn, c.write, msg)
		if resp != nil {
			_ = c.write(resp) // write errors surface as c.closed next iteration
		}
		c.mu.Lock()
		c.in.consume(len(frame))
		c.mu.Unlock()
	}
}

// finishTurn ends a scheduling turn: flush coalesced responses, surface
// terminal conditions (unbind, EOF, framing errors — oversize answers with
// the unsolicited notice first), return drained buffers to the pools, and
// deschedule. Runs with c.mu held and releases it.
func (r *reactor) finishTurn(c *econn) {
	dead := c.unbound || c.eof
	if c.frameErr != nil {
		dead = true
		if errors.Is(c.frameErr, ber.ErrTooLarge) {
			r.srv.wire.oversizeRejected.Add(1)
			m := &ldap.Message{ID: 0, Op: &ldap.ExtendedResponse{
				Name: ldap.NoticeOfDisconnection,
				Result: ldap.Result{Code: ldap.ResultProtocolError,
					Message: c.frameErr.Error()}}}
			if c.out.buf == nil {
				c.out = netBuf{buf: (*bufPool.Get().(*[]byte))[:0]}
			}
			c.out.buf = m.AppendTo(c.out.buf)
			r.srv.wire.responsesWritten.Add(1)
		} else {
			r.srv.logf("ldapserver: %s: read: %v", c.conn.RemoteAddr, c.frameErr)
		}
	} else if c.eof && !c.unbound && c.in.size() > 0 {
		r.srv.logf("ldapserver: %s: read: %v", c.conn.RemoteAddr, io.ErrUnexpectedEOF)
	}
	r.flushLocked(c, true)
	if dead || c.closed {
		c.scheduled = false
		if !c.closed && c.out.size() > 0 {
			c.closeAfterFlush = true // EPOLLOUT completes the close
		} else {
			r.finalizeLocked(c)
		}
		c.mu.Unlock()
		return
	}
	// Going idle between frames: hand buffers back so a parked connection
	// holds no buffer memory.
	if c.in.size() == 0 {
		c.in.release()
	} else if c.in.off >= maxPooledBuf {
		c.in.compact() // no frame aliases outstanding here
	}
	c.out.release()
	resume := c.throttled && c.in.size() < r.maxIn/2
	if resume {
		c.throttled = false
	}
	c.scheduled = false
	if resume {
		// Catch up on bytes that arrived while throttled; reschedule if a
		// frame completed (possibly onto another worker — fine, we are
		// descheduled).
		r.readLocked(c)
		r.scheduleLocked(c)
	}
	c.mu.Unlock()
}

// responseWriter builds the conn's response append function — the `write`
// the shared dispatch streams search entries through.
func (r *reactor) responseWriter(c *econn) func(*ldap.Message) error {
	return func(m *ldap.Message) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.closed {
			return net.ErrClosed
		}
		if c.out.buf == nil {
			c.out = netBuf{buf: (*bufPool.Get().(*[]byte))[:0]}
		}
		c.out.buf = m.AppendTo(c.out.buf)
		r.srv.wire.responsesWritten.Add(1)
		if c.out.size() >= flushThreshold {
			r.flushLocked(c, false)
			if c.closed {
				return net.ErrClosed
			}
		}
		return nil
	}
}

// flushLocked writes pending output until it drains or the kernel pushes
// back (EAGAIN — the standing ET EPOLLOUT registration fires when
// writability returns and handleEvent continues here). Called with c.mu
// held. count marks a coalescing flush (one per scheduling turn);
// continuations and overflow flushes pass false, mirroring the goroutine
// path where only the flush-before-blocking-read is counted.
func (r *reactor) flushLocked(c *econn, count bool) {
	if c.closed || c.out.size() == 0 {
		return
	}
	if count {
		r.srv.wire.flushes.Add(1)
	}
	for c.out.size() > 0 {
		n, err := syscall.Write(c.fd, c.out.pending())
		if n > 0 {
			c.out.consume(n)
			continue
		}
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN || err == nil {
			return
		}
		r.srv.logf("ldapserver: %s: write: %v", c.conn.RemoteAddr, err)
		c.out.buf, c.out.off = c.out.buf[:0], 0
		r.finalizeLocked(c)
		return
	}
	c.out.release()
	if c.closeAfterFlush {
		r.finalizeLocked(c)
	}
}

// finalizeLocked tears the connection down exactly once: deregister, drop
// the buffers, and close the fd (which also removes it from the epoll set —
// this file holds the only reference). The registry delete MUST precede the
// close: the moment the fd returns to the kernel it can be reused by a new
// accept, and register would insert the new conn under the same key — a
// delete-after-close would then remove the new conn and orphan its events.
// Called with c.mu held, from workers and the reactor alike; the registry
// lock nests inside the conn lock.
func (r *reactor) finalizeLocked(c *econn) {
	if c.closed {
		return
	}
	c.closed = true
	r.mu.Lock()
	delete(r.conns, int32(c.fd))
	r.mu.Unlock()
	c.in.buf, c.in.off = c.in.buf[:0], 0
	c.in.release()
	c.out.buf, c.out.off = c.out.buf[:0], 0
	c.out.release()
	c.file.Close()
	r.registered.Add(-1)
}

// shutdown closes every registered connection, stops the event loop and the
// worker pool, and waits for them. Idempotent.
func (r *reactor) shutdown() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	conns := make([]*econn, 0, len(r.conns))
	for _, c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	syscall.Write(r.wakeW, []byte{1})
	for _, c := range conns {
		c.mu.Lock()
		r.finalizeLocked(c)
		c.mu.Unlock()
	}
	r.q.close()
	r.wg.Wait()
	syscall.Close(r.epfd)
	syscall.Close(r.wakeR)
	syscall.Close(r.wakeW)
}
