// Package ldapserver provides the TCP front end that speaks the LDAP v3
// protocol for any Handler. Both the MetaComm directory server (a DIT
// handler) and the LTAP trigger gateway (a proxying handler that "pretends
// to be an LDAP server", paper §4.3) are Handlers behind this server.
package ldapserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/ber"
	"metacomm/internal/ldap"
)

// Conn carries per-connection state visible to handlers.
type Conn struct {
	// BoundDN is the DN established by the last successful bind ("" when
	// anonymous).
	BoundDN string
	// RemoteAddr is the peer address, for logging.
	RemoteAddr string
}

// Handler responds to LDAP operations. Implementations must be safe for
// concurrent use: every active connection has its own goroutine.
type Handler interface {
	Bind(c *Conn, req *ldap.BindRequest) ldap.Result
	Search(c *Conn, req *ldap.SearchRequest, send func(*ldap.SearchResultEntry) error) ldap.Result
	Add(c *Conn, req *ldap.AddRequest) ldap.Result
	Delete(c *Conn, req *ldap.DeleteRequest) ldap.Result
	Modify(c *Conn, req *ldap.ModifyRequest) ldap.Result
	ModifyDN(c *Conn, req *ldap.ModifyDNRequest) ldap.Result
	Compare(c *Conn, req *ldap.CompareRequest) ldap.Result
	Extended(c *Conn, req *ldap.ExtendedRequest) *ldap.ExtendedResponse
}

// Server accepts LDAP connections and dispatches operations to a Handler.
//
// A connection is served by its own goroutine while it is active. Once it has
// waited about idleInterval for its next request it parks: its goroutine
// returns the connection's buffers to a pool, hands the socket to the
// server's one epoll set and exits, and the first byte of the next request
// starts a fresh goroutine for it (DESIGN.md §16). Handlers see the same
// *Conn across a park.
type Server struct {
	Handler Handler
	// ErrorLog receives connection-level errors; nil discards them.
	ErrorLog *log.Logger
	// MaxMessageSize bounds a single request message (identifier + length +
	// content); 0 means ber.DefaultMaxMessageSize. A request declaring a
	// larger length is answered with a protocolError unsolicited notice and
	// the connection is closed, before any content is read or allocated.
	MaxMessageSize int

	// mu guards the two owner sets: a connection is in exactly one of conns
	// (its goroutine serves it) and parked (the park set holds it).
	mu       sync.Mutex
	listener net.Listener
	conns    map[*serverConn]struct{}
	parked   map[int32]*serverConn // by fd
	parks    *parkSet              // nil where connections cannot park
	closed   bool
	done     chan struct{} // closed by Close: stops the idle sweep
	wg       sync.WaitGroup

	wire wireCounters
}

// idleInterval is how long a connection waits for its next request before
// it parks. A wake adds ~30 µs to the request that causes it; a connection
// kept on its goroutine holds ~19–23 KB of stack and buffers. A second keeps
// every connection that sends at least once a second on its goroutine, and
// makes a wake cost under 1/10 000 of the idleness it ends (DESIGN.md §16).
const idleInterval = time.Second

// parkAfter is idleInterval; tests shorten it. Zero parks a connection at
// every wait, so each request crosses a park and a wake.
var parkAfter = idleInterval

// errIdle reports a wait that outlasted the idle interval.
var errIdle = errors.New("ldapserver: connection idle")

// aLongTimeAgo is a read deadline already past: it interrupts a blocked read.
var aLongTimeAgo = time.Unix(1, 0)

// serverConn is one accepted connection. conn survives a park; the wait
// fields tell the idle sweep which connections are waiting, and for how long.
type serverConn struct {
	nc   net.Conn
	conn Conn
	// wait is 0 while the connection is busy, gen<<2|waiting while its
	// goroutine waits for a request, and |interrupted once the sweep has
	// set a past read deadline to end that wait. gen is the owner's count
	// of waits; seen is the sweep's last reading of wait (under Server.mu).
	wait atomic.Uint32
	gen  uint32
	seen uint32
}

const (
	waiting     = 1
	interrupted = 2
)

// connBufs is a connection's decode and encode storage — the buffered
// reader with its message buffer and element arena, the buffered writer and
// the response encode buffer. It is pooled, so a parked connection holds
// none of it.
type connBufs struct {
	rd   *ldap.Reader
	bw   *bufio.Writer
	wbuf []byte
}

var bufPool = sync.Pool{New: func() any {
	return &connBufs{rd: ldap.NewReader(nil), bw: bufio.NewWriterSize(nil, 4096), wbuf: make([]byte, 0, 4096)}
}}

// maxPooledEncode caps the encode buffer a pooled connBufs keeps, so one
// large search entry does not stay pinned in the pool.
const maxPooledEncode = 64 << 10

// wireCounters aggregates per-connection wire activity across the server.
type wireCounters struct {
	messagesRead     atomic.Uint64
	responsesWritten atomic.Uint64
	flushes          atomic.Uint64
	oversizeRejected atomic.Uint64
}

// WireStats is a point-in-time snapshot of the server's wire-path counters.
// ResponsesWritten counts every response message including streamed search
// entries; Flushes counts explicit buffer flushes (the 4 KB write buffer may
// add implicit ones when a large search stream overflows it), so
// ResponsesWritten/Flushes approximates the pipelining coalescing factor
// (1.0 = one write syscall per response).
type WireStats struct {
	MessagesRead     uint64
	ResponsesWritten uint64
	Flushes          uint64
	OversizeRejected uint64
	// Parked is the number of idle connections parked right now: they hold
	// no goroutine and no buffers.
	Parked uint64
}

// ResponsesPerFlush returns the mean number of response messages coalesced
// into one kernel write.
func (w WireStats) ResponsesPerFlush() float64 {
	if w.Flushes == 0 {
		return 0
	}
	return float64(w.ResponsesWritten) / float64(w.Flushes)
}

// WireStats snapshots the server's wire counters.
func (s *Server) WireStats() WireStats {
	s.mu.Lock()
	parked := len(s.parked)
	s.mu.Unlock()
	return WireStats{
		MessagesRead:     s.wire.messagesRead.Load(),
		ResponsesWritten: s.wire.responsesWritten.Load(),
		Flushes:          s.wire.flushes.Load(),
		OversizeRejected: s.wire.oversizeRejected.Load(),
		Parked:           uint64(parked),
	}
}

// NewServer returns a server for the handler.
func NewServer(h Handler) *Server {
	return &Server{Handler: h, conns: map[*serverConn]struct{}{},
		parked: map[int32]*serverConn{}, done: make(chan struct{})}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background.
// It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	parks, err := newParkSet()
	if err != nil {
		// Connections then keep their goroutines while idle, as they do
		// where no park set exists at all.
		s.logf("ldapserver: idle connections will not park: %v", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		if parks != nil {
			parks.close()
		}
		return nil, errors.New("ldapserver: server closed")
	}
	s.listener = l
	s.parks = parks
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(l)
	}()
	if parks != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			parks.wait(s.wake)
		}()
		if parkAfter > 0 {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.sweepLoop(parkAfter)
			}()
		}
	}
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		nc, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.serveLocked(&serverConn{nc: nc, conn: Conn{RemoteAddr: nc.RemoteAddr().String()}}, false)
		s.mu.Unlock()
	}
}

// serveLocked starts a goroutine for c. woken says the park set saw its
// next request arrive. Called with s.mu held.
func (s *Server) serveLocked(c *serverConn, woken bool) {
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveConn(c, woken)
	}()
}

// Close stops the listener, closes all connections, active and parked, and
// waits for every goroutine the server started.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.nc.Close()
	}
	for fd, c := range s.parked {
		c.nc.Close()
		delete(s.parked, fd)
	}
	parks := s.parks
	s.mu.Unlock()
	if parks != nil {
		parks.close()
	}
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.ErrorLog != nil {
		s.ErrorLog.Printf(format, args...)
	}
}

// serveConn serves c until it closes or parks. woken is true when the park
// set started this goroutine because c's next request arrived.
func (s *Server) serveConn(c *serverConn, woken bool) {
	b := bufPool.Get().(*connBufs)
	b.rd.Reset(c.nc)
	b.rd.SetMaxMessageSize(s.MaxMessageSize)
	b.bw.Reset(c.nc)
	if !s.serveRequests(c, b, woken) {
		b.bw.Flush() // unbind and error exits still deliver pending responses
		c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}
	b.rd.Reset(nil)
	b.bw.Reset(nil)
	if cap(b.wbuf) > maxPooledEncode {
		b.wbuf = make([]byte, 0, 4096)
	}
	bufPool.Put(b)
}

// serveRequests is the request loop. It reports true when c has parked (the
// park set owns it now) and false when the connection is done.
func (s *Server) serveRequests(c *serverConn, b *connBufs, woken bool) bool {
	conn := &c.conn
	// The reader owns this connection's decode storage: a buffered reader
	// (headers parse without byte-at-a-time conn reads), a reused message
	// buffer, and an element arena — steady-state BER decode allocates
	// nothing. DecodeMessage copies what it keeps, so handlers own their
	// requests. The buffered writer coalesces responses; it is flushed only
	// before a read that would block, so a pipelined burst of requests gets
	// its responses in one kernel write.
	rd, bw := b.rd, b.bw
	// Responses append into one reusable encode buffer before entering the
	// write buffer. The connection's goroutine is the only writer, so no
	// locking is needed.
	write := func(m *ldap.Message) error {
		b.wbuf = m.AppendTo(b.wbuf[:0])
		_, err := bw.Write(b.wbuf)
		if err == nil {
			s.wire.responsesWritten.Add(1)
		}
		return err
	}
	for {
		// Flush only when no complete pipelined request is already buffered:
		// a client that wrote N requests in one burst gets its N responses
		// coalesced, while a request-at-a-time client still sees its
		// response before the server blocks for the next request.
		if !rd.MessageBuffered() && bw.Buffered() > 0 {
			if err := bw.Flush(); err != nil {
				s.logf("ldapserver: %s: write: %v", conn.RemoteAddr, err)
				return false
			}
			s.wire.flushes.Add(1)
		}
		err := s.awaitRequest(c, rd, woken)
		woken = false
		if err == errIdle {
			if s.park(c) {
				return true
			}
			err = rd.Wait() // could not park: wait here, as long as it takes
		}
		var msg *ldap.Message
		if err == nil {
			msg, err = rd.ReadMessage()
		}
		if err != nil {
			oversize := errors.Is(err, ber.ErrTooLarge)
			if oversize || errors.Is(err, ldap.ErrMalformed) {
				// Refuse an oversized or malformed message with LDAP's
				// unsolicited notice (message ID 0), then drop the
				// connection; nothing was allocated or read for an
				// oversized message's declared length.
				if oversize {
					s.wire.oversizeRejected.Add(1)
				} else {
					s.logf("ldapserver: %s: read: %v", conn.RemoteAddr, err)
				}
				_ = write(&ldap.Message{ID: 0, Op: &ldap.ExtendedResponse{
					Name: ldap.NoticeOfDisconnection,
					Result: ldap.Result{Code: ldap.ResultProtocolError,
						Message: err.Error()}}})
				return false
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("ldapserver: %s: read: %v", conn.RemoteAddr, err)
			}
			return false
		}
		s.wire.messagesRead.Add(1)
		if _, ok := msg.Op.(*ldap.UnbindRequest); ok {
			return false
		}
		resp := s.dispatch(conn, write, msg)
		if resp == nil {
			continue // abandon has no response (and nothing to flush)
		}
		if err := write(resp); err != nil {
			s.logf("ldapserver: %s: write: %v", conn.RemoteAddr, err)
			return false
		}
	}
}

// awaitRequest waits until the first byte of c's next request is buffered.
// It returns errIdle once the wait has outlasted the idle interval, and the
// read error if the wait failed. Only the first byte is waited for under
// the idle sweep: a request already begun is read to its end with no
// deadline, because ber.Reader cannot resume a message after a read error,
// so a connection holding part of a request never parks.
func (s *Server) awaitRequest(c *serverConn, rd *ldap.Reader, woken bool) error {
	if s.parks == nil || rd.Buffered() > 0 {
		return nil
	}
	if parkAfter == 0 && !woken {
		return errIdle
	}
	c.gen++
	w := c.gen<<2 | waiting
	c.wait.Store(w)
	err := rd.Wait()
	if c.wait.CompareAndSwap(w, 0) {
		return err
	}
	// The sweep interrupted this wait. It set the past deadline while
	// holding s.mu, so once we hold s.mu the deadline is in place and
	// clearing it sticks.
	c.wait.Store(0)
	s.mu.Lock()
	c.nc.SetReadDeadline(time.Time{})
	s.mu.Unlock()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return errIdle
	}
	return err // nil: the request arrived as the sweep fired; serve it
}

// sweepLoop runs the idle sweep once per period until Close.
func (s *Server) sweepLoop(period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.sweep()
		}
	}
}

// sweep interrupts every wait that was already under way at the previous
// sweep, so a connection parks after one to two periods without a request.
// It costs the request path no timer: a wait is one atomic store and one
// compare-and-swap.
func (s *Server) sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		w := c.wait.Load()
		if w&waiting != 0 && w == c.seen && c.wait.CompareAndSwap(w, w|interrupted) {
			c.nc.SetReadDeadline(aLongTimeAgo)
		}
		c.seen = w
	}
}

// park moves c from its goroutine to the park set. It reports false when c
// must stay with its goroutine: the server is closing, or the park set
// refused the socket.
func (s *Server) park(c *serverConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	fd, err := s.parks.add(c.nc)
	if err != nil {
		s.logf("ldapserver: %s: park: %v", c.conn.RemoteAddr, err)
		return false
	}
	delete(s.conns, c)
	s.parked[fd] = c
	return true
}

// wake starts a goroutine for each parked connection whose socket turned
// readable: a request, or the peer closing. The park set calls it.
func (s *Server) wake(fds []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for _, fd := range fds {
		c := s.parked[fd]
		if c == nil {
			continue
		}
		delete(s.parked, fd)
		s.parks.remove(fd)
		s.serveLocked(c, true)
	}
}

// dispatch runs one operation and returns the final response message (search
// entries are streamed through write, the connection's buffered encoder).
func (s *Server) dispatch(conn *Conn, write func(*ldap.Message) error, msg *ldap.Message) (out *ldap.Message) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("ldapserver: %s: handler panic: %v", conn.RemoteAddr, r)
			out = &ldap.Message{ID: msg.ID, Op: opError(msg.Op, ldap.Result{
				Code: ldap.ResultOperationsError, Message: fmt.Sprint(r)})}
		}
	}()
	switch req := msg.Op.(type) {
	case *ldap.BindRequest:
		res := s.Handler.Bind(conn, req)
		if res.Code == ldap.ResultSuccess {
			conn.BoundDN = req.Name
		}
		return &ldap.Message{ID: msg.ID, Op: &ldap.BindResponse{Result: res}}
	case *ldap.SearchRequest:
		send := func(e *ldap.SearchResultEntry) error {
			return write(&ldap.Message{ID: msg.ID, Op: e})
		}
		res := s.Handler.Search(conn, req, send)
		return &ldap.Message{ID: msg.ID, Op: &ldap.SearchResultDone{Result: res}}
	case *ldap.AddRequest:
		return &ldap.Message{ID: msg.ID, Op: &ldap.AddResponse{Result: s.Handler.Add(conn, req)}}
	case *ldap.DeleteRequest:
		return &ldap.Message{ID: msg.ID, Op: &ldap.DeleteResponse{Result: s.Handler.Delete(conn, req)}}
	case *ldap.ModifyRequest:
		return &ldap.Message{ID: msg.ID, Op: &ldap.ModifyResponse{Result: s.Handler.Modify(conn, req)}}
	case *ldap.ModifyDNRequest:
		return &ldap.Message{ID: msg.ID, Op: &ldap.ModifyDNResponse{Result: s.Handler.ModifyDN(conn, req)}}
	case *ldap.CompareRequest:
		return &ldap.Message{ID: msg.ID, Op: &ldap.CompareResponse{Result: s.Handler.Compare(conn, req)}}
	case *ldap.ExtendedRequest:
		return &ldap.Message{ID: msg.ID, Op: s.Handler.Extended(conn, req)}
	case *ldap.AbandonRequest:
		return nil // operations are synchronous here; nothing to abandon
	}
	return &ldap.Message{ID: msg.ID, Op: &ldap.ExtendedResponse{
		Result: ldap.Result{Code: ldap.ResultProtocolError, Message: "unsupported operation"}}}
}

// opError builds the response op matching a request op for error reporting.
func opError(req ldap.Op, res ldap.Result) ldap.Op {
	switch req.(type) {
	case *ldap.BindRequest:
		return &ldap.BindResponse{Result: res}
	case *ldap.SearchRequest:
		return &ldap.SearchResultDone{Result: res}
	case *ldap.AddRequest:
		return &ldap.AddResponse{Result: res}
	case *ldap.DeleteRequest:
		return &ldap.DeleteResponse{Result: res}
	case *ldap.ModifyRequest:
		return &ldap.ModifyResponse{Result: res}
	case *ldap.ModifyDNRequest:
		return &ldap.ModifyDNResponse{Result: res}
	case *ldap.CompareRequest:
		return &ldap.CompareResponse{Result: res}
	default:
		return &ldap.ExtendedResponse{Result: res}
	}
}
