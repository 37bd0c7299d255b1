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
	"sync"
	"sync/atomic"

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
// concurrent use: the server runs one goroutine per connection.
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
type Server struct {
	Handler Handler
	// ErrorLog receives connection-level errors; nil discards them.
	ErrorLog *log.Logger
	// MaxMessageSize bounds a single request message (identifier + length +
	// content); 0 means ber.DefaultMaxMessageSize. A request declaring a
	// larger length is answered with a protocolError unsolicited notice and
	// the connection is closed, before any content is read or allocated.
	MaxMessageSize int
	// AcceptLoop selects the connection-serving strategy: "goroutine" (or
	// "", the default) parks one goroutine plus dedicated buffers on every
	// connection; "epoll" multiplexes all connections onto a readiness
	// reactor with a bounded worker pool, so an idle connection costs no
	// goroutine and no buffer (Linux only — elsewhere the server logs a
	// note and falls back to goroutine mode). Set before Start.
	AcceptLoop string
	// Workers sizes the reactor's resident worker pool in epoll mode; 0
	// means a GOMAXPROCS-derived default. Ignored in goroutine mode.
	Workers int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
	reactor  *reactor

	wire wireCounters
}

// Accept-loop mode names accepted by Server.AcceptLoop (and the -accept-loop
// flags in metacommd and loadgen).
const (
	AcceptLoopGoroutine = "goroutine"
	AcceptLoopEpoll     = "epoll"
)

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
	// Reactor is the epoll accept-loop snapshot; the zero value (with
	// Enabled=false) in goroutine mode.
	Reactor ReactorStats
}

// ReactorStats is a point-in-time snapshot of the epoll reactor.
type ReactorStats struct {
	Enabled    bool
	Conns      uint64 // connections currently registered with the reactor
	Workers    uint64 // live worker goroutines (resident + overflow)
	Wakeups    uint64 // epoll_wait returns
	Events     uint64 // readiness events dispatched to connections
	Frames     uint64 // complete BER frames peeled off readiness events
	QueueDepth uint64 // ready connections awaiting a worker right now
}

// FramesPerWakeup returns the mean number of complete frames served per
// epoll_wait return — the reactor's batching factor (higher = fewer wakeups
// doing more work each).
func (r ReactorStats) FramesPerWakeup() float64 {
	if r.Wakeups == 0 {
		return 0
	}
	return float64(r.Frames) / float64(r.Wakeups)
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
	ws := WireStats{
		MessagesRead:     s.wire.messagesRead.Load(),
		ResponsesWritten: s.wire.responsesWritten.Load(),
		Flushes:          s.wire.flushes.Load(),
		OversizeRejected: s.wire.oversizeRejected.Load(),
	}
	s.mu.Lock()
	r := s.reactor
	s.mu.Unlock()
	if r != nil {
		ws.Reactor = r.stats()
	}
	return ws
}

// NewServer returns a server for the handler.
func NewServer(h Handler) *Server {
	return &Server{Handler: h, conns: map[net.Conn]bool{}}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background.
// It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	var r *reactor
	switch s.AcceptLoop {
	case "", AcceptLoopGoroutine:
	case AcceptLoopEpoll:
		var err error
		if r, err = newReactor(s); err != nil {
			// Portable fallback: serve goroutine-per-conn and say so, since
			// benchmarks comparing the modes must not silently converge.
			s.logf("ldapserver: epoll accept loop unavailable (%v); falling back to goroutine mode", err)
		}
	default:
		return nil, fmt.Errorf("ldapserver: unknown accept loop %q (want %q or %q)",
			s.AcceptLoop, AcceptLoopGoroutine, AcceptLoopEpoll)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		if r != nil {
			r.shutdown()
		}
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		if r != nil {
			r.shutdown()
		}
		return nil, errors.New("ldapserver: server closed")
	}
	s.listener = l
	s.reactor = r
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(l)
	}()
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		if s.reactor != nil {
			// Reactor mode: the conn's fd moves into the epoll set; no
			// per-conn goroutine and no entry in the conns map (the reactor
			// owns teardown).
			s.mu.Unlock()
			s.reactor.register(c)
			continue
		}
		s.conns[c] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
		}()
	}
}

// Close stops the listener and closes all live connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	r := s.reactor
	s.mu.Unlock()
	if r != nil {
		r.shutdown()
	}
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.ErrorLog != nil {
		s.ErrorLog.Printf(format, args...)
	}
}

func (s *Server) serveConn(nc net.Conn) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	conn := &Conn{RemoteAddr: nc.RemoteAddr().String()}
	// The reader owns this connection's decode storage: a buffered reader
	// (headers parse without byte-at-a-time conn reads), a reused message
	// buffer, and an element arena — steady-state BER decode allocates
	// nothing. DecodeMessage copies what it keeps, so handlers own their
	// requests. The buffered writer coalesces responses; it is flushed only
	// before a read that would block, so a pipelined burst of requests gets
	// its responses in one kernel write.
	rd := ldap.NewReader(nc)
	rd.SetMaxMessageSize(s.MaxMessageSize)
	bw := bufio.NewWriterSize(nc, 4096)
	defer bw.Flush() // unbind and error exits still deliver pending responses
	// One reusable encode buffer per connection: responses append into it
	// before entering the write buffer. The connection's goroutine is the
	// only writer, so no locking is needed.
	wbuf := make([]byte, 0, 4096)
	write := func(m *ldap.Message) error {
		wbuf = m.AppendTo(wbuf[:0])
		_, err := bw.Write(wbuf)
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
				return
			}
			s.wire.flushes.Add(1)
		}
		msg, err := rd.ReadMessage()
		if err != nil {
			if errors.Is(err, ber.ErrTooLarge) {
				// Refuse the oversized message with LDAP's unsolicited
				// notice (message ID 0), then drop the connection; nothing
				// was allocated or read for the declared length.
				s.wire.oversizeRejected.Add(1)
				_ = write(&ldap.Message{ID: 0, Op: &ldap.ExtendedResponse{
					Name: ldap.NoticeOfDisconnection,
					Result: ldap.Result{Code: ldap.ResultProtocolError,
						Message: err.Error()}}})
				return
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("ldapserver: %s: read: %v", conn.RemoteAddr, err)
			}
			return
		}
		s.wire.messagesRead.Add(1)
		if _, ok := msg.Op.(*ldap.UnbindRequest); ok {
			return
		}
		resp := s.dispatch(conn, write, msg)
		if resp == nil {
			continue // abandon has no response (and nothing to flush)
		}
		if err := write(resp); err != nil {
			s.logf("ldapserver: %s: write: %v", conn.RemoteAddr, err)
			return
		}
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
