package ltap

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/ldap"
)

// This file implements the paper's wire between a gateway process and the
// trigger action server: newline-delimited JSON over a persistent TCP
// connection. The original LTAP allowed a single update per action
// connection; MetaComm required persistent connections so a synchronization
// request could flow as an ordered sequence of updates (paper §5.1).
//
// A MetaComm node does not use it: its gateway and Update Manager share a
// process and call each other directly. It remains as the reference the
// benchmark times (ltap.action_rtt_us — what the hop would cost a gateway
// on another host).
//
// The connection is multiplexed: requests are pipelined and replies are
// matched by event ID, so updates to distinct entries overlap end to end
// and the UM's sharded engine sees them concurrently. Per-entry ordering
// does not depend on the wire — LTAP holds the entry lock until the action
// replies, so a second update to the same entry is never in flight at the
// same time as the first.

// ActionServer exposes an Action implementation (in MetaComm, the Update
// Manager) to remote LTAP gateways. Each decoded event is serviced on its
// own goroutine; replies are written back as the actions complete, in
// whatever order they finish.
type ActionServer struct {
	Action Action

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

// NewActionServer wraps an action.
func NewActionServer(a Action) *ActionServer {
	return &ActionServer{Action: a, conns: map[net.Conn]bool{}}
}

// Start listens on addr and serves in the background.
func (s *ActionServer) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				c.Close()
				return
			}
			s.conns[c] = true
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(c)
			}()
		}
	}()
	return l.Addr(), nil
}

// Close stops the server.
func (s *ActionServer) Close() {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *ActionServer) serve(nc net.Conn) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	dec := json.NewDecoder(bufio.NewReader(nc))
	// Replies are buffered; a handler flushes after writing unless another
	// FINISHED handler is already queued on the write mutex (the group-
	// commit discipline: the last writer in the queue flushes for
	// everyone). Replies that complete together — the UM's sharded fan-out
	// finishing a burst — coalesce into one kernel write, while a reply
	// with no one behind it goes out immediately, so a slow in-flight
	// action never delays an already-written reply.
	bw := bufio.NewWriterSize(nc, 4096)
	enc := json.NewEncoder(bw)
	var queued atomic.Int64 // finished handlers at or past the mutex
	var wmu sync.Mutex      // one writer at a time on the shared encoder
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return
		}
		handlers.Add(1)
		go func(ev Event) {
			defer handlers.Done()
			res := s.Action.OnUpdate(ev)
			out := Result{ID: ev.ID, Code: int(res.Code), Message: res.Message}
			queued.Add(1)
			wmu.Lock()
			err := enc.Encode(out)
			if queued.Add(-1) == 0 && err == nil {
				err = bw.Flush()
			}
			wmu.Unlock()
			if err != nil {
				nc.Close() // the reader loop notices and winds down
			}
		}(ev)
	}
}

// RemoteAction implements Action over a persistent, multiplexed connection
// to an ActionServer: many OnUpdate calls may be in flight at once, each
// waiting on its own reply, matched by event ID.
type RemoteAction struct {
	addr string

	mu      sync.Mutex
	nc      net.Conn
	enc     *json.Encoder
	closed  bool
	gen     int // connection generation, guards stale readers
	waiters map[uint64]chan Result
}

var _ Action = (*RemoteAction)(nil)

// DialAction connects to an action server.
func DialAction(addr string) (*RemoteAction, error) {
	r := &RemoteAction{addr: addr, waiters: map[uint64]chan Result{}}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.connectLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

// connectLocked (re)establishes the connection and starts its reader.
func (r *RemoteAction) connectLocked() error {
	nc, err := net.DialTimeout("tcp", r.addr, 5*time.Second)
	if err != nil {
		return err
	}
	r.nc = nc
	r.enc = json.NewEncoder(nc)
	r.gen++
	go r.reader(nc, r.gen)
	return nil
}

// reader drains replies from one connection and routes them to their
// waiters. When the connection dies it fails every outstanding waiter (the
// caller retries once, reconnecting).
func (r *RemoteAction) reader(nc net.Conn, gen int) {
	dec := json.NewDecoder(bufio.NewReader(nc))
	for {
		var res Result
		if err := dec.Decode(&res); err != nil {
			r.mu.Lock()
			if r.gen == gen { // still the current connection
				if r.nc != nil {
					r.nc.Close()
					r.nc = nil
				}
				for id, ch := range r.waiters {
					close(ch)
					delete(r.waiters, id)
				}
			}
			r.mu.Unlock()
			return
		}
		r.mu.Lock()
		ch := r.waiters[res.ID]
		delete(r.waiters, res.ID)
		r.mu.Unlock()
		if ch != nil {
			ch <- res // buffered; a reply no one claims is dropped
		}
	}
}

// Close drops the connection.
func (r *RemoteAction) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for id, ch := range r.waiters {
		close(ch)
		delete(r.waiters, id)
	}
	if r.nc != nil {
		return r.nc.Close()
	}
	return nil
}

// send registers a waiter for ev's reply and ships the event. It returns
// the channel the reader will answer on (closed on connection failure).
func (r *RemoteAction) send(ev Event) (chan Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("ltap: action connection closed")
	}
	if r.nc == nil {
		if err := r.connectLocked(); err != nil {
			return nil, err
		}
	}
	ch := make(chan Result, 1)
	r.waiters[ev.ID] = ch
	if err := r.enc.Encode(ev); err != nil {
		delete(r.waiters, ev.ID)
		r.nc.Close()
		r.nc = nil
		return nil, err
	}
	return ch, nil
}

// OnUpdate implements Action: it ships the event and waits for the matching
// result, while other calls do the same in parallel on the one connection.
// A broken connection is retried once (the persistent connection survives
// UM restarts; lost in-flight updates surface as errors for the client to
// retry or for resynchronization to repair).
func (r *RemoteAction) OnUpdate(ev Event) ldap.Result {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		ch, err := r.send(ev)
		if err != nil {
			lastErr = err
			continue // send reconnects on the next attempt
		}
		if res, ok := <-ch; ok {
			return res.LDAPResult()
		}
		lastErr = fmt.Errorf("connection lost awaiting reply")
	}
	return ldap.Result{Code: ldap.ResultUnavailable,
		Message: fmt.Sprintf("ltap: action server unreachable: %v", lastErr)}
}
