// Package ldapclient is a synchronous LDAP v3 client used by the MetaComm
// components (the LDAP filter, the WBA, command-line tools) and by tests. It
// plays the role the paper assigns to "any tool that can perform LDAP
// updates".
package ldapclient

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"metacomm/internal/ldap"
)

// Entry is one search result.
type Entry struct {
	DN         string
	Attributes []ldap.Attribute
}

// Attr returns the values of the named attribute (case-insensitive), or nil.
func (e *Entry) Attr(name string) []string {
	for _, a := range e.Attributes {
		if equalFold(a.Type, name) {
			return a.Values
		}
	}
	return nil
}

// HasAttr reports whether the entry has at least one value of the named
// attribute.
func (e *Entry) HasAttr(name string) bool { return len(e.Attr(name)) > 0 }

// First returns the first value of the named attribute, or "".
func (e *Entry) First(name string) string {
	if vs := e.Attr(name); len(vs) > 0 {
		return vs[0]
	}
	return ""
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Conn is a client connection. Methods are safe for concurrent use; requests
// are serialized on the wire.
type Conn struct {
	mu sync.Mutex
	nc net.Conn
	// rd owns this connection's read-path storage: a buffered reader (BER
	// headers never hit the conn byte-at-a-time), a reused message buffer
	// and a reused element arena, bounded by SetMaxMessageSize. Decoded
	// responses own their memory; only the wire bytes are borrowed.
	rd     *ldap.Reader
	nextID int32
	closed bool
}

// Dial connects to an LDAP server.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Conn{nc: nc, rd: ldap.NewReader(nc), nextID: 1}, nil
}

// SetMaxMessageSize bounds a single response message (0 restores the
// default, ber.DefaultMaxMessageSize). An oversized response fails the
// in-flight operation before its content is read or allocated; the
// connection should then be discarded.
func (c *Conn) SetMaxMessageSize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rd.SetMaxMessageSize(n)
}

// Close sends an unbind and closes the connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	_ = (&ldap.Message{ID: c.nextID, Op: &ldap.UnbindRequest{}}).Write(c.nc)
	return c.nc.Close()
}

// roundTrip sends a request and reads responses until the final one for this
// message ID. Intermediate search entries are passed to onEntry.
func (c *Conn) roundTrip(op ldap.Op, onEntry func(*ldap.SearchResultEntry)) (ldap.Op, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("ldapclient: connection closed")
	}
	id := c.nextID
	c.nextID = nextMessageID(id)
	if err := (&ldap.Message{ID: id, Op: op}).Write(c.nc); err != nil {
		return nil, err
	}
	for {
		msg, err := c.rd.ReadMessage()
		if err != nil {
			return nil, err
		}
		if msg.ID != id {
			return nil, fmt.Errorf("ldapclient: response id %d for request %d", msg.ID, id)
		}
		if e, ok := msg.Op.(*ldap.SearchResultEntry); ok {
			if onEntry != nil {
				onEntry(e)
			}
			continue
		}
		return msg.Op, nil
	}
}

// Bind performs a simple bind.
func (c *Conn) Bind(name, password string) error {
	op, err := c.roundTrip(&ldap.BindRequest{Version: 3, Name: name, Password: password}, nil)
	if err != nil {
		return err
	}
	resp, ok := op.(*ldap.BindResponse)
	if !ok {
		return fmt.Errorf("ldapclient: unexpected response %T to bind", op)
	}
	return resp.Result.Err()
}

// Search runs a search and collects all result entries. On a non-success
// final result (e.g. sizeLimitExceeded) the entries received so far are
// returned together with the error, matching LDAP's partial-result
// semantics.
func (c *Conn) Search(req *ldap.SearchRequest) ([]*Entry, error) {
	var out []*Entry
	op, err := c.roundTrip(req, func(e *ldap.SearchResultEntry) {
		out = append(out, &Entry{DN: e.DN, Attributes: e.Attributes})
	})
	if err != nil {
		return nil, err
	}
	resp, ok := op.(*ldap.SearchResultDone)
	if !ok {
		return nil, fmt.Errorf("ldapclient: unexpected response %T to search", op)
	}
	return out, resp.Result.Err()
}

// SearchOne returns exactly one entry matching the request, or an error.
func (c *Conn) SearchOne(req *ldap.SearchRequest) (*Entry, error) {
	entries, err := c.Search(req)
	if err != nil {
		return nil, err
	}
	if len(entries) != 1 {
		return nil, fmt.Errorf("ldapclient: got %d entries, want 1", len(entries))
	}
	return entries[0], nil
}

// Add creates an entry.
func (c *Conn) Add(dn string, attrs []ldap.Attribute) error {
	op, err := c.roundTrip(&ldap.AddRequest{DN: dn, Attributes: attrs}, nil)
	if err != nil {
		return err
	}
	resp, ok := op.(*ldap.AddResponse)
	if !ok {
		return fmt.Errorf("ldapclient: unexpected response %T to add", op)
	}
	return resp.Result.Err()
}

// Delete removes a leaf entry.
func (c *Conn) Delete(dn string) error {
	op, err := c.roundTrip(&ldap.DeleteRequest{DN: dn}, nil)
	if err != nil {
		return err
	}
	resp, ok := op.(*ldap.DeleteResponse)
	if !ok {
		return fmt.Errorf("ldapclient: unexpected response %T to delete", op)
	}
	return resp.Result.Err()
}

// Modify applies changes to an entry.
func (c *Conn) Modify(dn string, changes []ldap.Change) error {
	op, err := c.roundTrip(&ldap.ModifyRequest{DN: dn, Changes: changes}, nil)
	if err != nil {
		return err
	}
	resp, ok := op.(*ldap.ModifyResponse)
	if !ok {
		return fmt.Errorf("ldapclient: unexpected response %T to modify", op)
	}
	return resp.Result.Err()
}

// PipelineResult carries the outcome of one pipelined operation: the final
// response op, collected search entries (search requests only), and the
// operation's error (transport or result).
type PipelineResult struct {
	Op      ldap.Op
	Entries []*Entry
	Err     error
}

// Pipeline writes a burst of independent requests in one buffer — a single
// kernel write — then reads the responses back in order. The server
// processes one request per connection at a time and responds in order, so
// pipelining is wire-safe and saves a network round-trip per operation; with
// the server's coalesced flushing, the responses come back in one write
// too. Search requests collect their entry stream into Entries.
//
// The returned slice has one element per op. A transport failure fails every
// remaining slot and poisons the connection for the ops after it.
func (c *Conn) Pipeline(ops []ldap.Op) []PipelineResult {
	out := make([]PipelineResult, len(ops))
	if len(ops) == 0 {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		err := errors.New("ldapclient: connection closed")
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	want := c.nextID
	var buf []byte
	for _, op := range ops {
		m := &ldap.Message{ID: c.nextID, Op: op}
		c.nextID = nextMessageID(c.nextID)
		buf = m.AppendTo(buf)
	}
	if _, err := c.nc.Write(buf); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i := range ops {
		for {
			msg, err := c.rd.ReadMessage()
			if err != nil {
				for j := i; j < len(ops); j++ {
					out[j].Err = err
				}
				return out
			}
			if msg.ID != want {
				err := fmt.Errorf("ldapclient: response id %d for request %d", msg.ID, want)
				for j := i; j < len(ops); j++ {
					out[j].Err = err
				}
				return out
			}
			if e, ok := msg.Op.(*ldap.SearchResultEntry); ok {
				out[i].Entries = append(out[i].Entries, &Entry{DN: e.DN, Attributes: e.Attributes})
				continue
			}
			out[i].Op = msg.Op
			out[i].Err = resultErr(ops[i], msg.Op)
			break
		}
		want = nextMessageID(want)
	}
	return out
}

// nextMessageID returns the message ID to use after id. RFC 4511 bounds IDs
// to 0..2^31-1 and keeps 0 for unsolicited notices, and a server rejects
// anything else, so after 2^31-1 a connection starts over at 1: an ID may be
// reused once its operation has finished.
func nextMessageID(id int32) int32 {
	if id == math.MaxInt32 {
		return 1
	}
	return id + 1
}

// resultErr extracts the op-level error from a final response, checking the
// response type matches the request.
func resultErr(req, resp ldap.Op) error {
	switch req.(type) {
	case *ldap.SearchRequest:
		if r, ok := resp.(*ldap.SearchResultDone); ok {
			return r.Result.Err()
		}
	case *ldap.ModifyRequest:
		if r, ok := resp.(*ldap.ModifyResponse); ok {
			return r.Result.Err()
		}
	case *ldap.AddRequest:
		if r, ok := resp.(*ldap.AddResponse); ok {
			return r.Result.Err()
		}
	case *ldap.DeleteRequest:
		if r, ok := resp.(*ldap.DeleteResponse); ok {
			return r.Result.Err()
		}
	case *ldap.ModifyDNRequest:
		if r, ok := resp.(*ldap.ModifyDNResponse); ok {
			return r.Result.Err()
		}
	case *ldap.CompareRequest:
		if r, ok := resp.(*ldap.CompareResponse); ok {
			switch r.Result.Code {
			case ldap.ResultCompareTrue, ldap.ResultCompareFalse:
				return nil
			}
			return r.Result.Err()
		}
	case *ldap.BindRequest:
		if r, ok := resp.(*ldap.BindResponse); ok {
			return r.Result.Err()
		}
	case *ldap.ExtendedRequest:
		if r, ok := resp.(*ldap.ExtendedResponse); ok {
			return r.Result.Err()
		}
	}
	return fmt.Errorf("ldapclient: unexpected response %T to %T", resp, req)
}

// ModifyDN renames an entry.
func (c *Conn) ModifyDN(dn, newRDN string, deleteOldRDN bool) error {
	op, err := c.roundTrip(&ldap.ModifyDNRequest{DN: dn, NewRDN: newRDN, DeleteOldRDN: deleteOldRDN}, nil)
	if err != nil {
		return err
	}
	resp, ok := op.(*ldap.ModifyDNResponse)
	if !ok {
		return fmt.Errorf("ldapclient: unexpected response %T to modifyDN", op)
	}
	return resp.Result.Err()
}

// Compare tests an attribute value assertion; it returns true on
// compareTrue.
func (c *Conn) Compare(dn, attr, value string) (bool, error) {
	op, err := c.roundTrip(&ldap.CompareRequest{DN: dn, Attr: attr, Value: value}, nil)
	if err != nil {
		return false, err
	}
	resp, ok := op.(*ldap.CompareResponse)
	if !ok {
		return false, fmt.Errorf("ldapclient: unexpected response %T to compare", op)
	}
	switch resp.Result.Code {
	case ldap.ResultCompareTrue:
		return true, nil
	case ldap.ResultCompareFalse:
		return false, nil
	}
	return false, resp.Result.Err()
}

// Extended performs an extended operation.
func (c *Conn) Extended(name string, value []byte) (*ldap.ExtendedResponse, error) {
	op, err := c.roundTrip(&ldap.ExtendedRequest{Name: name, Value: value}, nil)
	if err != nil {
		return nil, err
	}
	resp, ok := op.(*ldap.ExtendedResponse)
	if !ok {
		return nil, fmt.Errorf("ldapclient: unexpected response %T to extended", op)
	}
	return resp, resp.Result.Err()
}
