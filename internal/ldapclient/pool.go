package ldapclient

import (
	"metacomm/internal/ldap"
)

// Pool multiplexes LDAP operations over a fixed set of connections to one
// server. A single Conn serializes requests on the wire (c.mu), so
// concurrent callers queue behind each other; the pool lets min(callers,
// size) operations proceed in parallel. MetaComm's own components reach
// their directory in process (ldapserver.DITClient); the benchmark keeps a
// Pool to measure what a checkout costs (ldapclient.pool_wait_us).
//
// Each operation checks a connection out of the free list for its full
// round-trip, so search-entry streams never interleave. Binds are NOT pooled
// state: DialPool binds every connection identically up front (optional), and
// Bind re-binds all connections so later operations run under that identity
// regardless of which connection serves them.
type Pool struct {
	free chan *Conn
	all  []*Conn
}

// DialPool opens size connections to addr. size <= 0 picks 4.
func DialPool(addr string, size int) (*Pool, error) {
	if size <= 0 {
		size = 4
	}
	p := &Pool{free: make(chan *Conn, size)}
	for i := 0; i < size; i++ {
		c, err := Dial(addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.all = append(p.all, c)
		p.free <- c
	}
	return p, nil
}

// Size returns the number of pooled connections.
func (p *Pool) Size() int { return len(p.all) }

// Close closes every connection. In-flight operations finish first (Close
// drains the free list), so callers should stop issuing work before closing.
func (p *Pool) Close() error {
	var first error
	for range p.all {
		c := <-p.free
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (p *Pool) get() *Conn  { return <-p.free }
func (p *Pool) put(c *Conn) { p.free <- c }

// Bind authenticates every pooled connection under the same identity.
func (p *Pool) Bind(name, password string) error {
	// Take all connections so no operation runs half-bound.
	conns := make([]*Conn, 0, len(p.all))
	for range p.all {
		conns = append(conns, p.get())
	}
	defer func() {
		for _, c := range conns {
			p.put(c)
		}
	}()
	for _, c := range conns {
		if err := c.Bind(name, password); err != nil {
			return err
		}
	}
	return nil
}

// Search runs a search on a pooled connection.
func (p *Pool) Search(req *ldap.SearchRequest) ([]*Entry, error) {
	c := p.get()
	defer p.put(c)
	return c.Search(req)
}

// SearchOne returns exactly one entry matching the request, or an error.
func (p *Pool) SearchOne(req *ldap.SearchRequest) (*Entry, error) {
	c := p.get()
	defer p.put(c)
	return c.SearchOne(req)
}

// Add creates an entry.
func (p *Pool) Add(dn string, attrs []ldap.Attribute) error {
	c := p.get()
	defer p.put(c)
	return c.Add(dn, attrs)
}

// Delete removes a leaf entry.
func (p *Pool) Delete(dn string) error {
	c := p.get()
	defer p.put(c)
	return c.Delete(dn)
}

// Modify applies changes to an entry.
func (p *Pool) Modify(dn string, changes []ldap.Change) error {
	c := p.get()
	defer p.put(c)
	return c.Modify(dn, changes)
}

// ModifyDN renames an entry.
func (p *Pool) ModifyDN(dn, newRDN string, deleteOldRDN bool) error {
	c := p.get()
	defer p.put(c)
	return c.ModifyDN(dn, newRDN, deleteOldRDN)
}

// Compare tests an attribute value assertion.
func (p *Pool) Compare(dn, attr, value string) (bool, error) {
	c := p.get()
	defer p.put(c)
	return c.Compare(dn, attr, value)
}

// Extended performs an extended operation.
func (p *Pool) Extended(name string, value []byte) (*ldap.ExtendedResponse, error) {
	c := p.get()
	defer p.put(c)
	return c.Extended(name, value)
}
