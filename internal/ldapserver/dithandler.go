package ldapserver

import (
	"strings"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
)

// DITHandler serves LDAP operations from an in-memory directory.DIT with the
// simple bind model the paper's prototype used (its "very simple security
// mechanism", §7): an optional root DN/password for updates, anonymous
// reads.
type DITHandler struct {
	DIT *directory.DIT
	// RootDN/RootPassword authorize updates. When RootDN is empty every
	// (even anonymous) connection may update.
	RootDN       string
	RootPassword string
	// ReadOnly rejects every update (replica servers).
	ReadOnly bool
}

// NewDITHandler wraps a DIT.
func NewDITHandler(d *directory.DIT) *DITHandler { return &DITHandler{DIT: d} }

func resultOf(err error) ldap.Result {
	if err == nil {
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	code := directory.CodeOf(err)
	msg := err.Error()
	if de, ok := err.(*directory.Error); ok {
		msg = de.Msg
	}
	return ldap.Result{Code: code, Message: msg}
}

func parseDN(s string) (dn.DN, ldap.Result) {
	d, err := dn.Parse(s)
	if err != nil {
		return nil, ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: err.Error()}
	}
	return d, ldap.Result{Code: ldap.ResultSuccess}
}

// Bind implements simple authentication.
func (h *DITHandler) Bind(c *Conn, req *ldap.BindRequest) ldap.Result {
	if req.Name == "" && req.Password == "" {
		return ldap.Result{Code: ldap.ResultSuccess} // anonymous
	}
	if h.RootDN != "" && strings.EqualFold(req.Name, h.RootDN) && req.Password == h.RootPassword {
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	if h.RootDN == "" {
		// No configured accounts: accept any simple bind (prototype mode).
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	return ldap.Result{Code: ldap.ResultInvalidCredentials}
}

func (h *DITHandler) authorized(c *Conn) bool {
	if h.ReadOnly {
		return false
	}
	if h.RootDN == "" {
		return true
	}
	return strings.EqualFold(c.BoundDN, h.RootDN)
}

func deny() ldap.Result {
	return ldap.Result{Code: ldap.ResultInsufficientAccess, Message: "updates not permitted here"}
}

// Search streams matching entries, applying the request's attribute
// selection and typesOnly flag.
func (h *DITHandler) Search(c *Conn, req *ldap.SearchRequest, send func(*ldap.SearchResultEntry) error) ldap.Result {
	base, res := parseDN(req.BaseDN)
	if res.Code != ldap.ResultSuccess {
		return res
	}
	entries, err := h.DIT.Search(base, req.Scope, req.Filter, req.SizeLimit)
	final := resultOf(err)
	if final.Code != ldap.ResultSuccess && final.Code != ldap.ResultSizeLimitExceeded {
		return final
	}
	for _, e := range entries {
		out := &ldap.SearchResultEntry{DN: e.DN.String()}
		e.Attrs.EachSorted(func(name string, values []string) {
			if !selectAttr(req.Attributes, name) {
				return
			}
			attr := ldap.Attribute{Type: name}
			if !req.TypesOnly {
				attr.Values = append(attr.Values, values...)
			}
			out.Attributes = append(out.Attributes, attr)
		})
		if err := send(out); err != nil {
			return ldap.Result{Code: ldap.ResultOther, Message: err.Error()}
		}
	}
	return final
}

// selectAttr implements the LDAP attribute-selection list: empty or "*"
// selects everything; "1.1" selects nothing.
func selectAttr(requested []string, name string) bool {
	if len(requested) == 0 {
		return true
	}
	for _, r := range requested {
		switch r {
		case "*":
			return true
		case "1.1":
			continue
		default:
			if strings.EqualFold(r, name) {
				return true
			}
		}
	}
	return false
}

// Add creates an entry.
func (h *DITHandler) Add(c *Conn, req *ldap.AddRequest) ldap.Result {
	if !h.authorized(c) {
		return deny()
	}
	name, res := parseDN(req.DN)
	if res.Code != ldap.ResultSuccess {
		return res
	}
	attrs := directory.NewAttrs()
	for _, a := range req.Attributes {
		for _, v := range a.Values {
			attrs.Add(a.Type, v)
		}
	}
	return resultOf(h.DIT.Add(name, attrs))
}

// Delete removes a leaf entry.
func (h *DITHandler) Delete(c *Conn, req *ldap.DeleteRequest) ldap.Result {
	if !h.authorized(c) {
		return deny()
	}
	name, res := parseDN(req.DN)
	if res.Code != ldap.ResultSuccess {
		return res
	}
	return resultOf(h.DIT.Delete(name))
}

// Modify applies changes to one entry.
func (h *DITHandler) Modify(c *Conn, req *ldap.ModifyRequest) ldap.Result {
	if !h.authorized(c) {
		return deny()
	}
	name, res := parseDN(req.DN)
	if res.Code != ldap.ResultSuccess {
		return res
	}
	return resultOf(h.DIT.Modify(name, req.Changes))
}

// ModifyDN renames an entry.
func (h *DITHandler) ModifyDN(c *Conn, req *ldap.ModifyDNRequest) ldap.Result {
	if !h.authorized(c) {
		return deny()
	}
	name, res := parseDN(req.DN)
	if res.Code != ldap.ResultSuccess {
		return res
	}
	if req.NewSuperior != "" {
		return ldap.Result{Code: ldap.ResultUnwillingToPerform, Message: "newSuperior not supported"}
	}
	newDN, err := dn.Parse(req.NewRDN)
	if err != nil || newDN.Depth() != 1 {
		return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: "bad newRDN"}
	}
	return resultOf(h.DIT.ModifyDN(name, newDN.RDN(), req.DeleteOldRDN))
}

// Compare tests an attribute value assertion.
func (h *DITHandler) Compare(c *Conn, req *ldap.CompareRequest) ldap.Result {
	name, res := parseDN(req.DN)
	if res.Code != ldap.ResultSuccess {
		return res
	}
	match, err := h.DIT.Compare(name, req.Attr, req.Value)
	if err != nil {
		return resultOf(err)
	}
	if match {
		return ldap.Result{Code: ldap.ResultCompareTrue}
	}
	return ldap.Result{Code: ldap.ResultCompareFalse}
}

// Extended rejects unknown extensions; the plain directory server has none
// (quiesce lives in LTAP).
func (h *DITHandler) Extended(c *Conn, req *ldap.ExtendedRequest) *ldap.ExtendedResponse {
	return &ldap.ExtendedResponse{Result: ldap.Result{
		Code: ldap.ResultProtocolError, Message: "unsupported extended operation " + req.Name}}
}

// DITClient is the in-process directory client: the LTAP gateway's reads
// (ltap.Backend) and the Update Manager's writes (filter.LDAPClient) call a
// DITHandler directly when the DIT lives in their process. Each method
// makes the same request an ldapclient.Conn would send to that handler
// behind a listener and converts the result the way the Conn does, so
// codes, messages, attribute selection and the partial entries of a
// sizeLimitExceeded search are exactly the wire's; returned entries own
// their values.
type DITClient struct {
	h *DITHandler
	// conn is the anonymous connection every call runs on; a handler with
	// no RootDN lets it update.
	conn Conn
}

// NewDITClient returns an in-process client of d.
func NewDITClient(d *directory.DIT) *DITClient { return &DITClient{h: NewDITHandler(d)} }

// Bind authenticates as the handler would a wire bind.
func (c *DITClient) Bind(name, password string) error {
	return c.h.Bind(&c.conn, &ldap.BindRequest{Version: 3, Name: name, Password: password}).Err()
}

// Search collects the matching entries. On a non-success result (e.g.
// sizeLimitExceeded) the entries found so far come back with the error, as
// ldapclient.Conn.Search returns them.
func (c *DITClient) Search(req *ldap.SearchRequest) ([]*ldapclient.Entry, error) {
	var out []*ldapclient.Entry
	res := c.h.Search(&c.conn, req, func(e *ldap.SearchResultEntry) error {
		// The two types have the same fields; the handler built e afresh.
		out = append(out, (*ldapclient.Entry)(e))
		return nil
	})
	return out, res.Err()
}

// Compare tests an attribute value assertion; it returns true on
// compareTrue.
func (c *DITClient) Compare(dn, attr, value string) (bool, error) {
	res := c.h.Compare(&c.conn, &ldap.CompareRequest{DN: dn, Attr: attr, Value: value})
	switch res.Code {
	case ldap.ResultCompareTrue:
		return true, nil
	case ldap.ResultCompareFalse:
		return false, nil
	}
	return false, res.Err()
}

// Add creates an entry.
func (c *DITClient) Add(dn string, attrs []ldap.Attribute) error {
	return c.h.Add(&c.conn, &ldap.AddRequest{DN: dn, Attributes: attrs}).Err()
}

// Delete removes a leaf entry.
func (c *DITClient) Delete(dn string) error {
	return c.h.Delete(&c.conn, &ldap.DeleteRequest{DN: dn}).Err()
}

// Modify applies changes to an entry.
func (c *DITClient) Modify(dn string, changes []ldap.Change) error {
	return c.h.Modify(&c.conn, &ldap.ModifyRequest{DN: dn, Changes: changes}).Err()
}

// ModifyDN renames an entry.
func (c *DITClient) ModifyDN(dn, newRDN string, deleteOldRDN bool) error {
	return c.h.ModifyDN(&c.conn, &ldap.ModifyDNRequest{DN: dn, NewRDN: newRDN, DeleteOldRDN: deleteOldRDN}).Err()
}
