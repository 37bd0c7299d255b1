package ldapserver

import (
	"testing"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/mcschema"
)

// panicHandler panics on updates and serves reads normally.
type panicHandler struct{ DITHandler }

func (h *panicHandler) Modify(c *Conn, req *ldap.ModifyRequest) ldap.Result {
	panic("handler bug")
}

// TestHandlerPanicBecomesOperationsError: a panicking handler must not kill
// the connection or the server; the client gets operationsError and the
// connection stays usable.
func TestHandlerPanicBecomesOperationsError(t *testing.T) {
	h := &panicHandler{}
	h.DIT = newTestDIT(t)
	srv := NewServer(h)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := ldapclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	err = c.Modify("o=Lucent", []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "o", Values: []string{"x"}}}})
	if !ldap.IsCode(err, ldap.ResultOperationsError) {
		t.Fatalf("err = %v", err)
	}
	// The same connection still serves requests.
	if _, err := c.Search(&ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeBaseObject}); err != nil {
		t.Fatalf("connection dead after panic: %v", err)
	}
}

// newTestDIT builds a DIT with just the suffix entry.
func newTestDIT(t *testing.T) *directory.DIT {
	t.Helper()
	d := directory.New(mcschema.New())
	attrs := directory.NewAttrs()
	attrs.Put("objectClass", "organization")
	if err := d.Add(dn.MustParse("o=Lucent"), attrs); err != nil {
		t.Fatal(err)
	}
	return d
}
