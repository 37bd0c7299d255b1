package ldapserver

import (
	"fmt"
	"sync"
	"testing"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/mcschema"
)

// startServer brings up a schema-validated DIT server on a random port and
// returns a connected client.
func startServer(t testing.TB, rootDN, rootPW string) (*ldapclient.Conn, *directory.DIT) {
	t.Helper()
	d := directory.New(mcschema.New())
	h := NewDITHandler(d)
	h.RootDN, h.RootPassword = rootDN, rootPW
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
	return c, d
}

func seedTree(t testing.TB, c *ldapclient.Conn) {
	t.Helper()
	adds := []struct {
		dn    string
		attrs []ldap.Attribute
	}{
		{"o=Lucent", []ldap.Attribute{{Type: "objectClass", Values: []string{"organization"}}}},
		{"o=Marketing,o=Lucent", []ldap.Attribute{{Type: "objectClass", Values: []string{"organization"}}}},
		{"cn=John Doe,o=Marketing,o=Lucent", []ldap.Attribute{
			{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
			{Type: "sn", Values: []string{"Doe"}},
			{Type: "telephoneNumber", Values: []string{"+1 908 582 9000"}},
			{Type: "definityExtension", Values: []string{"5-9000"}},
		}},
	}
	for _, a := range adds {
		if err := c.Add(a.dn, a.attrs); err != nil {
			t.Fatalf("add %s: %v", a.dn, err)
		}
	}
}

func TestEndToEndAddSearch(t *testing.T) {
	c, _ := startServer(t, "", "")
	seedTree(t, c)

	entries, err := c.Search(&ldap.SearchRequest{
		BaseDN: "o=Lucent",
		Scope:  ldap.ScopeWholeSubtree,
		Filter: ldap.Eq("objectClass", "mcPerson"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.First("telephoneNumber") != "+1 908 582 9000" {
		t.Errorf("telephoneNumber = %q", e.First("telephoneNumber"))
	}
	if e.First("definityExtension") != "5-9000" {
		t.Errorf("definityExtension = %q", e.First("definityExtension"))
	}
}

func TestEndToEndModifyDeleteModifyDN(t *testing.T) {
	c, d := startServer(t, "", "")
	seedTree(t, c)
	name := "cn=John Doe,o=Marketing,o=Lucent"

	if err := c.Modify(name, []ldap.Change{
		{Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"2C-401"}}},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(dn.MustParse(name))
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs.First("roomNumber") != "2C-401" {
		t.Errorf("roomNumber = %q", got.Attrs.First("roomNumber"))
	}

	if err := c.ModifyDN(name, "cn=John Q Doe", true); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(dn.MustParse("cn=John Q Doe,o=Marketing,o=Lucent")); err != nil {
		t.Fatalf("renamed entry missing: %v", err)
	}

	if err := c.Delete("cn=John Q Doe,o=Marketing,o=Lucent"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("cn=John Q Doe,o=Marketing,o=Lucent"); !ldap.IsCode(err, ldap.ResultNoSuchObject) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestCompareOverWire(t *testing.T) {
	c, _ := startServer(t, "", "")
	seedTree(t, c)
	match, err := c.Compare("cn=John Doe,o=Marketing,o=Lucent", "definityExtension", "5-9000")
	if err != nil || !match {
		t.Errorf("compare true: %v %v", match, err)
	}
	match, err = c.Compare("cn=John Doe,o=Marketing,o=Lucent", "definityExtension", "5-9999")
	if err != nil || match {
		t.Errorf("compare false: %v %v", match, err)
	}
}

func TestAuthRequiredForUpdates(t *testing.T) {
	c, _ := startServer(t, "cn=admin,o=Lucent", "secret")
	err := c.Add("o=Lucent", []ldap.Attribute{{Type: "objectClass", Values: []string{"organization"}}})
	if !ldap.IsCode(err, ldap.ResultInsufficientAccess) {
		t.Fatalf("anonymous add err = %v", err)
	}
	if err := c.Bind("cn=admin,o=Lucent", "wrong"); !ldap.IsCode(err, ldap.ResultInvalidCredentials) {
		t.Fatalf("bad bind err = %v", err)
	}
	if err := c.Bind("cn=admin,o=Lucent", "secret"); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("o=Lucent", []ldap.Attribute{{Type: "objectClass", Values: []string{"organization"}}}); err != nil {
		t.Fatal(err)
	}
	// Anonymous search still allowed.
	if _, err := c.Search(&ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeBaseObject}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaViolationsSurfaceOverWire(t *testing.T) {
	c, _ := startServer(t, "", "")
	seedTree(t, c)
	err := c.Add("cn=No SN,o=Marketing,o=Lucent", []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson"}},
	})
	if !ldap.IsCode(err, ldap.ResultObjectClassViolation) {
		t.Errorf("err = %v", err)
	}
}

func TestAttributeSelection(t *testing.T) {
	c, _ := startServer(t, "", "")
	seedTree(t, c)
	e, err := c.SearchOne(&ldap.SearchRequest{
		BaseDN:     "cn=John Doe,o=Marketing,o=Lucent",
		Scope:      ldap.ScopeBaseObject,
		Attributes: []string{"cn", "telephoneNumber"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Attributes) != 2 {
		t.Errorf("attributes = %v", e.Attributes)
	}
	if e.Attr("definityExtension") != nil {
		t.Error("unselected attribute returned")
	}
	// typesOnly returns names without values.
	e, err = c.SearchOne(&ldap.SearchRequest{
		BaseDN:    "cn=John Doe,o=Marketing,o=Lucent",
		Scope:     ldap.ScopeBaseObject,
		TypesOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range e.Attributes {
		if len(a.Values) != 0 {
			t.Errorf("typesOnly returned values for %s", a.Type)
		}
	}
}

func TestInvalidDNSurfacesCleanly(t *testing.T) {
	c, _ := startServer(t, "", "")
	err := c.Add("not-a-dn", []ldap.Attribute{{Type: "objectClass", Values: []string{"organization"}}})
	if !ldap.IsCode(err, ldap.ResultInvalidDNSyntax) {
		t.Errorf("err = %v", err)
	}
	_, err = c.Search(&ldap.SearchRequest{BaseDN: "no-equals-sign", Scope: ldap.ScopeBaseObject})
	if !ldap.IsCode(err, ldap.ResultInvalidDNSyntax) {
		t.Errorf("search err = %v", err)
	}
}

func TestManyClientsConcurrently(t *testing.T) {
	c, _ := startServer(t, "", "")
	seedTree(t, c)
	addr := serverAddrOf(t, c)
	_ = addr

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("cn=Worker %d,o=Marketing,o=Lucent", i)
			if err := c.Add(name, []ldap.Attribute{
				{Type: "objectClass", Values: []string{"mcPerson"}},
				{Type: "sn", Values: []string{"Worker"}},
			}); err != nil {
				errs <- err
				return
			}
			if _, err := c.Search(&ldap.SearchRequest{BaseDN: name, Scope: ldap.ScopeBaseObject}); err != nil {
				errs <- err
				return
			}
			errs <- c.Delete(name)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// serverAddrOf is a placeholder keeping the test structure explicit; the
// shared client already serializes requests internally.
func serverAddrOf(t *testing.T, c *ldapclient.Conn) string { return "" }

func TestUnknownExtendedOp(t *testing.T) {
	c, _ := startServer(t, "", "")
	_, err := c.Extended("9.9.9.9", nil)
	if !ldap.IsCode(err, ldap.ResultProtocolError) {
		t.Errorf("err = %v", err)
	}
}

func TestSizeLimitReturnsPartialResults(t *testing.T) {
	c, _ := startServer(t, "", "")
	seedTree(t, c)
	for i := 0; i < 5; i++ {
		if err := c.Add(fmt.Sprintf("cn=Bulk %d,o=Marketing,o=Lucent", i), []ldap.Attribute{
			{Type: "objectClass", Values: []string{"mcPerson"}},
			{Type: "sn", Values: []string{"Bulk"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := c.Search(&ldap.SearchRequest{
		BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.Eq("objectClass", "mcPerson"), SizeLimit: 3,
	})
	if !ldap.IsCode(err, ldap.ResultSizeLimitExceeded) {
		t.Fatalf("err = %v", err)
	}
	if len(entries) != 3 {
		t.Errorf("partial results = %d, want 3", len(entries))
	}
}
