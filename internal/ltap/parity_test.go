package ltap

import (
	"reflect"
	"testing"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
)

// directoryClient is what the gateway (Backend) and the Update Manager's
// writes (filter.LDAPClient) need from the directory.
type directoryClient interface {
	Backend
	filter.LDAPClient
}

// searchAnswer is everything a client sees of one search.
type searchAnswer struct {
	Result  ldap.Result
	Entries []ldap.SearchResultEntry
}

// TestInProcessClientMatchesWire: a gateway over the in-process directory
// client answers exactly as a gateway over an LDAP connection to a
// DITHandler listener on the same DIT, and the Update Manager's writes fail
// with the same codes and messages on both.
func TestInProcessClientMatchesWire(t *testing.T) {
	d := testDIT(t)
	for _, n := range []string{"Pat Smith", "Jan Roe"} {
		if err := d.Add(dn.MustParse("cn="+n+",o=Lucent"), directory.AttrsFrom(map[string][]string{
			"objectClass": {"mcPerson"}, "sn": {n[4:]}})); err != nil {
			t.Fatal(err)
		}
	}
	srv := ldapserver.NewServer(ldapserver.NewDITHandler(d))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	wire, err := ldapclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wire.Close() })
	local := ldapserver.NewDITClient(d)

	conn := &ldapserver.Conn{}
	search := func(req *ldap.SearchRequest) func(directoryClient) any {
		return func(c directoryClient) any {
			var a searchAnswer
			a.Result = NewGateway(c, &recordingAction{}).Search(conn, req, func(e *ldap.SearchResultEntry) error {
				a.Entries = append(a.Entries, *e)
				return nil
			})
			return a
		}
	}
	compare := func(name, attr, value string) func(directoryClient) any {
		return func(c directoryClient) any {
			return NewGateway(c, &recordingAction{}).Compare(conn, &ldap.CompareRequest{DN: name, Attr: attr, Value: value})
		}
	}
	people := func(req ldap.SearchRequest) *ldap.SearchRequest {
		req.BaseDN, req.Scope, req.Filter = "o=Lucent", ldap.ScopeWholeSubtree, ldap.Eq("objectClass", "mcPerson")
		return &req
	}
	rows := []struct {
		name string
		do   func(directoryClient) any
	}{
		{"search/attributes=cn", search(people(ldap.SearchRequest{Attributes: []string{"cn"}}))},
		{"search/attributes=1.1", search(people(ldap.SearchRequest{Attributes: []string{"1.1"}}))},
		{"search/typesOnly", search(people(ldap.SearchRequest{TypesOnly: true}))},
		// Which entry a truncated search returns is not fixed; how many is.
		{"search/sizeLimit=1", func(c directoryClient) any {
			a := search(people(ldap.SearchRequest{SizeLimit: 1}))(c).(searchAnswer)
			return []any{a.Result, len(a.Entries)}
		}},
		{"search/missing-base", search(&ldap.SearchRequest{BaseDN: "ou=Nowhere,o=Lucent", Scope: ldap.ScopeWholeSubtree})},
		{"search/malformed-dn", search(&ldap.SearchRequest{BaseDN: "not a dn", Scope: ldap.ScopeBaseObject})},
		{"compare/true", compare("cn=John Doe,o=Lucent", "sn", "Doe")},
		{"compare/false", compare("cn=John Doe,o=Lucent", "sn", "Smith")},
		{"compare/missing-entry", compare("cn=Nobody,o=Lucent", "sn", "Doe")},
		{"write/duplicate-add", func(c directoryClient) any {
			return c.Add("cn=John Doe,o=Lucent", []ldap.Attribute{
				{Type: "objectClass", Values: []string{"mcPerson"}}, {Type: "sn", Values: []string{"Doe"}}})
		}},
		{"write/modify-missing", func(c directoryClient) any {
			return c.Modify("cn=Nobody,o=Lucent", replaceReq("", "roomNumber", "1A").Changes)
		}},
		{"write/bad-newRDN", func(c directoryClient) any { return c.ModifyDN("cn=John Doe,o=Lucent", "not an rdn", true) }},
		{"write/delete-non-leaf", func(c directoryClient) any { return c.Delete("o=Lucent") }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			want, got := row.do(wire), row.do(local)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("in process: %+v\nover the wire: %+v", got, want)
			}
		})
	}

	// Entries the in-process client returns own their values.
	entries, err := local.Search(&ldap.SearchRequest{BaseDN: "cn=John Doe,o=Lucent", Scope: ldap.ScopeBaseObject})
	if err != nil || len(entries) != 1 {
		t.Fatalf("search = %v, %v", entries, err)
	}
	for _, a := range entries[0].Attributes {
		a.Values[0] = "mutated"
	}
	e, err := d.Get(dn.MustParse("cn=John Doe,o=Lucent"))
	if err != nil || e.Attrs.First("sn") != "Doe" || e.Attrs.First("telephoneNumber") != "+1 908 582 9000" {
		t.Errorf("DIT after mutating a returned entry = %v, %v", e.Attrs, err)
	}
}
