package ldapclient_test

import (
	"testing"

	"metacomm/internal/ldap"
)

func seedBatchPeople(t *testing.T, c interface {
	Add(string, []ldap.Attribute) error
}, names ...string) {
	t.Helper()
	if err := c.Add("o=Lucent", []ldap.Attribute{
		{Type: "objectClass", Values: []string{"organization"}}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := c.Add("cn="+n+",o=Lucent", []ldap.Attribute{
			{Type: "objectClass", Values: []string{"mcPerson"}},
			{Type: "cn", Values: []string{n}},
			{Type: "sn", Values: []string{n}}}); err != nil {
			t.Fatal(err)
		}
	}
}

func roomOp(dn, room string) ldap.Op {
	return &ldap.ModifyRequest{DN: dn, Changes: []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{room}}}}}
}

// TestModifyBatchPipelined: a burst of modifies is one write and N reads —
// results come back positionally, and a failing op does not poison its
// neighbors.
func TestModifyBatchPipelined(t *testing.T) {
	c := startServer(t)
	seedBatchPeople(t, c, "A", "B")

	results := c.Pipeline([]ldap.Op{
		roomOp("cn=A,o=Lucent", "1A"),
		roomOp("cn=Ghost,o=Lucent", "2B"),
		roomOp("cn=B,o=Lucent", "3C"),
	})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy ops errored: %v / %v", results[0].Err, results[2].Err)
	}
	if !ldap.IsCode(results[1].Err, ldap.ResultNoSuchObject) {
		t.Errorf("results[1].Err = %v, want noSuchObject", results[1].Err)
	}
	for name, want := range map[string]string{"cn=A,o=Lucent": "1A", "cn=B,o=Lucent": "3C"} {
		e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: name, Scope: ldap.ScopeBaseObject})
		if err != nil || e.First("roomNumber") != want {
			t.Errorf("%s room = %v, %v; want %s", name, e, err, want)
		}
	}
	if got := c.Pipeline(nil); len(got) != 0 {
		t.Errorf("empty burst returned %d results", len(got))
	}
	// The connection survives a burst and still serves ordinary requests.
	if _, err := c.SearchOne(&ldap.SearchRequest{BaseDN: "cn=A,o=Lucent", Scope: ldap.ScopeBaseObject}); err != nil {
		t.Errorf("post-burst search: %v", err)
	}
}

func TestModifyBatchAfterClose(t *testing.T) {
	c := startServer(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	results := c.Pipeline([]ldap.Op{roomOp("cn=A,o=Lucent", "1A")})
	if len(results) != 1 || results[0].Err == nil {
		t.Errorf("burst on closed conn = %+v", results)
	}
}
