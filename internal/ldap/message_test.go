package ldap

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadMessage()
	if err != nil {
		t.Fatalf("decode %T: %v", m.Op, err)
	}
	if got.ID != m.ID {
		t.Errorf("id = %d, want %d", got.ID, m.ID)
	}
	return got
}

func TestBindRoundTrip(t *testing.T) {
	m := roundTrip(t, &Message{ID: 1, Op: &BindRequest{Version: 3, Name: "cn=admin", Password: "secret"}})
	req, ok := m.Op.(*BindRequest)
	if !ok {
		t.Fatalf("op = %T", m.Op)
	}
	if req.Version != 3 || req.Name != "cn=admin" || req.Password != "secret" {
		t.Errorf("bind = %+v", req)
	}
}

func TestUnbindRoundTrip(t *testing.T) {
	m := roundTrip(t, &Message{ID: 2, Op: &UnbindRequest{}})
	if _, ok := m.Op.(*UnbindRequest); !ok {
		t.Fatalf("op = %T", m.Op)
	}
}

func TestSearchRequestRoundTrip(t *testing.T) {
	want := &SearchRequest{
		BaseDN:     "o=Lucent",
		Scope:      ScopeWholeSubtree,
		SizeLimit:  100,
		TimeLimit:  30,
		TypesOnly:  false,
		Filter:     And(Eq("objectClass", "mcPerson"), Present("definityExtension")),
		Attributes: []string{"cn", "telephoneNumber"},
	}
	m := roundTrip(t, &Message{ID: 3, Op: want})
	got := m.Op.(*SearchRequest)
	if got.BaseDN != want.BaseDN || got.Scope != want.Scope ||
		got.SizeLimit != want.SizeLimit || got.TimeLimit != want.TimeLimit {
		t.Errorf("search = %+v", got)
	}
	if got.Filter.String() != want.Filter.String() {
		t.Errorf("filter = %s, want %s", got.Filter, want.Filter)
	}
	if !reflect.DeepEqual(got.Attributes, want.Attributes) {
		t.Errorf("attrs = %v", got.Attributes)
	}
}

func TestAddRequestRoundTrip(t *testing.T) {
	want := &AddRequest{
		DN: "cn=John Doe,o=Marketing,o=Lucent",
		Attributes: []Attribute{
			{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
			{Type: "cn", Values: []string{"John Doe"}},
			{Type: "definityExtension", Values: []string{"5-9000"}},
		},
	}
	m := roundTrip(t, &Message{ID: 4, Op: want})
	got := m.Op.(*AddRequest)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("add = %+v", got)
	}
}

func TestModifyRequestRoundTrip(t *testing.T) {
	want := &ModifyRequest{
		DN: "cn=Pat Smith,o=Lucent",
		Changes: []Change{
			{Op: ModReplace, Attribute: Attribute{Type: "telephoneNumber", Values: []string{"+1 908 582 5000"}}},
			{Op: ModDelete, Attribute: Attribute{Type: "roomNumber"}},
			{Op: ModAdd, Attribute: Attribute{Type: "mail", Values: []string{"pat@lucent.com"}}},
		},
	}
	m := roundTrip(t, &Message{ID: 5, Op: want})
	got := m.Op.(*ModifyRequest)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("modify = %+v", got)
	}
}

func TestDeleteAndModifyDNRoundTrip(t *testing.T) {
	m := roundTrip(t, &Message{ID: 6, Op: &DeleteRequest{DN: "cn=x,o=Lucent"}})
	if got := m.Op.(*DeleteRequest).DN; got != "cn=x,o=Lucent" {
		t.Errorf("del DN = %q", got)
	}

	want := &ModifyDNRequest{DN: "cn=John Doe,o=Lucent", NewRDN: "cn=John Q Doe", DeleteOldRDN: true}
	m = roundTrip(t, &Message{ID: 7, Op: want})
	if got := m.Op.(*ModifyDNRequest); !reflect.DeepEqual(got, want) {
		t.Errorf("modifyDN = %+v", got)
	}

	withSup := &ModifyDNRequest{DN: "cn=a,o=X", NewRDN: "cn=a", DeleteOldRDN: false, NewSuperior: "o=Y"}
	m = roundTrip(t, &Message{ID: 8, Op: withSup})
	if got := m.Op.(*ModifyDNRequest); got.NewSuperior != "o=Y" {
		t.Errorf("newSuperior = %q", got.NewSuperior)
	}
}

func TestCompareAbandonExtendedRoundTrip(t *testing.T) {
	m := roundTrip(t, &Message{ID: 9, Op: &CompareRequest{DN: "cn=x", Attr: "cn", Value: "x"}})
	if got := m.Op.(*CompareRequest); got.Attr != "cn" || got.Value != "x" {
		t.Errorf("compare = %+v", got)
	}

	m = roundTrip(t, &Message{ID: 10, Op: &AbandonRequest{IDToAbandon: 9}})
	if got := m.Op.(*AbandonRequest).IDToAbandon; got != 9 {
		t.Errorf("abandon = %d", got)
	}

	m = roundTrip(t, &Message{ID: 11, Op: &ExtendedRequest{Name: "1.3.6.1.4.1.1751.1", Value: []byte("quiesce")}})
	ext := m.Op.(*ExtendedRequest)
	if ext.Name != "1.3.6.1.4.1.1751.1" || string(ext.Value) != "quiesce" {
		t.Errorf("extended = %+v", ext)
	}
}

func TestResponsesRoundTrip(t *testing.T) {
	res := Result{Code: ResultNoSuchObject, MatchedDN: "o=Lucent", Message: "no such entry"}
	cases := []Op{
		&BindResponse{Result: res},
		&SearchResultDone{Result: res},
		&ModifyResponse{Result: res},
		&AddResponse{Result: res},
		&DeleteResponse{Result: res},
		&ModifyDNResponse{Result: res},
		&CompareResponse{Result: Result{Code: ResultCompareTrue}},
		&ExtendedResponse{Result: res, Name: "1.2.3", Value: []byte("v")},
	}
	for i, op := range cases {
		m := roundTrip(t, &Message{ID: int32(i), Op: op})
		if !reflect.DeepEqual(m.Op, op) {
			t.Errorf("%T round trip = %+v, want %+v", op, m.Op, op)
		}
	}
}

func TestSearchResultEntryRoundTrip(t *testing.T) {
	want := &SearchResultEntry{
		DN: "cn=Jill Lu,o=R&D,o=Lucent",
		Attributes: []Attribute{
			{Type: "cn", Values: []string{"Jill Lu"}},
			{Type: "objectClass", Values: []string{"mcPerson"}},
		},
	}
	m := roundTrip(t, &Message{ID: 12, Op: want})
	if got := m.Op.(*SearchResultEntry); !reflect.DeepEqual(got, want) {
		t.Errorf("entry = %+v", got)
	}
}

func TestResultErr(t *testing.T) {
	if (Result{Code: ResultSuccess}).Err() != nil {
		t.Error("success should have nil Err")
	}
	if (Result{Code: ResultCompareTrue}).Err() != nil {
		t.Error("compareTrue should have nil Err")
	}
	err := (Result{Code: ResultEntryAlreadyExists, Message: "dup"}).Err()
	if err == nil {
		t.Fatal("expected error")
	}
	if !IsCode(err, ResultEntryAlreadyExists) {
		t.Errorf("IsCode failed for %v", err)
	}
	if IsCode(err, ResultBusy) {
		t.Error("IsCode matched wrong code")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{0x02, 0x01, 0x05})).ReadMessage(); err == nil {
		t.Error("non-sequence message accepted")
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	// Arbitrary attribute names/values must survive the wire unchanged.
	f := func(id int32, dn, attr, v1, v2 string) bool {
		if attr == "" {
			attr = "a"
		}
		id &= math.MaxInt32 // message IDs are 0..2^31-1 (RFC 4511)
		msg := &Message{ID: id, Op: &AddRequest{
			DN:         dn,
			Attributes: []Attribute{{Type: attr, Values: []string{v1, v2}}},
		}}
		var buf bytes.Buffer
		if err := msg.Write(&buf); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadMessage()
		if err != nil || got.ID != id {
			return false
		}
		add, ok := got.Op.(*AddRequest)
		if !ok || add.DN != dn {
			return false
		}
		a := add.Attributes[0]
		return a.Type == attr && len(a.Values) == 2 && a.Values[0] == v1 && a.Values[1] == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
