package ldap

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"metacomm/internal/ber"
)

// diffLengths are the content lengths the differential test gives every
// string and byte value: each side of the one-, two- and three-octet length
// boundaries. Every length from 112 to 127 is there too, so that the
// elements enclosing a value also land on 127 and 128 exactly.
var diffLengths = func() []int {
	ls := []int{0, 127, 128, 255, 256, 65535, 65536}
	for n := 112; n < 127; n++ {
		ls = append(ls, n)
	}
	return ls
}()

// diffIDs are the message IDs the differential test wraps every operation
// in: both ends of the range and each side of the one-octet boundary.
var diffIDs = []int32{0, 127, 128, math.MaxInt32}

// diffFilters returns one filter of every kind, plus nested and degenerate
// shapes, with s as their attribute values.
func diffFilters(s string) []*Filter {
	return []*Filter{
		Eq("cn", s),
		{Kind: FilterGreaterOrEqual, Attr: "ext", Value: s},
		{Kind: FilterLessOrEqual, Attr: s, Value: "9"},
		{Kind: FilterApprox, Attr: "sn", Value: s},
		Present(s),
		{Kind: FilterSubstrings, Attr: "tel", Initial: s, Any: []string{s, "908"}, Final: s},
		{Kind: FilterSubstrings, Attr: s, Any: []string{"x"}},
		And(Eq("a", s), Present("b")),
		Or(Eq("a", "1"), Not(Eq("b", s))),
		Not(And(Or(Present("x"), Eq("y", s)), Not(Present("z")))),
		{Kind: FilterKind(99)}, // no CHOICE: both encoders emit an empty and
	}
}

// diffOps returns every operation type, in each of its optional shapes,
// with s as its string and byte values.
func diffOps(s string) []Op {
	res := Result{Code: ResultUnwillingToPerform, MatchedDN: s, Message: s}
	attrs := []Attribute{
		{Type: "objectClass", Values: []string{"mcPerson", s}},
		{Type: s, Values: []string{""}},
		{Type: "empty"},
	}
	ops := []Op{
		&BindRequest{Version: 3, Name: s, Password: s},
		&UnbindRequest{},
		&SearchRequest{BaseDN: s, Scope: ScopeSingleLevel, Attributes: []string{s, "cn"}},
		&AddRequest{DN: s, Attributes: attrs},
		&AddRequest{DN: s},
		&DeleteRequest{DN: s},
		&ModifyRequest{DN: s, Changes: []Change{
			{Op: ModReplace, Attribute: attrs[0]},
			{Op: ModDelete, Attribute: Attribute{Type: s}},
			{Op: ModAdd, Attribute: attrs[1]},
		}},
		&ModifyRequest{DN: s},
		&ModifyDNRequest{DN: s, NewRDN: s, DeleteOldRDN: true},
		&ModifyDNRequest{DN: s, NewRDN: "cn=x", NewSuperior: s},
		&CompareRequest{DN: s, Attr: "cn", Value: s},
		&AbandonRequest{IDToAbandon: int32(len(s))},
		&AbandonRequest{IDToAbandon: math.MaxInt32},
		&ExtendedRequest{Name: "1.3.6.1.4.1.1751.1" + s, Value: []byte(s)},
		&ExtendedRequest{Name: "1.2.3"},
		&BindResponse{Result: res},
		&SearchResultEntry{DN: s, Attributes: attrs},
		&SearchResultEntry{DN: s},
		&SearchResultDone{Result: res},
		&ModifyResponse{Result: res},
		&AddResponse{Result: res},
		&DeleteResponse{Result: res},
		&ModifyDNResponse{Result: res},
		&CompareResponse{Result: Result{Code: ResultCompareTrue}},
		&ExtendedResponse{Result: res, Name: s, Value: []byte(s)},
		&ExtendedResponse{Result: res},
	}
	for i, f := range diffFilters(s) {
		ops = append(ops, &SearchRequest{
			BaseDN: "o=Lucent", Scope: ScopeWholeSubtree, DerefAliases: 3,
			SizeLimit: len(s), TimeLimit: -i, TypesOnly: i%2 == 0,
			Filter: f, Attributes: []string{s},
		})
	}
	return ops
}

// TestEncodeDifferential checks the one-pass encoder against the reference
// tree builders (encode_ref_test.go) byte for byte: every operation type and
// filter kind, values of every boundary length, message IDs at both ends of
// their range, appended both to an empty buffer and after earlier bytes.
func TestEncodeDifferential(t *testing.T) {
	types := map[string]bool{}
	kinds := map[FilterKind]bool{}
	prefix := []byte("earlier bytes")
	for _, n := range diffLengths {
		s := strings.Repeat("v", n)
		for _, op := range diffOps(s) {
			types[fmt.Sprintf("%T", op)] = true
			if sr, ok := op.(*SearchRequest); ok && sr.Filter != nil {
				collectKinds(sr.Filter, kinds)
			}
			for _, id := range diffIDs {
				m := &Message{ID: id, Op: op}
				want := encodeMessageRef(m)
				if got := m.AppendTo(nil); !bytes.Equal(got, want) {
					t.Fatalf("%T, value length %d, id %d:\n got %x\nwant %x", op, n, id, head(got), head(want))
				}
				got := m.AppendTo(append([]byte(nil), prefix...))
				if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("%T, value length %d, id %d: appending after earlier bytes differs", op, n, id)
				}
			}
		}
	}
	if len(types) != 19 {
		t.Errorf("covered %d operation types, want all 19: %v", len(types), types)
	}
	for k := FilterAnd; k <= FilterApprox; k++ {
		if !kinds[k] {
			t.Errorf("filter kind %d not covered", k)
		}
	}
}

func collectKinds(f *Filter, kinds map[FilterKind]bool) {
	kinds[f.Kind] = true
	for _, c := range f.Children {
		collectKinds(c, kinds)
	}
}

// head shortens b for a failure message.
func head(b []byte) []byte {
	if len(b) > 64 {
		return b[:64]
	}
	return b
}

// personEntry is a person as the read_mostly workload reads it back: the
// attributes MetaComm leaves after an LDAP add with a Definity extension.
func personEntry() *SearchResultEntry {
	attr := func(typ string, values ...string) Attribute { return Attribute{Type: typ, Values: values} }
	return &SearchResultEntry{DN: "cn=Person 000007,o=Lucent", Attributes: []Attribute{
		attr("cn", "Person 000007"),
		attr("definityExtension", "3-0000007"),
		attr("definityName", "Person 000007"),
		attr("lastUpdater", "ldap"),
		attr("mailboxId", "mb-000007"),
		attr("mailboxNumber", "0000007"),
		attr("messagingName", "Person 000007"),
		attr("objectClass", "mcPerson", "definityUser", "messagingUser"),
		attr("roomNumber", "R0"),
		attr("sn", "000007"),
		attr("telephoneNumber", "+1 908 583 0000007"),
	}}
}

// TestMessageAppendToAllocs is the encoder's allocation budget: into a
// buffer with room, a search result entry and the two responses the server
// sends most allocate nothing (the element-tree encoder took 108, 10 and
// 10).
func TestMessageAppendToAllocs(t *testing.T) {
	ok := Result{Code: ResultSuccess}
	buf := make([]byte, 0, 4096)
	for _, op := range []Op{personEntry(), &SearchResultDone{Result: ok}, &ModifyResponse{Result: ok}} {
		m := &Message{ID: 4242, Op: op}
		if got := testing.AllocsPerRun(100, func() { buf = m.AppendTo(buf[:0]) }); got != 0 {
			t.Errorf("%T: %.0f allocations per AppendTo, want 0", op, got)
		}
	}
}

// TestDecodeMessageIDRange checks that message IDs outside RFC 4511's
// 0..2^31-1 are rejected, not wrapped into range, both the envelope's and
// an abandon request's.
func TestDecodeMessageIDRange(t *testing.T) {
	unbind := ber.ApplicationPrimitive(tagUnbindRequest, nil)
	cases := []struct {
		name string
		id   int64
		op   *ber.Element
		ok   bool
	}{
		{"zero", 0, unbind, true},
		{"max", math.MaxInt32, unbind, true},
		{"2^31", math.MaxInt32 + 1, unbind, false},
		{"2^32+1", 1<<32 + 1, unbind, false},
		{"-5", -5, unbind, false},
		{"-2^31", math.MinInt32, unbind, false},
		{"abandon max", 1, ber.Tagged(ber.ClassApplication, tagAbandonRequest, ber.NewInteger(math.MaxInt32)), true},
		{"abandon 2^32+1", 1, ber.Tagged(ber.ClassApplication, tagAbandonRequest, ber.NewInteger(1<<32+1)), false},
		{"abandon -1", 1, ber.Tagged(ber.ClassApplication, tagAbandonRequest, ber.NewInteger(-1)), false},
	}
	for _, c := range cases {
		m, err := DecodeMessage(ber.NewSequence(ber.NewInteger(c.id), c.op))
		if !c.ok {
			if err == nil {
				t.Errorf("%s: decoded as id %d, op %+v; want an error", c.name, m.ID, m.Op)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if int64(m.ID) != c.id {
			t.Errorf("%s: id = %d, want %d", c.name, m.ID, c.id)
		}
	}
}

// TestReadMessageMalformed checks that Reader.ReadMessage marks a complete
// element that is not an LDAPMessage with ErrMalformed, and an input that
// ends early without it.
func TestReadMessageMalformed(t *testing.T) {
	bad := ber.NewSequence(ber.NewInteger(-5), ber.ApplicationPrimitive(tagUnbindRequest, nil)).Encode()
	if _, err := NewReader(bytes.NewReader(bad)).ReadMessage(); !errors.Is(err, ErrMalformed) {
		t.Errorf("message id -5: error %v, want one wrapping ErrMalformed", err)
	}
	if _, err := NewReader(bytes.NewReader(bad[:len(bad)-1])).ReadMessage(); err == nil || errors.Is(err, ErrMalformed) {
		t.Errorf("truncated message: error %v, want a read error not wrapping ErrMalformed", err)
	}
}

// FuzzMessageEncode checks that any message DecodeMessage accepts encodes
// to the same bytes through the one-pass encoder and the reference, and
// that those bytes decode back to an equal message.
func FuzzMessageEncode(f *testing.F) {
	for _, n := range diffLengths {
		if n > 256 {
			continue // the 64 KiB values only slow the fuzzer down
		}
		for _, op := range diffOps(strings.Repeat("v", n)) {
			f.Add(encodeMessageRef(&Message{ID: 128, Op: op}))
		}
	}
	corpus, err := filepath.Glob("../ber/testdata/fuzz/FuzzDecode/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		f.Add(readCorpusBytes(f, path))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ber.DecodeFull(data)
		if err != nil {
			return
		}
		m, err := DecodeMessage(e)
		if err != nil {
			return
		}
		got, want := m.AppendTo(nil), encodeMessageRef(m)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoders differ for %T:\n got %x\nwant %x", m.Op, got, want)
		}
		e2, err := ber.DecodeFull(got)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", got, err)
		}
		m2, err := DecodeMessage(e2)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", got, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the message:\n got %#v\nwant %#v", m2.Op, m.Op)
		}
	})
}

// readCorpusBytes reads one []byte value from a file in the go test fuzz v1
// corpus format.
func readCorpusBytes(f *testing.F, path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		f.Fatalf("%s: not a go test fuzz v1 file", path)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
