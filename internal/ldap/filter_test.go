package ldap

import (
	"testing"
	"testing/quick"

	"metacomm/internal/ber"
)

func entryGetter(attrs map[string][]string) func(string) []string {
	lower := make(map[string][]string, len(attrs))
	for k, v := range attrs {
		lower[lowerASCII(k)] = v
	}
	return func(a string) []string { return lower[lowerASCII(a)] }
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

var johnDoe = entryGetter(map[string][]string{
	"objectClass":       {"mcPerson", "definityUser"},
	"cn":                {"John Doe"},
	"telephoneNumber":   {"+1 908 582 9000"},
	"definityExtension": {"5-9000"},
})

func TestParseAndMatchEquality(t *testing.T) {
	f, err := ParseFilter("(cn=john doe)")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Matches(johnDoe) {
		t.Error("case-insensitive equality failed")
	}
	f2, _ := ParseFilter("(cn=jane doe)")
	if f2.Matches(johnDoe) {
		t.Error("wrong value matched")
	}
}

func TestParseComposite(t *testing.T) {
	f, err := ParseFilter("(&(objectClass=mcPerson)(|(cn=John Doe)(cn=Pat Smith))(!(cn=Tim Dickens)))")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Matches(johnDoe) {
		t.Error("composite filter should match")
	}
}

func TestPresence(t *testing.T) {
	f, _ := ParseFilter("(definityExtension=*)")
	if !f.Matches(johnDoe) {
		t.Error("presence failed")
	}
	f2, _ := ParseFilter("(mailboxId=*)")
	if f2.Matches(johnDoe) {
		t.Error("absent attribute reported present")
	}
}

func TestSubstrings(t *testing.T) {
	cases := map[string]bool{
		"(telephoneNumber=+1 908 582 9*)": true, // the paper's partition pattern
		"(telephoneNumber=*9000)":         true,
		"(telephoneNumber=*908*582*)":     true,
		"(telephoneNumber=+1 908 583*)":   false,
		"(cn=J*n*oe)":                     true,
		"(cn=J*z*oe)":                     false,
	}
	for s, want := range cases {
		f, err := ParseFilter(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if got := f.Matches(johnDoe); got != want {
			t.Errorf("%s matched=%v, want %v", s, got, want)
		}
	}
}

func TestOrdering(t *testing.T) {
	ext := entryGetter(map[string][]string{"ext": {"5000"}})
	ge, _ := ParseFilter("(ext>=4000)")
	le, _ := ParseFilter("(ext<=6000)")
	if !ge.Matches(ext) || !le.Matches(ext) {
		t.Error("ordering comparisons failed")
	}
	ge2, _ := ParseFilter("(ext>=6000)")
	if ge2.Matches(ext) {
		t.Error(">= matched smaller value")
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	inputs := []string{
		"(cn=John Doe)",
		"(&(a=1)(b=2))",
		"(|(a=1)(!(b=2)))",
		"(telephoneNumber=+1 908 582 9*)",
		"(cn=*)",
		"(cn=a*b*c)",
		"(ext>=100)",
		"(ext<=100)",
		"(cn~=jon)",
	}
	for _, in := range inputs {
		f, err := ParseFilter(in)
		if err != nil {
			t.Fatalf("parse %q: %v", in, err)
		}
		rt, err := ParseFilter(f.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", f.String(), err)
		}
		if rt.String() != f.String() {
			t.Errorf("%q -> %q -> %q", in, f.String(), rt.String())
		}
	}
}

func TestFilterEscapes(t *testing.T) {
	f := Eq("cn", "weird(name)*\\")
	rt, err := ParseFilter(f.String())
	if err != nil {
		t.Fatalf("reparse escaped: %v", err)
	}
	if rt.Value != "weird(name)*\\" {
		t.Errorf("value = %q", rt.Value)
	}
	getter := entryGetter(map[string][]string{"cn": {"weird(name)*\\"}})
	if !rt.Matches(getter) {
		t.Error("escaped value did not match")
	}
}

func TestFilterBERRoundTrip(t *testing.T) {
	filters := []*Filter{
		Eq("cn", "John Doe"),
		Present("objectClass"),
		And(Eq("a", "1"), Or(Eq("b", "2"), Not(Eq("c", "3")))),
		{Kind: FilterSubstrings, Attr: "tel", Initial: "+1", Any: []string{"908"}, Final: "9000"},
		{Kind: FilterGreaterOrEqual, Attr: "ext", Value: "100"},
	}
	for _, f := range filters {
		el, err := ber.DecodeFull(f.appendTo(nil))
		if err != nil {
			t.Fatalf("BER decode %s: %v", f, err)
		}
		dec, err := decodeFilter(el)
		if err != nil {
			t.Fatalf("decode %s: %v", f, err)
		}
		if dec.String() != f.String() {
			t.Errorf("BER round trip %s -> %s", f, dec)
		}
	}
}

func TestParseFilterErrors(t *testing.T) {
	bad := []string{
		"", "(", "()", "(&)", "(cn)", "(cn=a", "(cn=a)(x=y)", "(!(a=1)",
	}
	for _, s := range bad {
		if _, err := ParseFilter(s); err == nil {
			t.Errorf("ParseFilter(%q) succeeded", s)
		}
	}
}

func TestParseFilterShorthandWithoutParens(t *testing.T) {
	f, err := ParseFilter("cn=John Doe")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Matches(johnDoe) {
		t.Error("shorthand filter failed")
	}
}

func TestFilterPropertyEqualityAlwaysMatchesOwnEntry(t *testing.T) {
	f := func(attr, val string) bool {
		attr = "a" + sanitizeAttr(attr)
		if val == "" {
			return true
		}
		flt := Eq(attr, val)
		getter := entryGetter(map[string][]string{attr: {val}})
		return flt.Matches(getter)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitizeAttr(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			out = append(out, c)
		}
	}
	return string(out)
}
