package ldap

import (
	"errors"
	"fmt"
	"strings"

	"metacomm/internal/ber"
)

// FilterKind discriminates the LDAP search-filter CHOICE.
type FilterKind int

// Filter kinds, with values matching the LDAP context tags.
const (
	FilterAnd FilterKind = iota
	FilterOr
	FilterNot
	FilterEquality
	FilterSubstrings
	FilterGreaterOrEqual
	FilterLessOrEqual
	FilterPresent
	FilterApprox
)

// Filter is an LDAP search filter tree.
type Filter struct {
	Kind     FilterKind
	Children []*Filter // and / or / not
	Attr     string
	Value    string
	// Substring components (FilterSubstrings only).
	Initial string
	Any     []string
	Final   string
}

// Convenience constructors used heavily by the system and tests.

// Eq returns an equality filter (attr=value).
func Eq(attr, value string) *Filter {
	return &Filter{Kind: FilterEquality, Attr: attr, Value: value}
}

// Present returns a presence filter (attr=*).
func Present(attr string) *Filter { return &Filter{Kind: FilterPresent, Attr: attr} }

// And combines filters conjunctively.
func And(fs ...*Filter) *Filter { return &Filter{Kind: FilterAnd, Children: fs} }

// Or combines filters disjunctively.
func Or(fs ...*Filter) *Filter { return &Filter{Kind: FilterOr, Children: fs} }

// Not negates a filter.
func Not(f *Filter) *Filter { return &Filter{Kind: FilterNot, Children: []*Filter{f}} }

// String renders the filter in RFC 2254 string form.
func (f *Filter) String() string {
	var b strings.Builder
	f.write(&b)
	return b.String()
}

func (f *Filter) write(b *strings.Builder) {
	b.WriteByte('(')
	switch f.Kind {
	case FilterAnd, FilterOr:
		if f.Kind == FilterAnd {
			b.WriteByte('&')
		} else {
			b.WriteByte('|')
		}
		for _, c := range f.Children {
			c.write(b)
		}
	case FilterNot:
		b.WriteByte('!')
		f.Children[0].write(b)
	case FilterEquality:
		b.WriteString(f.Attr + "=" + escapeFilterValue(f.Value))
	case FilterGreaterOrEqual:
		b.WriteString(f.Attr + ">=" + escapeFilterValue(f.Value))
	case FilterLessOrEqual:
		b.WriteString(f.Attr + "<=" + escapeFilterValue(f.Value))
	case FilterApprox:
		b.WriteString(f.Attr + "~=" + escapeFilterValue(f.Value))
	case FilterPresent:
		b.WriteString(f.Attr + "=*")
	case FilterSubstrings:
		b.WriteString(f.Attr + "=" + escapeFilterValue(f.Initial))
		for _, a := range f.Any {
			b.WriteString("*" + escapeFilterValue(a))
		}
		b.WriteString("*" + escapeFilterValue(f.Final))
	}
	b.WriteByte(')')
}

func escapeFilterValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '*', '(', ')', '\\', 0:
			fmt.Fprintf(&b, "\\%02x", v[i])
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// ParseFilter parses an RFC 2254 filter string such as
// "(&(objectClass=mcPerson)(telephoneNumber=+1 908 582 9*))".
func ParseFilter(s string) (*Filter, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, errors.New("ldap: empty filter")
	}
	if !strings.HasPrefix(s, "(") {
		// Allow the common shorthand without outer parens.
		s = "(" + s + ")"
	}
	f, rest, err := parseFilter(s)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(rest) != "" {
		return nil, fmt.Errorf("ldap: trailing filter text %q", rest)
	}
	return f, nil
}

func parseFilter(s string) (*Filter, string, error) {
	if len(s) == 0 || s[0] != '(' {
		return nil, "", fmt.Errorf("ldap: filter must start with '(' at %q", s)
	}
	s = s[1:]
	if len(s) == 0 {
		return nil, "", errors.New("ldap: unterminated filter")
	}
	switch s[0] {
	case '&', '|':
		kind := FilterAnd
		if s[0] == '|' {
			kind = FilterOr
		}
		s = s[1:]
		var children []*Filter
		for len(s) > 0 && s[0] == '(' {
			c, rest, err := parseFilter(s)
			if err != nil {
				return nil, "", err
			}
			children = append(children, c)
			s = rest
		}
		if len(children) == 0 {
			return nil, "", errors.New("ldap: empty and/or filter")
		}
		if len(s) == 0 || s[0] != ')' {
			return nil, "", errors.New("ldap: missing ')' after and/or")
		}
		return &Filter{Kind: kind, Children: children}, s[1:], nil
	case '!':
		c, rest, err := parseFilter(s[1:])
		if err != nil {
			return nil, "", err
		}
		if len(rest) == 0 || rest[0] != ')' {
			return nil, "", errors.New("ldap: missing ')' after not")
		}
		return Not(c), rest[1:], nil
	}
	// Simple item: attr OP value ')'
	end := strings.IndexByte(s, ')')
	if end < 0 {
		return nil, "", errors.New("ldap: unterminated filter item")
	}
	item, rest := s[:end], s[end+1:]
	f, err := parseSimple(item)
	if err != nil {
		return nil, "", err
	}
	return f, rest, nil
}

func parseSimple(item string) (*Filter, error) {
	var op string
	var opIdx int
	for i := 0; i < len(item); i++ {
		switch item[i] {
		case '>', '<', '~':
			if i+1 < len(item) && item[i+1] == '=' {
				op, opIdx = item[i:i+2], i
			}
		case '=':
			if op == "" {
				op, opIdx = "=", i
			}
		}
		if op != "" {
			break
		}
	}
	if op == "" {
		return nil, fmt.Errorf("ldap: filter item %q has no operator", item)
	}
	attr := strings.TrimSpace(item[:opIdx])
	if attr == "" {
		return nil, fmt.Errorf("ldap: filter item %q has no attribute", item)
	}
	raw := item[opIdx+len(op):]
	switch op {
	case ">=":
		v, err := unescapeFilterValue(raw)
		if err != nil {
			return nil, err
		}
		return &Filter{Kind: FilterGreaterOrEqual, Attr: attr, Value: v}, nil
	case "<=":
		v, err := unescapeFilterValue(raw)
		if err != nil {
			return nil, err
		}
		return &Filter{Kind: FilterLessOrEqual, Attr: attr, Value: v}, nil
	case "~=":
		v, err := unescapeFilterValue(raw)
		if err != nil {
			return nil, err
		}
		return &Filter{Kind: FilterApprox, Attr: attr, Value: v}, nil
	}
	// '=': presence, substring or equality depending on '*' placement.
	if raw == "*" {
		return Present(attr), nil
	}
	if !strings.Contains(raw, "*") {
		v, err := unescapeFilterValue(raw)
		if err != nil {
			return nil, err
		}
		return Eq(attr, v), nil
	}
	parts := strings.Split(raw, "*")
	f := &Filter{Kind: FilterSubstrings, Attr: attr}
	var err error
	if f.Initial, err = unescapeFilterValue(parts[0]); err != nil {
		return nil, err
	}
	if f.Final, err = unescapeFilterValue(parts[len(parts)-1]); err != nil {
		return nil, err
	}
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		v, err := unescapeFilterValue(mid)
		if err != nil {
			return nil, err
		}
		f.Any = append(f.Any, v)
	}
	return f, nil
}

func unescapeFilterValue(s string) (string, error) {
	if !strings.Contains(s, "\\") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", errors.New("ldap: truncated filter escape")
		}
		hi, lo := hexVal(s[i+1]), hexVal(s[i+2])
		if hi == 0xFF || lo == 0xFF {
			return "", fmt.Errorf("ldap: bad filter escape in %q", s)
		}
		b.WriteByte(hi<<4 | lo)
		i += 2
	}
	return b.String(), nil
}

func hexVal(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10
	}
	return 0xFF
}

// Matches evaluates the filter against an entry presented as an attribute
// getter: get must return all values of the (case-insensitive) attribute, or
// nil when absent. Matching is case-insensitive, per the directoryString
// matching rules LDAP directories use for the attributes in this system.
func (f *Filter) Matches(get func(attr string) []string) bool {
	switch f.Kind {
	case FilterAnd:
		for _, c := range f.Children {
			if !c.Matches(get) {
				return false
			}
		}
		return true
	case FilterOr:
		for _, c := range f.Children {
			if c.Matches(get) {
				return true
			}
		}
		return false
	case FilterNot:
		return !f.Children[0].Matches(get)
	case FilterPresent:
		return len(get(f.Attr)) > 0
	case FilterEquality, FilterApprox:
		want := strings.ToLower(f.Value)
		for _, v := range get(f.Attr) {
			if strings.ToLower(v) == want {
				return true
			}
		}
		return false
	case FilterGreaterOrEqual:
		for _, v := range get(f.Attr) {
			if strings.ToLower(v) >= strings.ToLower(f.Value) {
				return true
			}
		}
		return false
	case FilterLessOrEqual:
		for _, v := range get(f.Attr) {
			if strings.ToLower(v) <= strings.ToLower(f.Value) {
				return true
			}
		}
		return false
	case FilterSubstrings:
		for _, v := range get(f.Attr) {
			if f.matchSubstring(strings.ToLower(v)) {
				return true
			}
		}
		return false
	}
	return false
}

func (f *Filter) matchSubstring(v string) bool {
	if ini := strings.ToLower(f.Initial); ini != "" {
		if !strings.HasPrefix(v, ini) {
			return false
		}
		v = v[len(ini):]
	}
	for _, a := range f.Any {
		a = strings.ToLower(a)
		i := strings.Index(v, a)
		if i < 0 {
			return false
		}
		v = v[i+len(a):]
	}
	if fin := strings.ToLower(f.Final); fin != "" {
		return strings.HasSuffix(v, fin)
	}
	return true
}

// appendTo appends the BER encoding of the filter, with LDAP context tags.
func (f *Filter) appendTo(buf []byte) []byte {
	switch f.Kind {
	case FilterAnd, FilterOr, FilterNot:
		buf, mark := ber.BeginConstructed(buf, ber.ClassContext, uint32(f.Kind))
		children := f.Children
		if f.Kind == FilterNot {
			children = children[:1]
		}
		for _, c := range children {
			buf = c.appendTo(buf)
		}
		return ber.EndConstructed(buf, mark)
	case FilterEquality, FilterGreaterOrEqual, FilterLessOrEqual, FilterApprox:
		buf, mark := ber.BeginConstructed(buf, ber.ClassContext, uint32(f.Kind))
		buf = ber.AppendOctetString(buf, f.Attr)
		buf = ber.AppendOctetString(buf, f.Value)
		return ber.EndConstructed(buf, mark)
	case FilterPresent:
		return ber.AppendString(buf, ber.ClassContext, uint32(FilterPresent), f.Attr)
	case FilterSubstrings:
		buf, mark := ber.BeginConstructed(buf, ber.ClassContext, uint32(FilterSubstrings))
		buf = ber.AppendOctetString(buf, f.Attr)
		buf, subs := ber.BeginConstructed(buf, ber.ClassUniversal, ber.TagSequence)
		if f.Initial != "" {
			buf = ber.AppendString(buf, ber.ClassContext, 0, f.Initial)
		}
		for _, a := range f.Any {
			buf = ber.AppendString(buf, ber.ClassContext, 1, a)
		}
		if f.Final != "" {
			buf = ber.AppendString(buf, ber.ClassContext, 2, f.Final)
		}
		buf = ber.EndConstructed(buf, subs)
		return ber.EndConstructed(buf, mark)
	}
	return ber.AppendHeader(buf, ber.ClassContext, uint32(FilterAnd), true, 0)
}

func decodeFilter(e *ber.Element) (*Filter, error) {
	if e.Class != ber.ClassContext {
		return nil, fmt.Errorf("ldap: filter element has class %v", e.Class)
	}
	switch e.Tag {
	case 0, 1: // and / or
		kind := FilterAnd
		if e.Tag == 1 {
			kind = FilterOr
		}
		f := &Filter{Kind: kind}
		if len(e.Children) == 0 {
			return nil, errors.New("ldap: empty and/or filter")
		}
		for _, c := range e.Children {
			cf, err := decodeFilter(c)
			if err != nil {
				return nil, err
			}
			f.Children = append(f.Children, cf)
		}
		return f, nil
	case 2: // not
		c, err := e.Child(0)
		if err != nil {
			return nil, err
		}
		cf, err := decodeFilter(c)
		if err != nil {
			return nil, err
		}
		return Not(cf), nil
	case 3, 5, 6, 8: // equality / ge / le / approx
		kinds := map[uint32]FilterKind{3: FilterEquality, 5: FilterGreaterOrEqual, 6: FilterLessOrEqual, 8: FilterApprox}
		attr, err := e.Child(0)
		if err != nil {
			return nil, err
		}
		val, err := e.Child(1)
		if err != nil {
			return nil, err
		}
		return &Filter{Kind: kinds[e.Tag], Attr: attr.Str(), Value: val.Str()}, nil
	case 7: // present
		return Present(e.Str()), nil
	case 4: // substrings
		attr, err := e.Child(0)
		if err != nil {
			return nil, err
		}
		subs, err := e.Child(1)
		if err != nil {
			return nil, err
		}
		f := &Filter{Kind: FilterSubstrings, Attr: attr.Str()}
		for _, s := range subs.Children {
			switch s.Tag {
			case 0:
				f.Initial = s.Str()
			case 1:
				f.Any = append(f.Any, s.Str())
			case 2:
				f.Final = s.Str()
			default:
				return nil, fmt.Errorf("ldap: bad substring tag %d", s.Tag)
			}
		}
		return f, nil
	}
	return nil, fmt.Errorf("ldap: unknown filter tag %d", e.Tag)
}
