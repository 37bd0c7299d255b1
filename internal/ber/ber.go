// Package ber implements the subset of ASN.1 Basic Encoding Rules used by
// the LDAP v3 protocol (RFC 2251/4511): definite-length encodings of
// BOOLEAN, INTEGER, ENUMERATED, OCTET STRING, NULL, SEQUENCE and SET, plus
// application- and context-specific tagged forms.
//
// Decoding yields an Element tree (Decode, or the zero-copy Reader and
// Decoder) and is strict: truncated or over-long inputs return errors rather
// than partial values, which matters for a network-facing directory server.
// Encoding is deterministic (definite minimal lengths, minimal-length
// integers) and comes in two forms with identical output: Element.AppendTo
// re-encodes a tree, and the Append* functions with BeginConstructed /
// EndConstructed let a caller append each element straight from its own
// values, with no tree in between (the LDAP message encoder).
package ber

import (
	"errors"
	"fmt"
)

// Class is the ASN.1 tag class of an element.
type Class uint8

// Tag classes.
const (
	ClassUniversal   Class = 0x00
	ClassApplication Class = 0x40
	ClassContext     Class = 0x80
	ClassPrivate     Class = 0xC0
)

func (c Class) String() string {
	switch c {
	case ClassUniversal:
		return "universal"
	case ClassApplication:
		return "application"
	case ClassContext:
		return "context"
	case ClassPrivate:
		return "private"
	}
	return fmt.Sprintf("class(%#x)", uint8(c))
}

// Universal tag numbers used by LDAP.
const (
	TagBoolean     = 0x01
	TagInteger     = 0x02
	TagOctetString = 0x04
	TagNull        = 0x05
	TagEnumerated  = 0x0A
	TagSequence    = 0x10
	TagSet         = 0x11
)

// Limits protecting the decoder from hostile input.
const (
	// MaxElementSize bounds the content length of a single element.
	MaxElementSize = 16 << 20
	// maxDepth bounds the nesting of constructed elements.
	maxDepth = 64
)

// Element is a decoded or to-be-encoded BER value. Constructed elements
// carry Children; primitive elements carry Value.
type Element struct {
	Class       Class
	Tag         uint32
	Constructed bool
	Value       []byte
	Children    []*Element
}

// ErrTruncated reports that the input ended before a complete element.
var ErrTruncated = errors.New("ber: truncated element")

// NewSequence returns an empty universal SEQUENCE.
func NewSequence(children ...*Element) *Element {
	return &Element{Class: ClassUniversal, Tag: TagSequence, Constructed: true, Children: children}
}

// NewSet returns an empty universal SET.
func NewSet(children ...*Element) *Element {
	return &Element{Class: ClassUniversal, Tag: TagSet, Constructed: true, Children: children}
}

// NewOctetString returns a universal OCTET STRING holding s.
func NewOctetString(s string) *Element {
	return &Element{Class: ClassUniversal, Tag: TagOctetString, Value: []byte(s)}
}

// NewBytes returns a universal OCTET STRING holding b.
func NewBytes(b []byte) *Element {
	return &Element{Class: ClassUniversal, Tag: TagOctetString, Value: b}
}

// NewInteger returns a universal INTEGER holding v.
func NewInteger(v int64) *Element {
	return &Element{Class: ClassUniversal, Tag: TagInteger, Value: encodeInt(v)}
}

// NewEnumerated returns a universal ENUMERATED holding v.
func NewEnumerated(v int64) *Element {
	return &Element{Class: ClassUniversal, Tag: TagEnumerated, Value: encodeInt(v)}
}

// NewBoolean returns a universal BOOLEAN holding v.
func NewBoolean(v bool) *Element {
	b := byte(0x00)
	if v {
		b = 0xFF
	}
	return &Element{Class: ClassUniversal, Tag: TagBoolean, Value: []byte{b}}
}

// NewNull returns a universal NULL.
func NewNull() *Element {
	return &Element{Class: ClassUniversal, Tag: TagNull}
}

// Tagged re-tags e with the given class and tag, keeping its content. It
// returns a copy; e is not modified. This implements ASN.1 IMPLICIT tagging
// as used throughout LDAP.
func Tagged(class Class, tag uint32, e *Element) *Element {
	return &Element{Class: class, Tag: tag, Constructed: e.Constructed, Value: e.Value, Children: e.Children}
}

// ContextPrimitive returns a context-specific primitive element with raw
// content b.
func ContextPrimitive(tag uint32, b []byte) *Element {
	return &Element{Class: ClassContext, Tag: tag, Value: b}
}

// ContextConstructed returns a context-specific constructed element.
func ContextConstructed(tag uint32, children ...*Element) *Element {
	return &Element{Class: ClassContext, Tag: tag, Constructed: true, Children: children}
}

// ApplicationPrimitive returns an application-class primitive element.
func ApplicationPrimitive(tag uint32, b []byte) *Element {
	return &Element{Class: ClassApplication, Tag: tag, Value: b}
}

// ApplicationConstructed returns an application-class constructed element.
func ApplicationConstructed(tag uint32, children ...*Element) *Element {
	return &Element{Class: ClassApplication, Tag: tag, Constructed: true, Children: children}
}

// Append adds children to a constructed element and returns e for chaining.
func (e *Element) Append(children ...*Element) *Element {
	e.Children = append(e.Children, children...)
	return e
}

// Str returns the element content interpreted as a string.
func (e *Element) Str() string { return string(e.Value) }

// Bool returns the element content interpreted as a BOOLEAN.
func (e *Element) Bool() (bool, error) {
	if e.Constructed || len(e.Value) != 1 {
		return false, fmt.Errorf("ber: invalid boolean encoding (len %d)", len(e.Value))
	}
	return e.Value[0] != 0, nil
}

// Int returns the element content interpreted as a two's-complement INTEGER
// or ENUMERATED.
func (e *Element) Int() (int64, error) {
	if e.Constructed {
		return 0, errors.New("ber: integer must be primitive")
	}
	n := len(e.Value)
	if n == 0 {
		return 0, errors.New("ber: empty integer")
	}
	if n > 8 {
		return 0, fmt.Errorf("ber: integer too large (%d bytes)", n)
	}
	v := int64(0)
	if e.Value[0]&0x80 != 0 {
		v = -1 // sign-extend
	}
	for _, b := range e.Value {
		v = v<<8 | int64(b)
	}
	return v, nil
}

// Is reports whether e has the given class and tag.
func (e *Element) Is(class Class, tag uint32) bool {
	return e.Class == class && e.Tag == tag
}

// Child returns the i-th child, or an error when absent. It exists so
// message decoders read as straight-line code with checked access.
func (e *Element) Child(i int) (*Element, error) {
	if i < 0 || i >= len(e.Children) {
		return nil, fmt.Errorf("ber: missing child %d (have %d)", i, len(e.Children))
	}
	return e.Children[i], nil
}

// intLen returns the length of v's minimal two's-complement encoding.
func intLen(v int64) int {
	n := 1
	for ; n < 8; n++ {
		if v>>(uint(n)*8-1) == 0 || v>>(uint(n)*8-1) == -1 {
			break
		}
	}
	return n
}

func encodeInt(v int64) []byte {
	return appendIntContent(make([]byte, 0, 8), v)
}

func appendIntContent(buf []byte, v int64) []byte {
	for i := intLen(v) - 1; i >= 0; i-- {
		buf = append(buf, byte(v>>(uint(i)*8)))
	}
	return buf
}

// Every encoder here writes minimal-length definite BER: a length below
// 0x80 is one octet, a longer one is 0x80|k followed by k big-endian
// octets, k as small as possible. Element trees encode in two passes, a
// length pass (EncodedLen) then an append pass (AppendTo); callers that hold
// their data in Go values skip the tree and append each element straight
// from its fields with the Append* functions and BeginConstructed /
// EndConstructed, which back-patch a constructed element's length once its
// content is written. Both produce the same bytes for the same value.

func appendLength(buf []byte, n int) []byte {
	if n < 0x80 {
		return append(buf, byte(n))
	}
	var tmp [8]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte(n)
		n >>= 8
	}
	buf = append(buf, 0x80|byte(len(tmp)-i))
	return append(buf, tmp[i:]...)
}

func lengthLen(n int) int {
	if n < 0x80 {
		return 1
	}
	l := 1
	for n > 0 {
		l++
		n >>= 8
	}
	return l
}

func appendIdentifier(buf []byte, class Class, tag uint32, constructed bool) []byte {
	b := byte(class)
	if constructed {
		b |= 0x20
	}
	if tag < 31 {
		return append(buf, b|byte(tag))
	}
	// High-tag-number form.
	buf = append(buf, b|0x1F)
	var tmp [5]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte(tag & 0x7F)
		tag >>= 7
		if tag == 0 {
			break
		}
	}
	for j := i; j < len(tmp)-1; j++ {
		tmp[j] |= 0x80
	}
	return append(buf, tmp[i:]...)
}

func identifierLen(tag uint32) int {
	if tag < 31 {
		return 1
	}
	l := 1
	for tag > 0 {
		l++
		tag >>= 7
	}
	return l
}

// AppendHeader appends the identifier and the definite length n of an
// element whose n content octets the caller appends next.
func AppendHeader(buf []byte, class Class, tag uint32, constructed bool, n int) []byte {
	return appendLength(appendIdentifier(buf, class, tag, constructed), n)
}

// AppendString appends a primitive element of the given class and tag
// whose content is the bytes of s: an OCTET STRING, or an IMPLICIT-tagged
// one such as an LDAP DN or filter attribute.
func AppendString(buf []byte, class Class, tag uint32, s string) []byte {
	return append(AppendHeader(buf, class, tag, false, len(s)), s...)
}

// AppendOctetString appends a universal OCTET STRING holding s.
func AppendOctetString(buf []byte, s string) []byte {
	return AppendString(buf, ClassUniversal, TagOctetString, s)
}

// AppendInt appends a primitive element of the given class and tag holding
// v as a minimal two's-complement integer: a universal INTEGER or
// ENUMERATED, or an IMPLICIT-tagged one.
func AppendInt(buf []byte, class Class, tag uint32, v int64) []byte {
	return appendIntContent(AppendHeader(buf, class, tag, false, intLen(v)), v)
}

// AppendBoolean appends a universal BOOLEAN holding v (0xFF for true).
func AppendBoolean(buf []byte, v bool) []byte {
	b := byte(0x00)
	if v {
		b = 0xFF
	}
	return append(buf, TagBoolean, 1, b)
}

// BeginConstructed appends the identifier of a constructed element and
// reserves one octet for its length. The caller appends the content and
// then calls EndConstructed with the returned mark.
func BeginConstructed(buf []byte, class Class, tag uint32) ([]byte, int) {
	buf = appendIdentifier(buf, class, tag, true)
	mark := len(buf)
	return append(buf, 0), mark
}

// EndConstructed writes the length of the constructed element begun at mark
// (everything appended since). A length of 0x80 or more needs more than the
// reserved octet, so the content moves up by the difference: one copy per
// long element, and none for the short elements that dominate LDAP.
func EndConstructed(buf []byte, mark int) []byte {
	n := len(buf) - mark - 1
	if n < 0x80 {
		buf[mark] = byte(n)
		return buf
	}
	extra := lengthLen(n) - 1
	var pad [8]byte
	buf = append(buf, pad[:extra]...)
	copy(buf[mark+1+extra:], buf[mark+1:len(buf)-extra])
	appendLength(buf[:mark], n) // overwrites the reserved octet and the gap
	return buf
}

// contentLen returns the length of e's content octets.
func (e *Element) contentLen() int {
	if !e.Constructed {
		return len(e.Value)
	}
	n := 0
	for _, c := range e.Children {
		n += c.EncodedLen()
	}
	return n
}

// EncodedLen returns the number of bytes Encode produces for e.
func (e *Element) EncodedLen() int {
	c := e.contentLen()
	return identifierLen(e.Tag) + lengthLen(c) + c
}

// AppendTo appends the complete BER encoding of e to buf and returns the
// extended buffer. It re-encodes decoded trees (the tests' fixed points, the
// benchmark's BER layer); LDAP messages encode from their fields instead.
func (e *Element) AppendTo(buf []byte) []byte {
	buf = appendIdentifier(buf, e.Class, e.Tag, e.Constructed)
	buf = appendLength(buf, e.contentLen())
	if !e.Constructed {
		return append(buf, e.Value...)
	}
	for _, c := range e.Children {
		buf = c.AppendTo(buf)
	}
	return buf
}

// Encode returns the complete BER encoding of e.
func (e *Element) Encode() []byte {
	return e.AppendTo(make([]byte, 0, e.EncodedLen()))
}

// Decode parses a single element from the front of b, returning the element
// and the number of bytes consumed.
func Decode(b []byte) (*Element, int, error) {
	return decode(b, 0)
}

// DecodeFull parses b as exactly one element with no trailing bytes.
func DecodeFull(b []byte) (*Element, error) {
	e, n, err := Decode(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("ber: %d trailing bytes after element", len(b)-n)
	}
	return e, nil
}

func decode(b []byte, depth int) (*Element, int, error) {
	if depth > maxDepth {
		return nil, 0, errors.New("ber: nesting too deep")
	}
	if len(b) == 0 {
		return nil, 0, ErrTruncated
	}
	ident := b[0]
	class := Class(ident & 0xC0)
	constructed := ident&0x20 != 0
	tag := uint32(ident & 0x1F)
	off := 1
	if tag == 0x1F {
		tag = 0
		for {
			if off >= len(b) {
				return nil, 0, ErrTruncated
			}
			if tag > (1<<25)-1 {
				return nil, 0, errors.New("ber: tag number too large")
			}
			c := b[off]
			off++
			tag = tag<<7 | uint32(c&0x7F)
			if c&0x80 == 0 {
				break
			}
		}
	}
	length, n, err := decodeLength(b[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	if length > MaxElementSize {
		return nil, 0, fmt.Errorf("ber: element of %d bytes exceeds limit", length)
	}
	if off+length > len(b) {
		return nil, 0, ErrTruncated
	}
	content := b[off : off+length]
	e := &Element{Class: class, Tag: tag, Constructed: constructed}
	if !constructed {
		e.Value = content
		return e, off + length, nil
	}
	for rest := content; len(rest) > 0; {
		child, n, err := decode(rest, depth+1)
		if err != nil {
			return nil, 0, err
		}
		e.Children = append(e.Children, child)
		rest = rest[n:]
	}
	return e, off + length, nil
}

func decodeLength(b []byte) (length, consumed int, err error) {
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	first := b[0]
	if first < 0x80 {
		return int(first), 1, nil
	}
	n := int(first & 0x7F)
	if n == 0 {
		return 0, 0, errors.New("ber: indefinite length not supported")
	}
	if n > 4 {
		return 0, 0, fmt.Errorf("ber: length of %d bytes not supported", n)
	}
	if len(b) < 1+n {
		return 0, 0, ErrTruncated
	}
	v := 0
	for _, c := range b[1 : 1+n] {
		v = v<<8 | int(c)
	}
	return v, 1 + n, nil
}

// Clone returns a deep copy of e that owns all of its memory. It is the
// copy-on-retain escape hatch for borrowed trees produced by Reader /
// Decoder: anything that must outlive the next read (cache entries,
// journal lines, changelog records) clones first.
func (e *Element) Clone() *Element {
	if e == nil {
		return nil
	}
	c := &Element{Class: e.Class, Tag: e.Tag, Constructed: e.Constructed}
	if e.Value != nil {
		c.Value = append([]byte(nil), e.Value...)
	}
	if e.Children != nil {
		c.Children = make([]*Element, len(e.Children))
		for i, ch := range e.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// String renders e for debugging.
func (e *Element) String() string {
	if e == nil {
		return "<nil>"
	}
	if e.Constructed {
		return fmt.Sprintf("%s[%d]{%d children}", e.Class, e.Tag, len(e.Children))
	}
	return fmt.Sprintf("%s[%d](%q)", e.Class, e.Tag, e.Value)
}
