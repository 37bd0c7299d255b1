// Package ldap implements the LDAP v3 message layer (RFC 2251) used by the
// MetaComm directory server, the LTAP trigger gateway, and the client
// library: bind, unbind, search, add, delete, modify, modifyDN, compare,
// abandon and extended operations, together with search filters and result
// codes.
//
// From a database perspective (paper §2) LDAP is a very simple query and
// update protocol: entries live in a tree, each identified by a DN; the only
// update commands create or delete a single leaf or modify a single node;
// individual updates are atomic but cannot be grouped into transactions.
// That weakness is exactly what the rest of MetaComm is built to cope with.
package ldap

import (
	"errors"
	"fmt"
	"io"

	"metacomm/internal/ber"
)

// Scope is an LDAP search scope.
type Scope int

// Search scopes.
const (
	ScopeBaseObject   Scope = 0
	ScopeSingleLevel  Scope = 1
	ScopeWholeSubtree Scope = 2
)

func (s Scope) String() string {
	switch s {
	case ScopeBaseObject:
		return "base"
	case ScopeSingleLevel:
		return "one"
	case ScopeWholeSubtree:
		return "sub"
	}
	return fmt.Sprintf("scope(%d)", int(s))
}

// ModOp is the operation of a single modification within a Modify request.
type ModOp int

// Modify operations.
const (
	ModAdd     ModOp = 0
	ModDelete  ModOp = 1
	ModReplace ModOp = 2
)

func (m ModOp) String() string {
	switch m {
	case ModAdd:
		return "add"
	case ModDelete:
		return "delete"
	case ModReplace:
		return "replace"
	}
	return fmt.Sprintf("modOp(%d)", int(m))
}

// Attribute is an attribute description with its values.
type Attribute struct {
	Type   string
	Values []string
}

// Change is one modification within a Modify request.
type Change struct {
	Op        ModOp
	Attribute Attribute
}

// Application tags for the protocolOp CHOICE.
const (
	tagBindRequest      = 0
	tagBindResponse     = 1
	tagUnbindRequest    = 2
	tagSearchRequest    = 3
	tagSearchEntry      = 4
	tagSearchDone       = 5
	tagModifyRequest    = 6
	tagModifyResponse   = 7
	tagAddRequest       = 8
	tagAddResponse      = 9
	tagDelRequest       = 10
	tagDelResponse      = 11
	tagModifyDNRequest  = 12
	tagModifyDNResponse = 13
	tagCompareRequest   = 14
	tagCompareResponse  = 15
	tagAbandonRequest   = 16
	tagExtendedRequest  = 23
	tagExtendedResponse = 24
)

// Op is one LDAP protocol operation (the protocolOp CHOICE).
type Op interface {
	encode() *ber.Element
}

// Message is a complete LDAPMessage envelope.
type Message struct {
	ID int32
	Op Op
}

// Request operations.

// BindRequest authenticates a connection (simple bind only).
type BindRequest struct {
	Version  int
	Name     string
	Password string
}

// UnbindRequest terminates a connection.
type UnbindRequest struct{}

// SearchRequest queries the directory.
type SearchRequest struct {
	BaseDN       string
	Scope        Scope
	DerefAliases int
	SizeLimit    int
	TimeLimit    int
	TypesOnly    bool
	Filter       *Filter
	Attributes   []string
}

// AddRequest creates a new leaf entry.
type AddRequest struct {
	DN         string
	Attributes []Attribute
}

// DeleteRequest removes a leaf entry.
type DeleteRequest struct {
	DN string
}

// ModifyRequest modifies attributes of a single entry (never its RDN).
type ModifyRequest struct {
	DN      string
	Changes []Change
}

// ModifyDNRequest renames an entry (the ModifyRDN of the paper).
type ModifyDNRequest struct {
	DN           string
	NewRDN       string
	DeleteOldRDN bool
	NewSuperior  string // optional; empty means keep parent
}

// CompareRequest tests one attribute/value assertion against an entry.
type CompareRequest struct {
	DN    string
	Attr  string
	Value string
}

// AbandonRequest asks the server to abandon an outstanding operation.
type AbandonRequest struct {
	IDToAbandon int32
}

// ExtendedRequest carries an extension identified by a numeric OID. LTAP
// uses extended operations for its quiesce facility.
type ExtendedRequest struct {
	Name  string
	Value []byte
}

// NoticeOfDisconnection is the OID of the unsolicited notice (RFC 4511
// §4.4.1) a server sends, with message ID 0, before dropping a connection it
// cannot continue to serve — e.g. one that sent an oversized message.
const NoticeOfDisconnection = "1.3.6.1.4.1.1466.20036"

// Response operations.

// BindResponse carries the result of a bind.
type BindResponse struct{ Result }

// SearchResultEntry is one entry returned from a search.
type SearchResultEntry struct {
	DN         string
	Attributes []Attribute
}

// SearchResultDone terminates a search result stream.
type SearchResultDone struct{ Result }

// ModifyResponse carries the result of a modify.
type ModifyResponse struct{ Result }

// AddResponse carries the result of an add.
type AddResponse struct{ Result }

// DeleteResponse carries the result of a delete.
type DeleteResponse struct{ Result }

// ModifyDNResponse carries the result of a modifyDN.
type ModifyDNResponse struct{ Result }

// CompareResponse carries the result of a compare.
type CompareResponse struct{ Result }

// ExtendedResponse carries the result of an extended operation.
type ExtendedResponse struct {
	Result
	Name  string
	Value []byte
}

// --- encoding ---

func encodeResult(tag uint32, r Result, extra ...*ber.Element) *ber.Element {
	e := ber.ApplicationConstructed(tag,
		ber.NewEnumerated(int64(r.Code)),
		ber.NewOctetString(r.MatchedDN),
		ber.NewOctetString(r.Message))
	return e.Append(extra...)
}

func encodeAttribute(a Attribute) *ber.Element {
	vals := ber.NewSet()
	for _, v := range a.Values {
		vals.Append(ber.NewOctetString(v))
	}
	return ber.NewSequence(ber.NewOctetString(a.Type), vals)
}

func (r *BindRequest) encode() *ber.Element {
	return ber.ApplicationConstructed(tagBindRequest,
		ber.NewInteger(int64(r.Version)),
		ber.NewOctetString(r.Name),
		ber.ContextPrimitive(0, []byte(r.Password)))
}

func (*UnbindRequest) encode() *ber.Element {
	return ber.ApplicationPrimitive(tagUnbindRequest, nil)
}

func (r *SearchRequest) encode() *ber.Element {
	attrs := ber.NewSequence()
	for _, a := range r.Attributes {
		attrs.Append(ber.NewOctetString(a))
	}
	f := r.Filter
	if f == nil {
		f = Present("objectClass")
	}
	return ber.ApplicationConstructed(tagSearchRequest,
		ber.NewOctetString(r.BaseDN),
		ber.NewEnumerated(int64(r.Scope)),
		ber.NewEnumerated(int64(r.DerefAliases)),
		ber.NewInteger(int64(r.SizeLimit)),
		ber.NewInteger(int64(r.TimeLimit)),
		ber.NewBoolean(r.TypesOnly),
		f.encode(),
		attrs)
}

func (r *AddRequest) encode() *ber.Element {
	attrs := ber.NewSequence()
	for _, a := range r.Attributes {
		attrs.Append(encodeAttribute(a))
	}
	return ber.ApplicationConstructed(tagAddRequest, ber.NewOctetString(r.DN), attrs)
}

func (r *DeleteRequest) encode() *ber.Element {
	return ber.ApplicationPrimitive(tagDelRequest, []byte(r.DN))
}

func (r *ModifyRequest) encode() *ber.Element {
	changes := ber.NewSequence()
	for _, c := range r.Changes {
		changes.Append(ber.NewSequence(
			ber.NewEnumerated(int64(c.Op)),
			encodeAttribute(c.Attribute)))
	}
	return ber.ApplicationConstructed(tagModifyRequest, ber.NewOctetString(r.DN), changes)
}

func (r *ModifyDNRequest) encode() *ber.Element {
	e := ber.ApplicationConstructed(tagModifyDNRequest,
		ber.NewOctetString(r.DN),
		ber.NewOctetString(r.NewRDN),
		ber.NewBoolean(r.DeleteOldRDN))
	if r.NewSuperior != "" {
		e.Append(ber.ContextPrimitive(0, []byte(r.NewSuperior)))
	}
	return e
}

func (r *CompareRequest) encode() *ber.Element {
	return ber.ApplicationConstructed(tagCompareRequest,
		ber.NewOctetString(r.DN),
		ber.NewSequence(ber.NewOctetString(r.Attr), ber.NewOctetString(r.Value)))
}

func (r *AbandonRequest) encode() *ber.Element {
	return ber.Tagged(ber.ClassApplication, tagAbandonRequest, ber.NewInteger(int64(r.IDToAbandon)))
}

func (r *ExtendedRequest) encode() *ber.Element {
	e := ber.ApplicationConstructed(tagExtendedRequest,
		ber.ContextPrimitive(0, []byte(r.Name)))
	if r.Value != nil {
		e.Append(ber.ContextPrimitive(1, r.Value))
	}
	return e
}

func (r *BindResponse) encode() *ber.Element { return encodeResult(tagBindResponse, r.Result) }
func (r *SearchResultDone) encode() *ber.Element {
	return encodeResult(tagSearchDone, r.Result)
}
func (r *ModifyResponse) encode() *ber.Element { return encodeResult(tagModifyResponse, r.Result) }
func (r *AddResponse) encode() *ber.Element    { return encodeResult(tagAddResponse, r.Result) }
func (r *DeleteResponse) encode() *ber.Element { return encodeResult(tagDelResponse, r.Result) }
func (r *ModifyDNResponse) encode() *ber.Element {
	return encodeResult(tagModifyDNResponse, r.Result)
}
func (r *CompareResponse) encode() *ber.Element {
	return encodeResult(tagCompareResponse, r.Result)
}

func (r *SearchResultEntry) encode() *ber.Element {
	attrs := ber.NewSequence()
	for _, a := range r.Attributes {
		attrs.Append(encodeAttribute(a))
	}
	return ber.ApplicationConstructed(tagSearchEntry, ber.NewOctetString(r.DN), attrs)
}

func (r *ExtendedResponse) encode() *ber.Element {
	var extra []*ber.Element
	if r.Name != "" {
		extra = append(extra, ber.ContextPrimitive(10, []byte(r.Name)))
	}
	if r.Value != nil {
		extra = append(extra, ber.ContextPrimitive(11, r.Value))
	}
	return encodeResult(tagExtendedResponse, r.Result, extra...)
}

// Encode returns the wire encoding of the message.
func (m *Message) Encode() []byte {
	return m.element().Encode()
}

// AppendTo appends the encoded message to buf and returns the extended
// buffer; callers with a long-lived write buffer avoid per-message
// allocations.
func (m *Message) AppendTo(buf []byte) []byte {
	return m.element().AppendTo(buf)
}

// Write writes the encoded message to w in one Write, using a pooled
// encode buffer.
func (m *Message) Write(w io.Writer) error {
	_, err := m.element().WriteTo(w)
	return err
}

func (m *Message) element() *ber.Element {
	return ber.NewSequence(ber.NewInteger(int64(m.ID)), m.Op.encode())
}

// --- decoding ---

// Reader reads LDAP messages from one connection with zero-copy BER decode:
// the BER element tree is borrowed from per-connection reused storage, and
// DecodeMessage converts everything it keeps into owned memory (strings, or
// explicit clones for the raw []byte fields), so returned Messages are safe
// to retain — changelog records, cache entries and journal lines built from
// them never alias the read buffer. Not safe for concurrent use.
type Reader struct {
	br *ber.Reader
}

// NewReader wraps r (ideally a net.Conn; it is buffered internally).
func NewReader(r io.Reader) *Reader {
	return &Reader{br: ber.NewReader(r)}
}

// Reset re-points the reader at src, discarding anything buffered and keeping
// its decode storage (servers pool readers across connections).
func (r *Reader) Reset(src io.Reader) { r.br.Reset(src) }

// Wait blocks until the first octet of the next message is buffered, without
// consuming it (see ber.Reader.Wait): servers wait for a request this way so
// that an idle-interval deadline never interrupts a message mid-read.
func (r *Reader) Wait() error { return r.br.Wait() }

// Buffered returns the number of request bytes already read off the
// connection and not yet consumed.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// SetMaxMessageSize bounds a single wire message; n <= 0 restores
// ber.DefaultMaxMessageSize. Oversized messages fail with an error wrapping
// ber.ErrTooLarge before their content is read or allocated.
func (r *Reader) SetMaxMessageSize(n int) { r.br.SetMaxMessageSize(n) }

// MessageBuffered reports whether a complete request is already buffered, so
// servers can coalesce responses: flush only before a read that would block.
func (r *Reader) MessageBuffered() bool { return r.br.MessageBuffered() }

// ReadMessage reads and decodes one LDAPMessage. The returned message owns
// its memory.
func (r *Reader) ReadMessage() (*Message, error) {
	e, err := r.br.ReadElement()
	if err != nil {
		return nil, err
	}
	return DecodeMessage(e)
}

// DecodeMessage decodes an LDAPMessage from a parsed BER element.
func DecodeMessage(e *ber.Element) (*Message, error) {
	if !e.Is(ber.ClassUniversal, ber.TagSequence) {
		return nil, errors.New("ldap: message is not a SEQUENCE")
	}
	idEl, err := e.Child(0)
	if err != nil {
		return nil, err
	}
	id, err := idEl.Int()
	if err != nil {
		return nil, fmt.Errorf("ldap: bad message id: %v", err)
	}
	opEl, err := e.Child(1)
	if err != nil {
		return nil, err
	}
	if opEl.Class != ber.ClassApplication {
		return nil, fmt.Errorf("ldap: protocolOp has class %v", opEl.Class)
	}
	op, err := decodeOp(opEl)
	if err != nil {
		return nil, err
	}
	return &Message{ID: int32(id), Op: op}, nil
}

func decodeResult(e *ber.Element) (Result, error) {
	var r Result
	codeEl, err := e.Child(0)
	if err != nil {
		return r, err
	}
	code, err := codeEl.Int()
	if err != nil {
		return r, err
	}
	matched, err := e.Child(1)
	if err != nil {
		return r, err
	}
	msg, err := e.Child(2)
	if err != nil {
		return r, err
	}
	return Result{Code: ResultCode(code), MatchedDN: matched.Str(), Message: msg.Str()}, nil
}

func decodeAttribute(e *ber.Element) (Attribute, error) {
	typeEl, err := e.Child(0)
	if err != nil {
		return Attribute{}, err
	}
	valsEl, err := e.Child(1)
	if err != nil {
		return Attribute{}, err
	}
	a := Attribute{Type: typeEl.Str()}
	for _, v := range valsEl.Children {
		a.Values = append(a.Values, v.Str())
	}
	return a, nil
}

func decodeOp(e *ber.Element) (Op, error) {
	switch e.Tag {
	case tagBindRequest:
		ver, err := e.Child(0)
		if err != nil {
			return nil, err
		}
		v, err := ver.Int()
		if err != nil {
			return nil, err
		}
		name, err := e.Child(1)
		if err != nil {
			return nil, err
		}
		auth, err := e.Child(2)
		if err != nil {
			return nil, err
		}
		if auth.Class != ber.ClassContext || auth.Tag != 0 {
			return nil, errors.New("ldap: only simple bind supported")
		}
		return &BindRequest{Version: int(v), Name: name.Str(), Password: auth.Str()}, nil

	case tagUnbindRequest:
		return &UnbindRequest{}, nil

	case tagSearchRequest:
		if len(e.Children) < 8 {
			return nil, errors.New("ldap: short search request")
		}
		scope, err := e.Children[1].Int()
		if err != nil {
			return nil, err
		}
		deref, err := e.Children[2].Int()
		if err != nil {
			return nil, err
		}
		sizeLimit, err := e.Children[3].Int()
		if err != nil {
			return nil, err
		}
		timeLimit, err := e.Children[4].Int()
		if err != nil {
			return nil, err
		}
		typesOnly, err := e.Children[5].Bool()
		if err != nil {
			return nil, err
		}
		filter, err := decodeFilter(e.Children[6])
		if err != nil {
			return nil, err
		}
		req := &SearchRequest{
			BaseDN:       e.Children[0].Str(),
			Scope:        Scope(scope),
			DerefAliases: int(deref),
			SizeLimit:    int(sizeLimit),
			TimeLimit:    int(timeLimit),
			TypesOnly:    typesOnly,
			Filter:       filter,
		}
		for _, a := range e.Children[7].Children {
			req.Attributes = append(req.Attributes, a.Str())
		}
		return req, nil

	case tagAddRequest:
		dnEl, err := e.Child(0)
		if err != nil {
			return nil, err
		}
		attrsEl, err := e.Child(1)
		if err != nil {
			return nil, err
		}
		req := &AddRequest{DN: dnEl.Str()}
		for _, a := range attrsEl.Children {
			attr, err := decodeAttribute(a)
			if err != nil {
				return nil, err
			}
			req.Attributes = append(req.Attributes, attr)
		}
		return req, nil

	case tagDelRequest:
		return &DeleteRequest{DN: e.Str()}, nil

	case tagModifyRequest:
		dnEl, err := e.Child(0)
		if err != nil {
			return nil, err
		}
		changesEl, err := e.Child(1)
		if err != nil {
			return nil, err
		}
		req := &ModifyRequest{DN: dnEl.Str()}
		for _, c := range changesEl.Children {
			opEl, err := c.Child(0)
			if err != nil {
				return nil, err
			}
			opv, err := opEl.Int()
			if err != nil {
				return nil, err
			}
			attrEl, err := c.Child(1)
			if err != nil {
				return nil, err
			}
			attr, err := decodeAttribute(attrEl)
			if err != nil {
				return nil, err
			}
			req.Changes = append(req.Changes, Change{Op: ModOp(opv), Attribute: attr})
		}
		return req, nil

	case tagModifyDNRequest:
		dnEl, err := e.Child(0)
		if err != nil {
			return nil, err
		}
		rdnEl, err := e.Child(1)
		if err != nil {
			return nil, err
		}
		delEl, err := e.Child(2)
		if err != nil {
			return nil, err
		}
		delOld, err := delEl.Bool()
		if err != nil {
			return nil, err
		}
		req := &ModifyDNRequest{DN: dnEl.Str(), NewRDN: rdnEl.Str(), DeleteOldRDN: delOld}
		if len(e.Children) > 3 && e.Children[3].Is(ber.ClassContext, 0) {
			req.NewSuperior = e.Children[3].Str()
		}
		return req, nil

	case tagCompareRequest:
		dnEl, err := e.Child(0)
		if err != nil {
			return nil, err
		}
		avaEl, err := e.Child(1)
		if err != nil {
			return nil, err
		}
		attrEl, err := avaEl.Child(0)
		if err != nil {
			return nil, err
		}
		valEl, err := avaEl.Child(1)
		if err != nil {
			return nil, err
		}
		return &CompareRequest{DN: dnEl.Str(), Attr: attrEl.Str(), Value: valEl.Str()}, nil

	case tagAbandonRequest:
		id, err := e.Int()
		if err != nil {
			return nil, err
		}
		return &AbandonRequest{IDToAbandon: int32(id)}, nil

	case tagExtendedRequest:
		req := &ExtendedRequest{}
		for _, c := range e.Children {
			switch c.Tag {
			case 0:
				req.Name = c.Str()
			case 1:
				// Copy-on-retain: the element may borrow a reused read
				// buffer (ldap.Reader), and extended values can outlive the
				// request (quiesce bodies, future controls).
				req.Value = append([]byte(nil), c.Value...)
			}
		}
		if req.Name == "" {
			return nil, errors.New("ldap: extended request missing name")
		}
		return req, nil

	case tagBindResponse:
		r, err := decodeResult(e)
		return &BindResponse{Result: r}, err
	case tagSearchDone:
		r, err := decodeResult(e)
		return &SearchResultDone{Result: r}, err
	case tagModifyResponse:
		r, err := decodeResult(e)
		return &ModifyResponse{Result: r}, err
	case tagAddResponse:
		r, err := decodeResult(e)
		return &AddResponse{Result: r}, err
	case tagDelResponse:
		r, err := decodeResult(e)
		return &DeleteResponse{Result: r}, err
	case tagModifyDNResponse:
		r, err := decodeResult(e)
		return &ModifyDNResponse{Result: r}, err
	case tagCompareResponse:
		r, err := decodeResult(e)
		return &CompareResponse{Result: r}, err

	case tagSearchEntry:
		dnEl, err := e.Child(0)
		if err != nil {
			return nil, err
		}
		attrsEl, err := e.Child(1)
		if err != nil {
			return nil, err
		}
		entry := &SearchResultEntry{DN: dnEl.Str()}
		for _, a := range attrsEl.Children {
			attr, err := decodeAttribute(a)
			if err != nil {
				return nil, err
			}
			entry.Attributes = append(entry.Attributes, attr)
		}
		return entry, nil

	case tagExtendedResponse:
		r, err := decodeResult(e)
		if err != nil {
			return nil, err
		}
		resp := &ExtendedResponse{Result: r}
		for _, c := range e.Children[3:] {
			switch c.Tag {
			case 10:
				resp.Name = c.Str()
			case 11:
				// Copy-on-retain, as for ExtendedRequest above.
				resp.Value = append([]byte(nil), c.Value...)
			}
		}
		return resp, nil
	}
	return nil, fmt.Errorf("ldap: unknown protocolOp tag %d", e.Tag)
}
