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
	"math"
	"sync"

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
	// appendTo appends the operation's BER encoding to buf.
	appendTo(buf []byte) []byte
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
//
// Every operation appends its protocolOp straight from its fields into the
// caller's buffer in one pass: no element tree, and a constructed element's
// length is back-patched once its content is written (ber.BeginConstructed /
// EndConstructed). encode_ref_test.go keeps the tree builders this replaced
// as the reference the encoder must match byte for byte.

func appendResultFields(buf []byte, r *Result) []byte {
	buf = ber.AppendInt(buf, ber.ClassUniversal, ber.TagEnumerated, int64(r.Code))
	buf = ber.AppendOctetString(buf, r.MatchedDN)
	return ber.AppendOctetString(buf, r.Message)
}

func appendResult(buf []byte, tag uint32, r *Result) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassApplication, tag)
	buf = appendResultFields(buf, r)
	return ber.EndConstructed(buf, mark)
}

func appendAttribute(buf []byte, a *Attribute) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassUniversal, ber.TagSequence)
	buf = ber.AppendOctetString(buf, a.Type)
	buf, set := ber.BeginConstructed(buf, ber.ClassUniversal, ber.TagSet)
	for _, v := range a.Values {
		buf = ber.AppendOctetString(buf, v)
	}
	buf = ber.EndConstructed(buf, set)
	return ber.EndConstructed(buf, mark)
}

// appendDNAttributes appends the shape AddRequest and SearchResultEntry
// share: [APPLICATION tag] SEQUENCE { dn, SEQUENCE OF attribute }.
func appendDNAttributes(buf []byte, tag uint32, dn string, attrs []Attribute) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassApplication, tag)
	buf = ber.AppendOctetString(buf, dn)
	buf, list := ber.BeginConstructed(buf, ber.ClassUniversal, ber.TagSequence)
	for i := range attrs {
		buf = appendAttribute(buf, &attrs[i])
	}
	buf = ber.EndConstructed(buf, list)
	return ber.EndConstructed(buf, mark)
}

func (r *BindRequest) appendTo(buf []byte) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassApplication, tagBindRequest)
	buf = ber.AppendInt(buf, ber.ClassUniversal, ber.TagInteger, int64(r.Version))
	buf = ber.AppendOctetString(buf, r.Name)
	buf = ber.AppendString(buf, ber.ClassContext, 0, r.Password)
	return ber.EndConstructed(buf, mark)
}

func (*UnbindRequest) appendTo(buf []byte) []byte {
	return ber.AppendHeader(buf, ber.ClassApplication, tagUnbindRequest, false, 0)
}

// defaultSearchFilter stands in for a SearchRequest without a filter.
var defaultSearchFilter = Present("objectClass")

func (r *SearchRequest) appendTo(buf []byte) []byte {
	f := r.Filter
	if f == nil {
		f = defaultSearchFilter
	}
	buf, mark := ber.BeginConstructed(buf, ber.ClassApplication, tagSearchRequest)
	buf = ber.AppendOctetString(buf, r.BaseDN)
	buf = ber.AppendInt(buf, ber.ClassUniversal, ber.TagEnumerated, int64(r.Scope))
	buf = ber.AppendInt(buf, ber.ClassUniversal, ber.TagEnumerated, int64(r.DerefAliases))
	buf = ber.AppendInt(buf, ber.ClassUniversal, ber.TagInteger, int64(r.SizeLimit))
	buf = ber.AppendInt(buf, ber.ClassUniversal, ber.TagInteger, int64(r.TimeLimit))
	buf = ber.AppendBoolean(buf, r.TypesOnly)
	buf = f.appendTo(buf)
	buf, attrs := ber.BeginConstructed(buf, ber.ClassUniversal, ber.TagSequence)
	for _, a := range r.Attributes {
		buf = ber.AppendOctetString(buf, a)
	}
	buf = ber.EndConstructed(buf, attrs)
	return ber.EndConstructed(buf, mark)
}

func (r *AddRequest) appendTo(buf []byte) []byte {
	return appendDNAttributes(buf, tagAddRequest, r.DN, r.Attributes)
}

func (r *DeleteRequest) appendTo(buf []byte) []byte {
	return ber.AppendString(buf, ber.ClassApplication, tagDelRequest, r.DN)
}

func (r *ModifyRequest) appendTo(buf []byte) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassApplication, tagModifyRequest)
	buf = ber.AppendOctetString(buf, r.DN)
	buf, changes := ber.BeginConstructed(buf, ber.ClassUniversal, ber.TagSequence)
	for i := range r.Changes {
		c := &r.Changes[i]
		var change int // not :=, which would declare a buf local to the loop
		buf, change = ber.BeginConstructed(buf, ber.ClassUniversal, ber.TagSequence)
		buf = ber.AppendInt(buf, ber.ClassUniversal, ber.TagEnumerated, int64(c.Op))
		buf = appendAttribute(buf, &c.Attribute)
		buf = ber.EndConstructed(buf, change)
	}
	buf = ber.EndConstructed(buf, changes)
	return ber.EndConstructed(buf, mark)
}

func (r *ModifyDNRequest) appendTo(buf []byte) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassApplication, tagModifyDNRequest)
	buf = ber.AppendOctetString(buf, r.DN)
	buf = ber.AppendOctetString(buf, r.NewRDN)
	buf = ber.AppendBoolean(buf, r.DeleteOldRDN)
	if r.NewSuperior != "" {
		buf = ber.AppendString(buf, ber.ClassContext, 0, r.NewSuperior)
	}
	return ber.EndConstructed(buf, mark)
}

func (r *CompareRequest) appendTo(buf []byte) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassApplication, tagCompareRequest)
	buf = ber.AppendOctetString(buf, r.DN)
	buf, ava := ber.BeginConstructed(buf, ber.ClassUniversal, ber.TagSequence)
	buf = ber.AppendOctetString(buf, r.Attr)
	buf = ber.AppendOctetString(buf, r.Value)
	buf = ber.EndConstructed(buf, ava)
	return ber.EndConstructed(buf, mark)
}

func (r *AbandonRequest) appendTo(buf []byte) []byte {
	return ber.AppendInt(buf, ber.ClassApplication, tagAbandonRequest, int64(r.IDToAbandon))
}

func (r *ExtendedRequest) appendTo(buf []byte) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassApplication, tagExtendedRequest)
	buf = ber.AppendString(buf, ber.ClassContext, 0, r.Name)
	if r.Value != nil {
		buf = append(ber.AppendHeader(buf, ber.ClassContext, 1, false, len(r.Value)), r.Value...)
	}
	return ber.EndConstructed(buf, mark)
}

func (r *BindResponse) appendTo(buf []byte) []byte {
	return appendResult(buf, tagBindResponse, &r.Result)
}
func (r *SearchResultDone) appendTo(buf []byte) []byte {
	return appendResult(buf, tagSearchDone, &r.Result)
}
func (r *ModifyResponse) appendTo(buf []byte) []byte {
	return appendResult(buf, tagModifyResponse, &r.Result)
}
func (r *AddResponse) appendTo(buf []byte) []byte {
	return appendResult(buf, tagAddResponse, &r.Result)
}
func (r *DeleteResponse) appendTo(buf []byte) []byte {
	return appendResult(buf, tagDelResponse, &r.Result)
}
func (r *ModifyDNResponse) appendTo(buf []byte) []byte {
	return appendResult(buf, tagModifyDNResponse, &r.Result)
}
func (r *CompareResponse) appendTo(buf []byte) []byte {
	return appendResult(buf, tagCompareResponse, &r.Result)
}

func (r *SearchResultEntry) appendTo(buf []byte) []byte {
	return appendDNAttributes(buf, tagSearchEntry, r.DN, r.Attributes)
}

func (r *ExtendedResponse) appendTo(buf []byte) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassApplication, tagExtendedResponse)
	buf = appendResultFields(buf, &r.Result)
	if r.Name != "" {
		buf = ber.AppendString(buf, ber.ClassContext, 10, r.Name)
	}
	if r.Value != nil {
		buf = append(ber.AppendHeader(buf, ber.ClassContext, 11, false, len(r.Value)), r.Value...)
	}
	return ber.EndConstructed(buf, mark)
}

// AppendTo appends the encoded message, SEQUENCE { messageID, protocolOp },
// to buf and returns the extended buffer. Into a buffer with room it
// allocates nothing.
func (m *Message) AppendTo(buf []byte) []byte {
	buf, mark := ber.BeginConstructed(buf, ber.ClassUniversal, ber.TagSequence)
	buf = ber.AppendInt(buf, ber.ClassUniversal, ber.TagInteger, int64(m.ID))
	buf = m.Op.appendTo(buf)
	return ber.EndConstructed(buf, mark)
}

// writeBufs pools Write's encode buffers. Buffers that grew beyond
// maxPooledWrite are dropped so one huge message cannot pin memory.
var writeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledWrite = 1 << 20

// Write writes the encoded message to w in one Write, using a pooled
// encode buffer.
func (m *Message) Write(w io.Writer) error {
	bp := writeBufs.Get().(*[]byte)
	buf := m.AppendTo((*bp)[:0])
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledWrite {
		*bp = buf[:0]
		writeBufs.Put(bp)
	}
	return err
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

// ErrMalformed marks a ReadMessage error for a complete BER element that is
// not a valid LDAPMessage: a server answers it with the notice of
// disconnection (RFC 4511 §4.1.1) and closes the connection.
var ErrMalformed = errors.New("ldap: malformed message")

// ReadMessage reads and decodes one LDAPMessage. The returned message owns
// its memory. A message that does not decode fails with an error wrapping
// ErrMalformed.
func (r *Reader) ReadMessage() (*Message, error) {
	e, err := r.br.ReadElement()
	if err != nil {
		return nil, err
	}
	m, err := DecodeMessage(e)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return m, nil
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
	id, err := messageID(idEl)
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
	return &Message{ID: id, Op: op}, nil
}

// messageID decodes a MessageID, which RFC 4511 bounds to 0..2^31-1.
func messageID(e *ber.Element) (int32, error) {
	id, err := e.Int()
	if err != nil {
		return 0, err
	}
	if id < 0 || id > math.MaxInt32 {
		return 0, fmt.Errorf("%d outside 0..%d", id, math.MaxInt32)
	}
	return int32(id), nil
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
		id, err := messageID(e)
		if err != nil {
			return nil, fmt.Errorf("ldap: bad abandoned message id: %v", err)
		}
		return &AbandonRequest{IDToAbandon: id}, nil

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
