package ldap

import "metacomm/internal/ber"

// The reference encoder: the element-tree builders the one-pass encoder
// (Message.AppendTo and every Op's appendTo) replaced. Each operation builds
// a ber.Element tree, which ber.Element.Encode then walks. The tests require
// the one-pass encoder to produce the same bytes for every message.

// refOp is an operation the reference can encode: every Op type.
type refOp interface {
	encodeRef() *ber.Element
}

// encodeMessageRef returns m's encoding through the reference builders.
func encodeMessageRef(m *Message) []byte {
	return ber.NewSequence(ber.NewInteger(int64(m.ID)), m.Op.(refOp).encodeRef()).Encode()
}

func encodeResultRef(tag uint32, r Result, extra ...*ber.Element) *ber.Element {
	e := ber.ApplicationConstructed(tag,
		ber.NewEnumerated(int64(r.Code)),
		ber.NewOctetString(r.MatchedDN),
		ber.NewOctetString(r.Message))
	return e.Append(extra...)
}

func encodeAttributeRef(a Attribute) *ber.Element {
	vals := ber.NewSet()
	for _, v := range a.Values {
		vals.Append(ber.NewOctetString(v))
	}
	return ber.NewSequence(ber.NewOctetString(a.Type), vals)
}

func (r *BindRequest) encodeRef() *ber.Element {
	return ber.ApplicationConstructed(tagBindRequest,
		ber.NewInteger(int64(r.Version)),
		ber.NewOctetString(r.Name),
		ber.ContextPrimitive(0, []byte(r.Password)))
}

func (*UnbindRequest) encodeRef() *ber.Element {
	return ber.ApplicationPrimitive(tagUnbindRequest, nil)
}

func (r *SearchRequest) encodeRef() *ber.Element {
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
		f.encodeRef(),
		attrs)
}

func (r *AddRequest) encodeRef() *ber.Element {
	attrs := ber.NewSequence()
	for _, a := range r.Attributes {
		attrs.Append(encodeAttributeRef(a))
	}
	return ber.ApplicationConstructed(tagAddRequest, ber.NewOctetString(r.DN), attrs)
}

func (r *DeleteRequest) encodeRef() *ber.Element {
	return ber.ApplicationPrimitive(tagDelRequest, []byte(r.DN))
}

func (r *ModifyRequest) encodeRef() *ber.Element {
	changes := ber.NewSequence()
	for _, c := range r.Changes {
		changes.Append(ber.NewSequence(
			ber.NewEnumerated(int64(c.Op)),
			encodeAttributeRef(c.Attribute)))
	}
	return ber.ApplicationConstructed(tagModifyRequest, ber.NewOctetString(r.DN), changes)
}

func (r *ModifyDNRequest) encodeRef() *ber.Element {
	e := ber.ApplicationConstructed(tagModifyDNRequest,
		ber.NewOctetString(r.DN),
		ber.NewOctetString(r.NewRDN),
		ber.NewBoolean(r.DeleteOldRDN))
	if r.NewSuperior != "" {
		e.Append(ber.ContextPrimitive(0, []byte(r.NewSuperior)))
	}
	return e
}

func (r *CompareRequest) encodeRef() *ber.Element {
	return ber.ApplicationConstructed(tagCompareRequest,
		ber.NewOctetString(r.DN),
		ber.NewSequence(ber.NewOctetString(r.Attr), ber.NewOctetString(r.Value)))
}

func (r *AbandonRequest) encodeRef() *ber.Element {
	return ber.Tagged(ber.ClassApplication, tagAbandonRequest, ber.NewInteger(int64(r.IDToAbandon)))
}

func (r *ExtendedRequest) encodeRef() *ber.Element {
	e := ber.ApplicationConstructed(tagExtendedRequest,
		ber.ContextPrimitive(0, []byte(r.Name)))
	if r.Value != nil {
		e.Append(ber.ContextPrimitive(1, r.Value))
	}
	return e
}

func (r *BindResponse) encodeRef() *ber.Element { return encodeResultRef(tagBindResponse, r.Result) }
func (r *SearchResultDone) encodeRef() *ber.Element {
	return encodeResultRef(tagSearchDone, r.Result)
}
func (r *ModifyResponse) encodeRef() *ber.Element {
	return encodeResultRef(tagModifyResponse, r.Result)
}
func (r *AddResponse) encodeRef() *ber.Element    { return encodeResultRef(tagAddResponse, r.Result) }
func (r *DeleteResponse) encodeRef() *ber.Element { return encodeResultRef(tagDelResponse, r.Result) }
func (r *ModifyDNResponse) encodeRef() *ber.Element {
	return encodeResultRef(tagModifyDNResponse, r.Result)
}
func (r *CompareResponse) encodeRef() *ber.Element {
	return encodeResultRef(tagCompareResponse, r.Result)
}

func (r *SearchResultEntry) encodeRef() *ber.Element {
	attrs := ber.NewSequence()
	for _, a := range r.Attributes {
		attrs.Append(encodeAttributeRef(a))
	}
	return ber.ApplicationConstructed(tagSearchEntry, ber.NewOctetString(r.DN), attrs)
}

func (r *ExtendedResponse) encodeRef() *ber.Element {
	var extra []*ber.Element
	if r.Name != "" {
		extra = append(extra, ber.ContextPrimitive(10, []byte(r.Name)))
	}
	if r.Value != nil {
		extra = append(extra, ber.ContextPrimitive(11, r.Value))
	}
	return encodeResultRef(tagExtendedResponse, r.Result, extra...)
}

// encodeRef builds the filter's element tree with LDAP context tags.
func (f *Filter) encodeRef() *ber.Element {
	switch f.Kind {
	case FilterAnd, FilterOr:
		e := ber.ContextConstructed(uint32(f.Kind))
		for _, c := range f.Children {
			e.Append(c.encodeRef())
		}
		return e
	case FilterNot:
		return ber.ContextConstructed(2, f.Children[0].encodeRef())
	case FilterEquality, FilterGreaterOrEqual, FilterLessOrEqual, FilterApprox:
		return ber.ContextConstructed(uint32(f.Kind),
			ber.NewOctetString(f.Attr), ber.NewOctetString(f.Value))
	case FilterPresent:
		return ber.ContextPrimitive(7, []byte(f.Attr))
	case FilterSubstrings:
		subs := ber.NewSequence()
		if f.Initial != "" {
			subs.Append(ber.ContextPrimitive(0, []byte(f.Initial)))
		}
		for _, a := range f.Any {
			subs.Append(ber.ContextPrimitive(1, []byte(a)))
		}
		if f.Final != "" {
			subs.Append(ber.ContextPrimitive(2, []byte(f.Final)))
		}
		return ber.ContextConstructed(4, ber.NewOctetString(f.Attr), subs)
	}
	return ber.ContextConstructed(0)
}
