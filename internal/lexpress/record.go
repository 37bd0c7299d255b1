package lexpress

import (
	"fmt"
	"sort"
	"strings"
)

// Record is the canonical representation of a repository record inside
// lexpress: a case-insensitive map from attribute name to values. Scalar
// attributes are single-element slices; lexpress's multi-valued attribute
// processing operates on the full slices.
type Record map[string][]string

// NewRecord returns an empty record.
func NewRecord() Record { return Record{} }

func canon(attr string) string { return strings.ToLower(attr) }

// Get returns all values of attr.
func (r Record) Get(attr string) []string { return r[canon(attr)] }

// First returns the first value of attr, or "".
func (r Record) First(attr string) string {
	if vs := r[canon(attr)]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Set replaces the values of attr. Empty values removes the attribute.
func (r Record) Set(attr string, values ...string) {
	k := canon(attr)
	if len(values) == 0 {
		delete(r, k)
		return
	}
	r[k] = append([]string(nil), values...)
}

// Has reports whether attr has at least one value.
func (r Record) Has(attr string) bool { return len(r[canon(attr)]) > 0 }

// Clone deep-copies the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for k, vs := range r {
		out[k] = append([]string(nil), vs...)
	}
	return out
}

// Attrs returns the attribute names present, sorted.
func (r Record) Attrs() []string {
	out := make([]string, 0, len(r))
	for k := range r {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Equal reports value-set equality per attribute (order-insensitive).
func (r Record) Equal(o Record) bool {
	if len(r) != len(o) {
		return false
	}
	for k, vs := range r {
		ws, ok := o[k]
		if !ok || len(vs) != len(ws) {
			return false
		}
		seen := make(map[string]int, len(ws))
		for _, w := range ws {
			seen[w]++
		}
		for _, v := range vs {
			if seen[v] == 0 {
				return false
			}
			seen[v]--
		}
	}
	return true
}

// String renders the record compactly for logs.
func (r Record) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range r.Attrs() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%v", k, r[k])
	}
	b.WriteByte('}')
	return b.String()
}

// OpKind is the kind of a canonical update.
type OpKind int

// Update kinds.
const (
	OpAdd OpKind = iota
	OpModify
	OpDelete
)

func (o OpKind) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpModify:
		return "modify"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Descriptor is the lexpress update descriptor: the canonical form in which
// every filter reports a change to the Update Manager (paper §4.1). Old and
// New are images of the record before and after the change in the *source*
// repository's schema.
type Descriptor struct {
	// Source names the repository the update originated at ("ldap", "pbx",
	// "msgplat", ...).
	Source string
	// Origin names the repository where the update FIRST entered the
	// system. For a direct device update propagated via LDAP back toward
	// devices, Origin remains the device, which is what conditional-update
	// detection keys on. Empty means Source.
	Origin string
	Op     OpKind
	// Key identifies the record in the source schema.
	Key string
	Old Record
	New Record
	// Explicit lists attributes the client set explicitly in this update;
	// the transitive closure never overwrites them (paper §4.2 conflict
	// resolution). Empty means "all attributes present in New".
	Explicit []string
	// Seq is a serialization stamp assigned by the Update Manager queue.
	Seq uint64
}

// OriginName returns Origin, defaulting to Source.
func (d Descriptor) OriginName() string {
	if d.Origin != "" {
		return d.Origin
	}
	return d.Source
}

// TargetUpdate is the result of translating a Descriptor through a mapping:
// one update to apply against the mapping's target repository.
type TargetUpdate struct {
	Target string
	Op     OpKind
	// Conditional marks a reapplied update (the target is the update's
	// origin, paper §5.4): apply with recovery semantics — a conditional
	// modify that fails is retried as an add; a conditional add that hits
	// "already exists" is retried as a modify; a conditional delete that
	// finds nothing is a no-op.
	Conditional bool
	// Key/OldKey are the record keys after/before the update in the target
	// schema. A key change surfaces as OldKey != Key.
	Key    string
	OldKey string
	Old    Record
	New    Record
	// Owned lists the target-owned attributes declared by the mapping that
	// produced this update ("owns" statement); a delete clears exactly
	// these from the counterpart entry. The slice is the mapping's own,
	// shared by every update it produces: read-only.
	Owned []string
}

func (u *TargetUpdate) String() string {
	cond := ""
	if u.Conditional {
		cond = " (conditional)"
	}
	return fmt.Sprintf("%s %s key=%q%s", u.Target, u.Op, u.Key, cond)
}
