// Package directory implements the in-memory directory information tree
// (DIT) that backs the MetaComm LDAP server: entries addressed by
// distinguished name, hierarchical parent/child structure, LDAP update
// semantics (add/delete leaf, modify node, modify RDN), search with filter
// evaluation, and optional schema checking.
//
// Faithful to the paper's substrate assumptions, the DIT offers *atomic
// single-entry updates only*: there are no transactions, no triggers
// (LTAP adds those externally), and set-valued attributes hold atomic
// strings only.
package directory

import (
	"sort"
	"strings"
	"sync/atomic"

	"metacomm/internal/record"
)

// Attrs is a case-insensitive multi-valued attribute map. Attribute type
// names compare case-insensitively but the first-seen spelling is preserved
// for display, as LDAP servers do.
//
// Representation: a small slice of fields rather than two maps. Real
// entries carry a handful of attributes, so linear scans beat hashing, and
// the per-entry footprint is one slice header plus one attrField per
// attribute — with both the lowered key and the display spelling interned
// (see internal/record), a million entries share one string object per
// distinct attribute name instead of storing a million copies.
type Attrs struct {
	fields []attrField
	// view caches the deterministic iteration order used by Names and
	// EachSorted. The DIT's copy-on-write discipline means an installed
	// *Attrs is never mutated, so concurrent lazy initialization here is
	// an idempotent race (safe under atomic.Pointer); mutators, which only
	// ever run on private working copies, drop the cache.
	view atomic.Pointer[sortedView]
}

// attrField is one attribute: its lowered (canonical) key, its first-seen
// display spelling, and its values; Key and Display are interned. It is the
// codec's field type, so a journal or replication frame decodes straight
// into an Attrs and encodes straight out of one.
type attrField = record.Field

// sortedView is the cached iteration order: field indices sorted by lowered
// key (which is exactly case-insensitive order of the display spellings).
type sortedView struct {
	order []int
}

// sorted returns the cached view, computing it on first use.
func (a *Attrs) sorted() *sortedView {
	if v := a.view.Load(); v != nil {
		return v
	}
	v := &sortedView{order: make([]int, len(a.fields))}
	for i := range v.order {
		v.order[i] = i
	}
	sort.Slice(v.order, func(i, j int) bool {
		return a.fields[v.order[i]].Key < a.fields[v.order[j]].Key
	})
	a.view.Store(v)
	return v
}

// NewAttrs returns an empty attribute map.
func NewAttrs() *Attrs { return &Attrs{} }

// AttrsFrom builds an Attrs from a plain map (convenient in tests and
// loaders).
func AttrsFrom(m map[string][]string) *Attrs {
	a := NewAttrs()
	for k, vs := range m {
		for _, v := range vs {
			a.Add(k, v)
		}
	}
	return a
}

// lower canonicalizes an attribute type name.
func lower(s string) string { return record.Lower(s) }

// idx returns the field index for the (already lowered) key, or -1.
func (a *Attrs) idx(k string) int {
	for i := range a.fields {
		if a.fields[i].Key == k {
			return i
		}
	}
	return -1
}

// Get returns all values of attr (nil when absent). The returned slice is
// shared; callers must not mutate it.
func (a *Attrs) Get(attr string) []string {
	if i := a.idx(lower(attr)); i >= 0 {
		return a.fields[i].Vals
	}
	return nil
}

// First returns the first value of attr, or "".
func (a *Attrs) First(attr string) string {
	if vs := a.Get(attr); len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Has reports whether attr has at least one value.
func (a *Attrs) Has(attr string) bool { return len(a.Get(attr)) > 0 }

// HasValue reports whether attr contains value (case-insensitively).
func (a *Attrs) HasValue(attr, value string) bool {
	for _, v := range a.Get(attr) {
		if strings.EqualFold(v, value) {
			return true
		}
	}
	return false
}

// Put replaces all values of attr.
func (a *Attrs) Put(attr string, values ...string) {
	a.view.Store(nil)
	k := lower(attr)
	i := a.idx(k)
	if len(values) == 0 {
		if i >= 0 {
			a.fields = append(a.fields[:i], a.fields[i+1:]...)
		}
		return
	}
	vals := append([]string(nil), values...)
	if i >= 0 {
		a.fields[i].Vals = vals
		return
	}
	a.fields = append(a.fields, attrField{Key: record.Intern(k), Display: record.Intern(attr), Vals: vals})
}

// Add appends a value to attr, refusing duplicates (LDAP sets have no
// duplicate values). It reports whether the value was added.
func (a *Attrs) Add(attr, value string) bool {
	if a.HasValue(attr, value) {
		return false
	}
	a.view.Store(nil)
	k := lower(attr)
	if i := a.idx(k); i >= 0 {
		a.fields[i].Vals = append(a.fields[i].Vals, value)
		return true
	}
	a.fields = append(a.fields, attrField{Key: record.Intern(k), Display: record.Intern(attr), Vals: []string{value}})
	return true
}

// DeleteValue removes one value from attr, reporting whether it was present.
// When the last value goes, the attribute disappears.
func (a *Attrs) DeleteValue(attr, value string) bool {
	i := a.idx(lower(attr))
	if i < 0 {
		return false
	}
	vs := a.fields[i].Vals
	for vi, v := range vs {
		if strings.EqualFold(v, value) {
			a.view.Store(nil)
			vs = append(vs[:vi], vs[vi+1:]...)
			if len(vs) == 0 {
				a.fields = append(a.fields[:i], a.fields[i+1:]...)
			} else {
				a.fields[i].Vals = vs
			}
			return true
		}
	}
	return false
}

// Delete removes attr entirely, reporting whether it existed.
func (a *Attrs) Delete(attr string) bool {
	i := a.idx(lower(attr))
	if i < 0 {
		return false
	}
	a.view.Store(nil)
	a.fields = append(a.fields[:i], a.fields[i+1:]...)
	return true
}

// Names returns the display spellings of all present attributes, sorted
// case-insensitively for deterministic iteration. The slice is the caller's
// to keep.
func (a *Attrs) Names() []string {
	v := a.sorted()
	out := make([]string, len(v.order))
	for i, fi := range v.order {
		out[i] = a.fields[fi].Display
	}
	return out
}

// EachSorted calls f for every attribute in the same deterministic order as
// Names, passing the display spelling and the shared (do not mutate) value
// slice. It exists for the search result conversion path, which would
// otherwise allocate a sorted name slice and re-hash every display name per
// entry per search.
func (a *Attrs) EachSorted(f func(attr string, values []string)) {
	v := a.sorted()
	for _, fi := range v.order {
		f(a.fields[fi].Display, a.fields[fi].Vals)
	}
}

// EachKeyed is EachSorted that also passes each attribute's interned
// lowered key, for callers that index by it.
func (a *Attrs) EachKeyed(f func(key, attr string, values []string)) {
	v := a.sorted()
	for _, fi := range v.order {
		f(a.fields[fi].Key, a.fields[fi].Display, a.fields[fi].Vals)
	}
}

// Len returns the number of distinct attribute types.
func (a *Attrs) Len() int { return len(a.fields) }

// Clone returns a deep copy. Interned name objects are shared by design;
// value slices are copied.
func (a *Attrs) Clone() *Attrs {
	c := &Attrs{}
	if len(a.fields) > 0 {
		c.fields = make([]attrField, len(a.fields))
		copy(c.fields, a.fields)
		for i := range c.fields {
			c.fields[i].Vals = append([]string(nil), c.fields[i].Vals...)
		}
	}
	return c
}

// Map returns a plain map copy keyed by display names.
func (a *Attrs) Map() map[string][]string {
	out := make(map[string][]string, len(a.fields))
	for i := range a.fields {
		out[a.fields[i].Display] = append([]string(nil), a.fields[i].Vals...)
	}
	return out
}

// Equal reports whether two attribute maps hold the same types and value
// sets (value order-insensitive, case-insensitive values).
func (a *Attrs) Equal(b *Attrs) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.fields {
		f := &a.fields[i]
		ws := b.Get(f.Key)
		if len(f.Vals) != len(ws) {
			return false
		}
		for _, v := range f.Vals {
			if !b.HasValue(f.Key, v) {
				return false
			}
		}
	}
	return true
}
