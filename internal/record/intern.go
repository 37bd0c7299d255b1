package record

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Attribute-name interning. A million-entry directory stores the same small
// set of attribute type names ("cn", "telephoneNumber", objectClass", ...)
// once per entry; interning collapses them to one canonical string object
// per distinct spelling, so per-entry cost for names is one string header,
// not one heap copy. The table is global (names are workload vocabulary,
// not per-DIT data) and append-only.
//
// Ownership rules (DESIGN.md §13): names are interned only where one is
// stored into a Field — the directory's Attrs.Put/Add and this package's
// decoder. Read paths (Get/Has/...) never intern: lookups compare by
// content, and interning on reads would let a scanning client grow the
// table. As a backstop against pathological schemas the table stops
// accepting new names past internMax and hands back the input unchanged —
// correctness never depends on interning, only footprint does.

const internMax = 1 << 16

var (
	internTab  sync.Map // string -> string (key == value, canonical object)
	internSize atomic.Int64
)

// Intern returns the canonical string object equal to s.
func Intern(s string) string {
	if v, ok := internTab.Load(s); ok {
		return v.(string)
	}
	if internSize.Load() >= internMax {
		return s
	}
	// Clone so the canonical object never pins a larger backing array the
	// caller sliced s out of (e.g. a decoded wire buffer).
	s = strings.Clone(s)
	v, loaded := internTab.LoadOrStore(s, s)
	if !loaded {
		internSize.Add(1)
	}
	return v.(string)
}

// InternedNames reports how many distinct attribute-name spellings the
// global intern table holds.
func InternedNames() int { return int(internSize.Load()) }

// Lower canonicalizes an attribute type name. Names are ASCII in practice,
// so the common all-lower spelling returns its input unchanged with no
// allocation.
func Lower(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			return strings.ToLower(s)
		}
	}
	return s
}
