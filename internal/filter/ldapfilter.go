package filter

import (
	"fmt"
	"strings"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/lexpress"
	"metacomm/internal/mcschema"
)

// LDAPClient is the client surface the LDAP filter needs; both
// *ldapclient.Conn (network) and in-process adapters satisfy it.
type LDAPClient interface {
	Search(req *ldap.SearchRequest) ([]*ldapclient.Entry, error)
	Add(dn string, attrs []ldap.Attribute) error
	Modify(dn string, changes []ldap.Change) error
	ModifyDN(dn, newRDN string, deleteOldRDN bool) error
	Delete(dn string) error
}

// LDAPFilter applies lexpress target updates (target schema "ldap") to an
// LDAP server. On the DDU path the client points at LTAP, so every applied
// update is trapped, locked, and serialized by the Update Manager exactly
// as the paper describes (§4.4); the Update Manager itself uses a second
// instance pointed at the backing server.
type LDAPFilter struct {
	Client LDAPClient
	// Suffix is the directory suffix ("o=Lucent").
	Suffix dn.DN
	// PeopleBase is where device-discovered people are created.
	PeopleBase dn.DN
	// RDNAttr names the RDN attribute for person entries ("cn").
	RDNAttr string

	// AfterRename, when set, runs between the ModifyRDN and Modify halves
	// of a non-atomic rename pair; returning an error aborts the pair —
	// this is the §5.1 crash window, made injectable for tests.
	AfterRename func() error
}

// Name returns "ldap".
func (f *LDAPFilter) Name() string { return "ldap" }

// Locate finds the unique entry whose keyAttr equals key below the suffix.
// It returns nil when absent.
func (f *LDAPFilter) Locate(keyAttr, key string) (*ldapclient.Entry, error) {
	entries, err := f.Client.Search(&ldap.SearchRequest{
		BaseDN: f.Suffix.String(),
		Scope:  ldap.ScopeWholeSubtree,
		Filter: ldap.Eq(keyAttr, key),
	})
	if err != nil {
		return nil, err
	}
	switch len(entries) {
	case 0:
		return nil, nil
	case 1:
		return entries[0], nil
	}
	return nil, fmt.Errorf("ldapfilter: key %s=%q matches %d entries", keyAttr, key, len(entries))
}

// Apply performs a translated update against the directory. keyAttr is the
// LDAP-side key attribute of the mapping that produced u (its KeyAttrs
// target when mapping device->ldap).
func (f *LDAPFilter) Apply(u *lexpress.TargetUpdate, keyAttr string) error {
	if u == nil {
		return nil
	}
	switch u.Op {
	case lexpress.OpAdd:
		return f.applyAdd(u, keyAttr)
	case lexpress.OpModify:
		return f.applyModify(u, keyAttr)
	case lexpress.OpDelete:
		return f.applyDelete(u, keyAttr)
	}
	return fmt.Errorf("ldapfilter: unknown op %v", u.Op)
}

func (f *LDAPFilter) applyAdd(u *lexpress.TargetUpdate, keyAttr string) error {
	existing, err := f.Locate(keyAttr, u.Key)
	if err != nil {
		return err
	}
	if existing != nil {
		if u.Conditional {
			return f.modifyEntry(existing, u.Old, u.New)
		}
		return &ldap.ResultError{Result: ldap.Result{Code: ldap.ResultEntryAlreadyExists,
			Message: fmt.Sprintf("entry with %s=%s exists", keyAttr, u.Key)}}
	}
	return f.AddEntry(u.New, u.Key)
}

// AddEntry creates a person entry for img under the people base, qualifying
// the RDN with the key when the natural name is already taken by someone
// else. It is used by translated adds and by the synchronization passes
// (which already know the entry is absent).
func (f *LDAPFilter) AddEntry(img lexpress.Record, key string) error {
	err := f.AddEntryOnce(img)
	if ldap.IsCode(err, ldap.ResultEntryAlreadyExists) {
		err = f.AddEntryQualified(img, key)
	}
	return err
}

// AddEntryOnce attempts the natural-RDN add and surfaces entryAlreadyExists
// to the caller instead of retrying. The snapshot+delta sync engine uses it
// so a concurrent DDU creating the same person is detected (and converged
// against) rather than shadowed by a duplicate qualified-RDN entry.
func (f *LDAPFilter) AddEntryOnce(img lexpress.Record) error {
	rdnVal := img.First(f.RDNAttr)
	if rdnVal == "" {
		return fmt.Errorf("ldapfilter: new entry has no %s", f.RDNAttr)
	}
	name := f.PeopleBase.Child(dn.RDN{{Attr: f.RDNAttr, Value: rdnVal}})
	return f.Client.Add(name.String(), recordToAttributes(img))
}

// AddEntryQualified creates the entry under an RDN qualified with the key —
// the fallback when the natural name is already taken by a different
// person.
func (f *LDAPFilter) AddEntryQualified(img lexpress.Record, key string) error {
	rdnVal := img.First(f.RDNAttr)
	if rdnVal == "" {
		return fmt.Errorf("ldapfilter: new entry has no %s", f.RDNAttr)
	}
	name := f.PeopleBase.Child(dn.RDN{{Attr: f.RDNAttr, Value: fmt.Sprintf("%s (%s)", rdnVal, key)}})
	return f.Client.Add(name.String(), recordToAttributes(img))
}

func (f *LDAPFilter) applyModify(u *lexpress.TargetUpdate, keyAttr string) error {
	lookup := u.OldKey
	if lookup == "" {
		lookup = u.Key
	}
	existing, err := f.Locate(keyAttr, lookup)
	if err != nil {
		return err
	}
	if existing == nil && lookup != u.Key {
		existing, err = f.Locate(keyAttr, u.Key)
		if err != nil {
			return err
		}
	}
	if existing == nil {
		if u.Conditional {
			return f.applyAdd(u, keyAttr)
		}
		return &ldap.ResultError{Result: ldap.Result{Code: ldap.ResultNoSuchObject,
			Message: fmt.Sprintf("no entry with %s=%s", keyAttr, lookup)}}
	}
	return f.modifyEntry(existing, u.Old, u.New)
}

func (f *LDAPFilter) applyDelete(u *lexpress.TargetUpdate, keyAttr string) error {
	key := u.OldKey
	if key == "" {
		key = u.Key
	}
	existing, err := f.Locate(keyAttr, key)
	if err != nil {
		return err
	}
	if existing == nil {
		if u.Conditional {
			return nil
		}
		return &ldap.ResultError{Result: ldap.Result{Code: ldap.ResultNoSuchObject,
			Message: fmt.Sprintf("no entry with %s=%s", keyAttr, key)}}
	}
	// A device record disappearing does not delete the person — it clears
	// the attributes the device exclusively owns (the mapping's "owns"
	// declaration) from the entry; shared data like the telephone number
	// and the person entry itself survive.
	var changes []ldap.Change
	for _, a := range u.Owned {
		if strings.EqualFold(a, "objectclass") || strings.EqualFold(a, f.RDNAttr) {
			continue
		}
		if entryAttr(existing, a) != nil {
			changes = append(changes, ldap.Change{Op: ldap.ModDelete,
				Attribute: ldap.Attribute{Type: a}})
		}
	}
	changes = append(changes, ldap.Change{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: mcschema.AttrLastUpdater, Values: u.Old.Get(mcschema.AttrLastUpdater)}})
	if len(u.Old.Get(mcschema.AttrLastUpdater)) == 0 {
		changes = changes[:len(changes)-1]
	}
	if len(changes) == 0 {
		return nil
	}
	return f.Client.Modify(existing.DN, changes)
}

// ConvergeEntry converges an already-located entry toward the new image
// (synchronization's modify path — no key lookup needed).
func (f *LDAPFilter) ConvergeEntry(cur *ldapclient.Entry, old, new lexpress.Record) error {
	return f.modifyEntry(cur, old, new)
}

// ConvergePlan is the computed convergence for one entry: an optional
// rename followed by an optional attribute modify. Splitting planning from
// execution lets the sync engine tell an entry already in sync (an empty
// plan) from one it converged.
type ConvergePlan struct {
	// RenameFrom/NewRDN describe the rename half when the mapping changes
	// the RDN attribute; RenameFrom == "" means no rename.
	RenameFrom string
	NewRDN     string
	// TargetDN is the entry's DN after any rename; Changes apply to it.
	TargetDN string
	Changes  []ldap.Change
}

// Empty reports whether the plan performs no operation at all.
func (p *ConvergePlan) Empty() bool { return p.RenameFrom == "" && len(p.Changes) == 0 }

// PlanConverge computes the convergence of cur toward the new image without
// executing it, limited to the attributes this mapping manages (the union
// of old/new image attrs). An RDN-attribute change becomes the paper's
// non-atomic ModifyRDN+Modify pair (§5.1), represented as the plan's rename
// half.
func (f *LDAPFilter) PlanConverge(cur *ldapclient.Entry, old, new lexpress.Record) (ConvergePlan, error) {
	var plan ConvergePlan
	curDN, err := dn.Parse(cur.DN)
	if err != nil {
		return plan, err
	}
	plan.TargetDN = cur.DN

	// Half one: the rename, when the mapping changes the RDN attribute.
	newRDNVal := new.First(f.RDNAttr)
	if newRDNVal != "" && !strings.EqualFold(curDN.FirstValue(f.RDNAttr), newRDNVal) && curDN.FirstValue(f.RDNAttr) != "" {
		newRDN := dn.RDN{{Attr: f.RDNAttr, Value: newRDNVal}}
		plan.RenameFrom = cur.DN
		plan.NewRDN = newRDN.String()
		plan.TargetDN = curDN.WithRDN(newRDN).String()
	}

	// Half two: the attribute modify.
	seen := map[string]bool{}
	for _, a := range new.Attrs() {
		seen[a] = true
		if strings.EqualFold(a, f.RDNAttr) {
			continue // handled by the rename
		}
		if strings.EqualFold(a, "objectclass") {
			// Object classes accumulate across device mappings; add the
			// missing values, never remove any.
			for _, v := range new.Get(a) {
				if !entryHasValue(cur, a, v) {
					plan.Changes = append(plan.Changes, ldap.Change{Op: ldap.ModAdd,
						Attribute: ldap.Attribute{Type: "objectClass", Values: []string{v}}})
				}
			}
			continue
		}
		if !sameStringSet(entryAttr(cur, a), new.Get(a)) {
			plan.Changes = append(plan.Changes, ldap.Change{Op: ldap.ModReplace,
				Attribute: ldap.Attribute{Type: a, Values: new.Get(a)}})
		}
	}
	if old != nil {
		for _, a := range old.Attrs() {
			if seen[a] || strings.EqualFold(a, "objectclass") || strings.EqualFold(a, f.RDNAttr) {
				continue
			}
			if entryAttr(cur, a) != nil {
				plan.Changes = append(plan.Changes, ldap.Change{Op: ldap.ModDelete,
					Attribute: ldap.Attribute{Type: a}})
			}
		}
	}
	return plan, nil
}

// ApplyConverge executes a plan: the rename (with the injectable §5.1 crash
// window between the halves), then the modify.
func (f *LDAPFilter) ApplyConverge(plan ConvergePlan) error {
	if plan.RenameFrom != "" {
		if err := f.Client.ModifyDN(plan.RenameFrom, plan.NewRDN, true); err != nil {
			return err
		}
		if f.AfterRename != nil {
			if err := f.AfterRename(); err != nil {
				return fmt.Errorf("ldapfilter: aborted between ModifyRDN and Modify: %w", err)
			}
		}
	}
	if len(plan.Changes) == 0 {
		return nil
	}
	return f.Client.Modify(plan.TargetDN, plan.Changes)
}

// modifyEntry converges an existing entry toward the new image: plan, then
// apply.
func (f *LDAPFilter) modifyEntry(cur *ldapclient.Entry, old, new lexpress.Record) error {
	plan, err := f.PlanConverge(cur, old, new)
	if err != nil {
		return err
	}
	return f.ApplyConverge(plan)
}

func recordToAttributes(rec lexpress.Record) []ldap.Attribute {
	var out []ldap.Attribute
	for _, a := range rec.Attrs() {
		out = append(out, ldap.Attribute{Type: a, Values: rec.Get(a)})
	}
	return out
}

func entryAttr(e *ldapclient.Entry, name string) []string { return e.Attr(name) }

func entryHasValue(e *ldapclient.Entry, name, value string) bool {
	for _, v := range e.Attr(name) {
		if strings.EqualFold(v, value) {
			return true
		}
	}
	return false
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, v := range a {
		count[strings.ToLower(v)]++
	}
	for _, v := range b {
		count[strings.ToLower(v)]--
		if count[strings.ToLower(v)] < 0 {
			return false
		}
	}
	return true
}
