package ltap

import (
	"fmt"

	"metacomm/internal/ldap"
	"metacomm/internal/lexpress"
)

// EventKind is the kind of intercepted LDAP update.
type EventKind string

// Event kinds.
const (
	EventAdd      EventKind = "add"
	EventDelete   EventKind = "delete"
	EventModify   EventKind = "modify"
	EventModifyDN EventKind = "modifydn"
)

// Change mirrors ldap.Change for the action wire protocol.
type Change struct {
	Op     string   `json:"op"` // add | delete | replace
	Attr   string   `json:"attr"`
	Values []string `json:"values,omitempty"`
}

// Event is one intercepted update delivered to the trigger action server.
// LTAP resolves the entry's current state (Old) before invoking the action,
// because the repositories themselves cannot report before-images.
type Event struct {
	// ID sequences events on a connection.
	ID uint64 `json:"id"`
	// Kind of update.
	Kind EventKind `json:"kind"`
	// DN of the target entry (string form as received).
	DN string `json:"dn"`
	// BoundDN identifies the client that issued the update.
	BoundDN string `json:"boundDN,omitempty"`

	// Add: the new entry's attributes.
	// Modify: unused (see Changes).
	Attrs lexpress.Record `json:"attrs,omitempty"`
	// Modify: the requested changes.
	Changes []Change `json:"changes,omitempty"`
	// ModifyDN: the new RDN and deleteOldRDN flag.
	NewRDN       string `json:"newRDN,omitempty"`
	DeleteOldRDN bool   `json:"deleteOldRDN,omitempty"`

	// Old is the entry's attributes before the update (nil for Add or when
	// the entry does not exist).
	Old lexpress.Record `json:"old,omitempty"`
}

// Result is the action server's reply.
type Result struct {
	ID      uint64 `json:"id"`
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

// LDAPResult converts to an ldap.Result.
func (r Result) LDAPResult() ldap.Result {
	return ldap.Result{Code: ldap.ResultCode(r.Code), Message: r.Message}
}

// Action is the trigger action server interface. In MetaComm the Update
// Manager implements it and the gateway calls it in process; RemoteAction
// carries it over a persistent connection.
type Action interface {
	// OnUpdate is invoked with the target entry locked. The returned
	// result is relayed to the LDAP client; the action is responsible for
	// servicing the update (MetaComm mode) — LTAP does not apply it.
	OnUpdate(ev Event) ldap.Result
}

// ActionFunc adapts a function to Action.
type ActionFunc func(ev Event) ldap.Result

// OnUpdate implements Action.
func (f ActionFunc) OnUpdate(ev Event) ldap.Result { return f(ev) }

// ChangesFromLDAP converts wire changes.
func ChangesFromLDAP(cs []ldap.Change) []Change {
	out := make([]Change, 0, len(cs))
	for _, c := range cs {
		out = append(out, Change{Op: c.Op.String(), Attr: c.Attribute.Type, Values: c.Attribute.Values})
	}
	return out
}

// ToLDAP converts a wire change back to an ldap.Change.
func (c Change) ToLDAP() (ldap.Change, error) {
	var op ldap.ModOp
	switch c.Op {
	case "add":
		op = ldap.ModAdd
	case "delete":
		op = ldap.ModDelete
	case "replace":
		op = ldap.ModReplace
	default:
		return ldap.Change{}, fmt.Errorf("ltap: unknown change op %q", c.Op)
	}
	return ldap.Change{Op: op, Attribute: ldap.Attribute{Type: c.Attr, Values: c.Values}}, nil
}
