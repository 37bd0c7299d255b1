package ltap

import (
	"sync/atomic"
	"time"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
	"metacomm/internal/lexpress"
)

// Extended-operation OIDs for the quiesce facility (private-enterprise arc
// chosen for the prototype).
const (
	OIDQuiesceBegin = "1.3.6.1.4.1.1751.2.1"
	OIDQuiesceEnd   = "1.3.6.1.4.1.1751.2.2"
)

// Backend abstracts the real LDAP server behind the gateway. It matches the
// subset of ldapclient.Conn the gateway needs, so the gateway can run over a
// network connection to a separate server (the paper's deployment, §5.5) or
// in process on the DIT it shares a process with (ldapserver.NewDITClient).
type Backend interface {
	Bind(name, password string) error
	Search(req *ldap.SearchRequest) ([]*ldapclient.Entry, error)
	Compare(dn, attr, value string) (bool, error)
}

// Gateway is the LTAP proxy: an ldapserver.Handler that forwards reads to
// the backing LDAP server and traps updates, locking the target entries and
// invoking the trigger action (the Update Manager) which services them.
//
// Read traffic never touches the action server — LDAP workloads are heavily
// read-oriented, and keeping reads off the UM machine is the scalability
// argument of §5.5.
type Gateway struct {
	backend  Backend
	action   Action
	locks    *lockTable
	nextID   atomic.Uint64
	triggers triggerSet

	searches       atomic.Uint64
	searchNs       atomic.Uint64
	updates        atomic.Uint64
	backendFetch   atomic.Uint64
	backendFetchNs atomic.Uint64

	// AdminDN may quiesce/unquiesce via extended operations ("" disables
	// the check, prototype mode).
	AdminDN string
}

// GatewayStats is a point-in-time snapshot of the gateway's read-path and
// trap-path counters.
type GatewayStats struct {
	// Searches / SearchNs cover proxied client reads.
	Searches uint64
	SearchNs uint64
	// Updates counts trapped update operations.
	Updates uint64
	// BackendFetches / BackendFetchNs cover the before-image read every trap
	// makes from the backend.
	BackendFetches uint64
	BackendFetchNs uint64
	// Quiesces / QuiesceNs count the quiesce windows and their total wall
	// time; UpdatesDelayedByQuiesce counts update operations that had to
	// wait out a window.
	Quiesces                uint64
	QuiesceNs               uint64
	UpdatesDelayedByQuiesce uint64
	Cache                   CacheStats
}

// CacheStats is always zero: the gateway keeps no before-image cache, since
// every before-image is one backend read under the entry's LTAP lock. The
// benchmark's ltap.before_image_hit_ratio still reads these two fields.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

var _ ldapserver.Handler = (*Gateway)(nil)

// NewGateway builds a gateway over a backend with the given action server.
func NewGateway(backend Backend, action Action) *Gateway {
	return &Gateway{backend: backend, action: action, locks: newLockTable()}
}

// Stats snapshots the gateway's counters.
func (g *Gateway) Stats() GatewayStats {
	s := GatewayStats{
		Searches:       g.searches.Load(),
		SearchNs:       g.searchNs.Load(),
		Updates:        g.updates.Load(),
		BackendFetches: g.backendFetch.Load(),
		BackendFetchNs: g.backendFetchNs.Load(),
	}
	s.Quiesces, s.QuiesceNs, s.UpdatesDelayedByQuiesce = g.locks.quiesceStats()
	return s
}

// Quiesce enters quiesce mode: blocks until in-flight updates drain, then
// disallows updates until Unquiesce. It reports whether the transition
// happened (false when already quiesced).
func (g *Gateway) Quiesce() bool { return g.locks.beginQuiesce() }

// Unquiesce leaves quiesce mode.
func (g *Gateway) Unquiesce() { g.locks.endQuiesce() }

// Quiesced reports quiesce state.
func (g *Gateway) Quiesced() bool { return g.locks.quiesced() }

// Bind forwards authentication to the backing server.
func (g *Gateway) Bind(c *ldapserver.Conn, req *ldap.BindRequest) ldap.Result {
	if err := g.backend.Bind(req.Name, req.Password); err != nil {
		return resultFromErr(err)
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// Search proxies reads straight through.
func (g *Gateway) Search(c *ldapserver.Conn, req *ldap.SearchRequest, send func(*ldap.SearchResultEntry) error) ldap.Result {
	start := time.Now()
	entries, err := g.backend.Search(req)
	g.searches.Add(1)
	g.searchNs.Add(uint64(time.Since(start)))
	if err != nil && len(entries) == 0 {
		return resultFromErr(err)
	}
	for _, e := range entries {
		// The two types have the same fields; the backend built e afresh.
		if sendErr := send((*ldap.SearchResultEntry)(e)); sendErr != nil {
			return ldap.Result{Code: ldap.ResultOther, Message: sendErr.Error()}
		}
	}
	if err != nil {
		return resultFromErr(err)
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// Compare proxies straight through.
func (g *Gateway) Compare(c *ldapserver.Conn, req *ldap.CompareRequest) ldap.Result {
	match, err := g.backend.Compare(req.DN, req.Attr, req.Value)
	if err != nil {
		return resultFromErr(err)
	}
	if match {
		return ldap.Result{Code: ldap.ResultCompareTrue}
	}
	return ldap.Result{Code: ldap.ResultCompareFalse}
}

func resultFromErr(err error) ldap.Result {
	if re, ok := err.(*ldap.ResultError); ok {
		return re.Result
	}
	return ldap.Result{Code: ldap.ResultOther, Message: err.Error()}
}

// fetchOld reads the entry's current attributes with a base-scope search
// against the backing server. The trap path calls it holding the entry's
// LTAP lock, and every update to the entry that goes through the gateway
// commits under that lock, so the image is the entry's last committed state
// — including writes that bypassed the gateway (the UM's write-backs,
// replicated applies), which land in the directory before the read.
func (g *Gateway) fetchOld(name string) lexpress.Record {
	start := time.Now()
	entries, err := g.backend.Search(&ldap.SearchRequest{
		BaseDN: name,
		Scope:  ldap.ScopeBaseObject,
	})
	g.backendFetch.Add(1)
	g.backendFetchNs.Add(uint64(time.Since(start)))
	if err != nil || len(entries) != 1 {
		return nil
	}
	rec := lexpress.NewRecord()
	for _, a := range entries[0].Attributes {
		rec.Set(a.Type, a.Values...)
	}
	return rec
}

// trap locks the involved entries, resolves the before-image, and hands the
// event to the action server.
func (g *Gateway) trap(c *ldapserver.Conn, ev Event, names ...dn.DN) ldap.Result {
	keys := g.locks.lockEntries(names...)
	g.updates.Add(1)
	ev.ID = g.nextID.Add(1)
	ev.BoundDN = c.BoundDN
	ev.Old = g.fetchOld(ev.DN)
	res := g.action.OnUpdate(ev)
	g.locks.unlockEntries(keys)
	// Post-update triggers fire outside the locks, asynchronously.
	g.fireTriggers(ev, res, names[0])
	return res
}

// Add traps an add request.
func (g *Gateway) Add(c *ldapserver.Conn, req *ldap.AddRequest) ldap.Result {
	name, err := dn.Parse(req.DN)
	if err != nil {
		return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: err.Error()}
	}
	attrs := lexpress.NewRecord()
	for _, a := range req.Attributes {
		attrs.Set(a.Type, a.Values...)
	}
	return g.trap(c, Event{Kind: EventAdd, DN: req.DN, Attrs: attrs}, name)
}

// Delete traps a delete request.
func (g *Gateway) Delete(c *ldapserver.Conn, req *ldap.DeleteRequest) ldap.Result {
	name, err := dn.Parse(req.DN)
	if err != nil {
		return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: err.Error()}
	}
	return g.trap(c, Event{Kind: EventDelete, DN: req.DN}, name)
}

// Modify traps a modify request.
func (g *Gateway) Modify(c *ldapserver.Conn, req *ldap.ModifyRequest) ldap.Result {
	name, err := dn.Parse(req.DN)
	if err != nil {
		return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: err.Error()}
	}
	return g.trap(c, Event{Kind: EventModify, DN: req.DN, Changes: ChangesFromLDAP(req.Changes)}, name)
}

// ModifyDN traps a modifyDN request, locking both the old and the new name
// so concurrent operations against either block until the rename settles.
// A move under a new superior is refused before anything is locked, as the
// directory itself refuses it: the event and the Update Manager carry only a
// new RDN.
func (g *Gateway) ModifyDN(c *ldapserver.Conn, req *ldap.ModifyDNRequest) ldap.Result {
	name, err := dn.Parse(req.DN)
	if err != nil {
		return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: err.Error()}
	}
	if req.NewSuperior != "" {
		return ldap.Result{Code: ldap.ResultUnwillingToPerform, Message: "newSuperior not supported"}
	}
	newRDN, err := dn.Parse(req.NewRDN)
	if err != nil || newRDN.Depth() != 1 {
		return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: "bad newRDN"}
	}
	newName := name.WithRDN(newRDN.RDN())
	return g.trap(c, Event{
		Kind: EventModifyDN, DN: req.DN,
		NewRDN: req.NewRDN, DeleteOldRDN: req.DeleteOldRDN,
	}, name, newName)
}

// Extended services the quiesce facility.
func (g *Gateway) Extended(c *ldapserver.Conn, req *ldap.ExtendedRequest) *ldap.ExtendedResponse {
	switch req.Name {
	case OIDQuiesceBegin, OIDQuiesceEnd:
		if g.AdminDN != "" && c.BoundDN != g.AdminDN {
			return &ldap.ExtendedResponse{Result: ldap.Result{
				Code: ldap.ResultInsufficientAccess, Message: "quiesce requires admin bind"}}
		}
		if req.Name == OIDQuiesceBegin {
			if !g.Quiesce() {
				return &ldap.ExtendedResponse{Name: req.Name, Result: ldap.Result{
					Code: ldap.ResultUnwillingToPerform, Message: "already quiesced"}}
			}
		} else {
			g.Unquiesce()
		}
		return &ldap.ExtendedResponse{Name: req.Name, Result: ldap.Result{Code: ldap.ResultSuccess}}
	}
	return &ldap.ExtendedResponse{Result: ldap.Result{
		Code: ldap.ResultProtocolError, Message: "unsupported extended operation " + req.Name}}
}
