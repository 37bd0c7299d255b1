// Package wba implements MetaComm's Web-Based Administration (paper Fig. 1
// and §4.5): a single point of administration for the telecom devices that
// speaks nothing but LDAP to the LTAP gateway — demonstrating that "any
// LDAP tool" can administer the integrated devices. Assigning a person an
// extension here configures the PBX; giving them a mailbox configures the
// messaging platform; the intuitive Web interface "compares favorably with
// proprietary interfaces" (§4.5).
package wba

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
	"metacomm/internal/ltap"
	"metacomm/internal/mcschema"
	"metacomm/internal/replica"
	"metacomm/internal/um"
)

// Server is the WBA HTTP handler. It holds one LDAP connection to LTAP;
// handlers serialize on it (the client is internally synchronized).
type Server struct {
	// LDAP is the connection to the LTAP gateway.
	LDAP *ldapclient.Conn
	// Suffix is the directory suffix ("o=Lucent").
	Suffix string
	// Stats, when set, feeds the Update Manager status page (the WBA may
	// run on a machine without the UM; then the page says so).
	Stats func() um.Stats
	// GatewayStats, when set, feeds the LTAP gateway section of the status
	// page: read-path and before-image read latency, quiesce windows.
	GatewayStats func() ltap.GatewayStats
	// SyncStats, when set, feeds the synchronization section of the status
	// page: per-device snapshot+delta phase timings for the most recent
	// pass (um.LastSyncStats).
	SyncStats func() map[string]um.SyncStats
	// OutboxStats, when set, feeds the device-outbox section of the status
	// page: per-device circuit-breaker state, backlog, and retry/drain
	// counters (um.OutboxStats).
	OutboxStats func() []um.OutboxStats
	// JournalStats, when set, feeds the directory-journal section of the
	// status page: group-commit batching, fsync amortization, and commit
	// latency (directory.JournalStats; zero when the directory runs
	// in-memory).
	JournalStats func() directory.JournalStats
	// ReplicationStats, when set, feeds the multi-master replication section
	// of the status page: publisher connection counters plus per-peer link
	// progress (replica.Replicator.Stats).
	ReplicationStats func() replica.Stats
	// LTAPWireStats / DirWireStats, when set, feed the wire-path section of
	// the status page: per-listener message/flush counters and the number of
	// idle connections parked.
	LTAPWireStats func() ldapserver.WireStats
	DirWireStats  func() ldapserver.WireStats

	mux *http.ServeMux
}

// New builds a WBA server over an LDAP connection.
func New(conn *ldapclient.Conn, suffix string) *Server {
	s := &Server{LDAP: conn, Suffix: suffix, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/person", s.handlePerson)
	s.mux.HandleFunc("/save", s.handleSave)
	s.mux.HandleFunc("/delete", s.handleDelete)
	s.mux.HandleFunc("/errors", s.handleErrors)
	s.mux.HandleFunc("/status", s.handleStatus)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>MetaComm Administration</title></head><body>
<h1>MetaComm — Web-Based Administration</h1>
<p><a href="/">People</a> | <a href="/errors">Update errors</a> | <a href="/status">Update Manager</a></p>
{{block "body" .}}{{end}}
</body></html>`))

var indexTmpl = template.Must(template.Must(pageTmpl.Clone()).Parse(`{{define "body"}}
<h2>People</h2>
<table border="1" cellpadding="4">
<tr><th>Name</th><th>Telephone</th><th>Extension</th><th>Mailbox</th><th>Room</th><th></th></tr>
{{range .People}}
<tr>
  <td><a href="/person?dn={{.DN}}">{{.CN}}</a></td>
  <td>{{.Telephone}}</td><td>{{.Extension}}</td><td>{{.Mailbox}}</td><td>{{.Room}}</td>
  <td><form method="POST" action="/delete"><input type="hidden" name="dn" value="{{.DN}}">
      <input type="submit" value="delete"></form></td>
</tr>
{{end}}
</table>
<h2>Add person</h2>
{{template "form" .Blank}}
{{end}}
{{define "form"}}
<form method="POST" action="/save">
<input type="hidden" name="dn" value="{{.DN}}">
<table>
<tr><td>Common name</td><td><input name="cn" value="{{.CN}}"></td></tr>
<tr><td>Surname</td><td><input name="sn" value="{{.SN}}"></td></tr>
<tr><td>Telephone</td><td><input name="telephoneNumber" value="{{.Telephone}}"></td></tr>
<tr><td>Definity extension</td><td><input name="definityExtension" value="{{.Extension}}"></td></tr>
<tr><td>Mailbox number</td><td><input name="mailboxNumber" value="{{.Mailbox}}"></td></tr>
<tr><td>Room</td><td><input name="roomNumber" value="{{.Room}}"></td></tr>
</table>
<input type="submit" value="Save">
</form>
{{end}}`))

var personTmpl = template.Must(template.Must(indexTmpl.Clone()).Parse(`{{define "body"}}
<h2>{{.Person.CN}}</h2>
{{template "form" .Person}}
<h3>Raw entry</h3>
<pre>{{.Raw}}</pre>
{{end}}`))

var errorsTmpl = template.Must(template.Must(pageTmpl.Clone()).Parse(`{{define "body"}}
<h2>Update errors</h2>
<table border="1" cellpadding="4">
<tr><th>Id</th><th>Source</th><th>Target</th><th>Op</th><th>Key</th><th>Message</th></tr>
{{range .Errors}}
<tr><td>{{.ID}}</td><td>{{.Source}}</td><td>{{.Target}}</td><td>{{.Op}}</td><td>{{.Key}}</td><td>{{.Message}}</td></tr>
{{end}}
</table>
{{end}}`))

// personView is the template model for one person.
type personView struct {
	DN, CN, SN, Telephone, Extension, Mailbox, Room string
}

func viewOf(e *ldapclient.Entry) personView {
	return personView{
		DN:        e.DN,
		CN:        e.First(mcschema.AttrCN),
		SN:        e.First(mcschema.AttrSN),
		Telephone: e.First(mcschema.AttrTelephone),
		Extension: e.First(mcschema.AttrDefinityExtension),
		Mailbox:   e.First(mcschema.AttrMailboxNumber),
		Room:      e.First(mcschema.AttrRoom),
	}
}

func (s *Server) people() ([]personView, error) {
	entries, err := s.LDAP.Search(&ldap.SearchRequest{
		BaseDN: s.Suffix,
		Scope:  ldap.ScopeWholeSubtree,
		Filter: ldap.Eq("objectClass", mcschema.ClassPerson),
	})
	if err != nil {
		return nil, err
	}
	out := make([]personView, 0, len(entries))
	for _, e := range entries {
		out = append(out, viewOf(e))
	}
	return out, nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	people, err := s.people()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	err = indexTmpl.Execute(w, map[string]any{"People": people, "Blank": personView{}})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handlePerson(w http.ResponseWriter, r *http.Request) {
	dn := r.URL.Query().Get("dn")
	if dn == "" {
		http.Error(w, "missing dn", http.StatusBadRequest)
		return
	}
	e, err := s.LDAP.SearchOne(&ldap.SearchRequest{BaseDN: dn, Scope: ldap.ScopeBaseObject})
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	var raw strings.Builder
	fmt.Fprintf(&raw, "dn: %s\n", e.DN)
	for _, a := range e.Attributes {
		for _, v := range a.Values {
			fmt.Fprintf(&raw, "%s: %s\n", a.Type, v)
		}
	}
	err = personTmpl.Execute(w, map[string]any{"Person": viewOf(e), "Raw": raw.String()})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// editableAttrs are the fields the form manages, with their form names.
var editableAttrs = []string{
	mcschema.AttrSN, mcschema.AttrTelephone, mcschema.AttrDefinityExtension,
	mcschema.AttrMailboxNumber, mcschema.AttrRoom,
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	dn := strings.TrimSpace(r.Form.Get("dn"))
	cn := strings.TrimSpace(r.Form.Get("cn"))
	if dn == "" {
		// Create.
		if cn == "" {
			http.Error(w, "common name required", http.StatusBadRequest)
			return
		}
		dn = fmt.Sprintf("cn=%s,%s", cn, s.Suffix)
		attrs := []ldap.Attribute{
			{Type: "objectClass", Values: objectClassesFor(r)},
			{Type: mcschema.AttrCN, Values: []string{cn}},
		}
		for _, a := range editableAttrs {
			if v := strings.TrimSpace(r.Form.Get(a)); v != "" {
				attrs = append(attrs, ldap.Attribute{Type: a, Values: []string{v}})
			}
		}
		if err := s.LDAP.Add(dn, attrs); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	// Update: replace non-empty fields, delete cleared ones.
	cur, err := s.LDAP.SearchOne(&ldap.SearchRequest{BaseDN: dn, Scope: ldap.ScopeBaseObject})
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	var changes []ldap.Change
	for _, a := range editableAttrs {
		v := strings.TrimSpace(r.Form.Get(a))
		switch {
		case v == "" && cur.HasAttr(a):
			changes = append(changes, ldap.Change{Op: ldap.ModDelete, Attribute: ldap.Attribute{Type: a}})
		case v != "" && cur.First(a) != v:
			changes = append(changes, ldap.Change{Op: ldap.ModReplace,
				Attribute: ldap.Attribute{Type: a, Values: []string{v}}})
		}
	}
	if len(changes) == 0 {
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	if err := s.LDAP.Modify(dn, changes); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

// objectClassesFor derives the classes a new entry needs from the fields
// supplied.
func objectClassesFor(r *http.Request) []string {
	classes := []string{mcschema.ClassPerson}
	if strings.TrimSpace(r.Form.Get(mcschema.AttrDefinityExtension)) != "" {
		classes = append(classes, mcschema.ClassDefinityUser)
	}
	if strings.TrimSpace(r.Form.Get(mcschema.AttrMailboxNumber)) != "" {
		classes = append(classes, mcschema.ClassMessagingUser)
	}
	return classes
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	dn := r.FormValue("dn")
	if dn == "" {
		http.Error(w, "missing dn", http.StatusBadRequest)
		return
	}
	if err := s.LDAP.Delete(dn); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

var statusTmpl = template.Must(template.Must(pageTmpl.Clone()).Parse(`{{define "body"}}
<h2>Update Manager</h2>
{{if .Wired}}
<table border="1" cellpadding="4">
<tr><th>Counter</th><th>Value</th></tr>
<tr><td>Shards</td><td>{{.S.Shards}}</td></tr>
<tr><td>Updates processed</td><td>{{.S.UpdatesProcessed}}</td></tr>
<tr><td>Pending (queued + executing)</td><td>{{.S.Pending}}</td></tr>
<tr><td>Queue rejections (busy)</td><td>{{.S.QueueRejections}}</td></tr>
<tr><td>Device applies</td><td>{{.S.DeviceApplies}}</td></tr>
<tr><td>Reapplies to originator</td><td>{{.S.Reapplies}}</td></tr>
<tr><td>Closure changes</td><td>{{.S.ClosureChanges}}</td></tr>
<tr><td>Errors logged</td><td>{{.S.ErrorsLogged}}</td></tr>
<tr><td>DDUs forwarded</td><td>{{.S.DDUsForwarded}}</td></tr>
</table>
<h3>Mean stage latency per update</h3>
<table border="1" cellpadding="4">
<tr><th>Stage</th><th>Mean</th></tr>
<tr><td>Enqueue wait</td><td>{{.EnqueueWait}}</td></tr>
<tr><td>Directory apply</td><td>{{.DirectoryApply}}</td></tr>
<tr><td>Device fan-out</td><td>{{.Fanout}}</td></tr>
<tr><td>Generated write-back</td><td>{{.WriteBack}}</td></tr>
</table>
{{else}}
<p>The Update Manager does not run in this process; no stats available.</p>
{{end}}
{{if .GWired}}
<h2>LTAP gateway</h2>
<table border="1" cellpadding="4">
<tr><th>Counter</th><th>Value</th></tr>
<tr><td>Searches proxied</td><td>{{.G.Searches}}</td></tr>
<tr><td>Mean search latency</td><td>{{.SearchMean}}</td></tr>
<tr><td>Updates trapped</td><td>{{.G.Updates}}</td></tr>
<tr><td>Before-image backend fetches</td><td>{{.G.BackendFetches}}</td></tr>
<tr><td>Mean backend fetch latency</td><td>{{.FetchMean}}</td></tr>
<tr><td>Quiesce windows</td><td>{{.G.Quiesces}}</td></tr>
<tr><td>Total quiesce time</td><td>{{.QuiesceTotal}}</td></tr>
<tr><td>Updates delayed by quiesce</td><td>{{.G.UpdatesDelayedByQuiesce}}</td></tr>
</table>
{{end}}
{{if .Wires}}
<h2>LDAP wire path</h2>
<table border="1" cellpadding="4">
<tr><th>Listener</th><th>Messages</th><th>Responses</th><th>Flushes</th>
<th>Responses/flush</th><th>Oversize rejected</th><th>Parked</th></tr>
{{range .Wires}}
<tr><td>{{.Name}}</td><td>{{.W.MessagesRead}}</td><td>{{.W.ResponsesWritten}}</td>
<td>{{.W.Flushes}}</td><td>{{.RespPerFlush}}</td><td>{{.W.OversizeRejected}}</td><td>{{.W.Parked}}</td></tr>
{{end}}
</table>
{{end}}
{{if .JWired}}
<h2>Directory journal (group commit)</h2>
<table border="1" cellpadding="4">
<tr><th>Counter</th><th>Value</th></tr>
<tr><td>Sync mode</td><td>{{.J.Mode}}</td></tr>
<tr><td>Updates committed</td><td>{{.J.Appends}}</td></tr>
<tr><td>Commit groups</td><td>{{.J.Batches}}</td></tr>
<tr><td>Mean group size</td><td>{{.JMeanBatch}}</td></tr>
<tr><td>Largest group</td><td>{{.J.MaxBatch}}</td></tr>
<tr><td>Fsyncs</td><td>{{.J.Fsyncs}}</td></tr>
<tr><td>Bytes written</td><td>{{.J.Bytes}}</td></tr>
<tr><td>Mean commit latency</td><td>{{.JMeanCommit}}</td></tr>
<tr><td>Torn tails truncated</td><td>{{.J.TornTails}}</td></tr>
</table>
<h3>Group size histogram</h3>
<table border="1" cellpadding="4">
<tr><th>1</th><th>2&ndash;4</th><th>5&ndash;16</th><th>17&ndash;64</th><th>65&ndash;256</th><th>&gt;256</th></tr>
<tr>{{range .JHist}}<td>{{.}}</td>{{end}}</tr>
</table>
<h3>Startup replay</h3>
<table border="1" cellpadding="4">
<tr><th>Counter</th><th>Value</th></tr>
<tr><td>Records replayed</td><td>{{.J.ReplayedRecords}}</td></tr>
<tr><td>Journal bytes decoded</td><td>{{.J.ReplayedBytes}}</td></tr>
<tr><td>Replay wall time</td><td>{{.JReplayWall}}</td></tr>
<tr><td>Records/s</td><td>{{.JReplayRate}}</td></tr>
<tr><td>Per-segment wall</td><td>{{.JSegmentWall}}</td></tr>
</table>
{{end}}
{{if .RWired}}
<h2>Multi-master replication (node {{.R.NodeID}})</h2>
<table border="1" cellpadding="4">
<tr><th>Counter</th><th>Value</th></tr>
<tr><td>Inbound connections</td><td>{{.R.Publisher.Conns}}</td></tr>
<tr><td>Resumes served</td><td>{{.R.Publisher.Resumes}}</td></tr>
<tr><td>Snapshots served</td><td>{{.R.Publisher.Snapshots}}</td></tr>
<tr><td>Records sent</td><td>{{.R.Publisher.RecordsSent}}</td></tr>
</table>
{{if .RPeers}}
<h3>Peer links</h3>
<table border="1" cellpadding="4">
<tr><th>Peer</th><th>Connected</th><th>Cursor</th><th>Resumes</th><th>Snapshots</th>
<th>Applied</th><th>No-ops</th><th>Structural skips</th></tr>
{{range .RPeers}}
<tr><td>{{.Addr}}</td><td>{{.Connected}}</td><td>{{.Cursor}}</td><td>{{.Resumes}}</td>
<td>{{.Snapshots}}</td><td>{{.Applied}}</td><td>{{.Noops}}</td><td>{{.Structural}}</td></tr>
{{end}}
</table>
{{end}}
{{end}}
{{if .Outboxes}}
<h2>Device outbox / circuit breakers</h2>
<table border="1" cellpadding="4">
<tr><th>Device</th><th>Breaker</th><th>Backlog</th><th>Enqueued</th><th>Drained</th>
<th>Deferred</th><th>Retries</th><th>Repairs</th><th>Dropped</th><th>Trips</th><th>Torn tails</th></tr>
{{range .Outboxes}}
<tr><td>{{.Device}}</td><td>{{.Breaker}}</td><td>{{.Backlog}}</td><td>{{.Enqueued}}</td>
<td>{{.Drained}}</td><td>{{.Deferred}}</td><td>{{.Retries}}</td><td>{{.Repairs}}</td>
<td>{{.Dropped}}</td><td>{{.Trips}}</td><td>{{.TornTails}}</td></tr>
{{end}}
</table>
{{end}}
{{if .Syncs}}
<h2>Synchronization (last pass)</h2>
<table border="1" cellpadding="4">
<tr><th>Device</th><th>Records</th><th>Dir adds</th><th>Dev adds</th><th>Dir mods</th><th>Dev mods</th>
<th>In sync</th><th>Errors</th><th>Dup keys</th><th>Snapshot</th><th>Workers</th>
<th>Bulk</th><th>Quiesce</th><th>Delta seen/replayed</th><th>Records/s</th></tr>
{{range .Syncs}}
<tr><td>{{.Name}}</td><td>{{.S.DeviceRecords}}</td><td>{{.S.DirectoryAdds}}</td><td>{{.S.DeviceAdds}}</td>
<td>{{.S.DirectoryMods}}</td><td>{{.S.DeviceMods}}</td><td>{{.S.AlreadyInSync}}</td><td>{{.S.Errors}}</td>
<td>{{.S.DuplicateKeys}}</td><td>{{.S.SnapshotUsed}}</td><td>{{.S.Workers}}</td>
<td>{{.Bulk}}</td><td>{{.Quiesce}}</td><td>{{.S.DeltaRecords}}/{{.S.DeltaReplayed}}</td><td>{{.Rate}}</td></tr>
{{end}}
</table>
{{end}}
{{end}}`))

// meanStage renders a per-update mean duration for a cumulative stage time.
func meanStage(totalNs, updates uint64) string {
	if updates == 0 {
		return "n/a"
	}
	return time.Duration(totalNs / updates).String()
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	data := map[string]any{"Wired": false}
	if s.Stats != nil {
		st := s.Stats()
		data["Wired"] = true
		data["S"] = st
		data["EnqueueWait"] = meanStage(st.EnqueueWaitNs, st.UpdatesProcessed)
		data["DirectoryApply"] = meanStage(st.DirectoryApplyNs, st.UpdatesProcessed)
		data["Fanout"] = meanStage(st.FanoutNs, st.UpdatesProcessed)
		data["WriteBack"] = meanStage(st.WriteBackNs, st.UpdatesProcessed)
	}
	data["GWired"] = false
	if s.GatewayStats != nil {
		gs := s.GatewayStats()
		data["GWired"] = true
		data["G"] = gs
		data["SearchMean"] = meanStage(gs.SearchNs, gs.Searches)
		data["FetchMean"] = meanStage(gs.BackendFetchNs, gs.BackendFetches)
		data["QuiesceTotal"] = time.Duration(gs.QuiesceNs).String()
	}
	if s.OutboxStats != nil {
		if obs := s.OutboxStats(); len(obs) > 0 {
			data["Outboxes"] = obs
		}
	}
	type wireRow struct {
		Name, RespPerFlush string
		W                  ldapserver.WireStats
	}
	var wires []wireRow
	for _, l := range []struct {
		name string
		fn   func() ldapserver.WireStats
	}{{"LTAP", s.LTAPWireStats}, {"directory", s.DirWireStats}} {
		if l.fn == nil {
			continue
		}
		ws := l.fn()
		wires = append(wires, wireRow{
			Name:         l.name,
			RespPerFlush: fmt.Sprintf("%.1f", ws.ResponsesPerFlush()),
			W:            ws,
		})
	}
	if len(wires) > 0 {
		data["Wires"] = wires
	}
	data["JWired"] = false
	if s.JournalStats != nil {
		if js := s.JournalStats(); js.Batches > 0 || js.Mode != "" {
			data["JWired"] = true
			data["J"] = js
			data["JMeanBatch"] = fmt.Sprintf("%.1f", js.MeanBatch())
			data["JMeanCommit"] = js.MeanCommit().String()
			data["JHist"] = js.BatchHist[:]
			data["JReplayWall"] = time.Duration(js.ReplayNs).String()
			data["JReplayRate"] = fmt.Sprintf("%.0f", js.ReplayRecordsPerSec())
			segs := make([]string, len(js.SegmentReplayNs))
			for i, ns := range js.SegmentReplayNs {
				segs[i] = time.Duration(ns).String()
			}
			data["JSegmentWall"] = strings.Join(segs, " ")
		}
	}
	data["RWired"] = false
	if s.ReplicationStats != nil {
		rs := s.ReplicationStats()
		data["RWired"] = true
		data["R"] = rs
		data["RPeers"] = rs.Peers
	}
	if s.SyncStats != nil {
		type syncRow struct {
			Name                string
			S                   um.SyncStats
			Bulk, Quiesce, Rate string
		}
		var rows []syncRow
		for name, ss := range s.SyncStats() {
			rows = append(rows, syncRow{
				Name:    name,
				S:       ss,
				Bulk:    time.Duration(ss.BulkNs).String(),
				Quiesce: time.Duration(ss.QuiesceNs).String(),
				Rate:    fmt.Sprintf("%.0f", ss.RecordsPerSec()),
			})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
		data["Syncs"] = rows
	}
	if err := statusTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// errorView is the template model for one logged update error.
type errorView struct {
	ID, Source, Target, Op, Key, Message string
}

func (s *Server) handleErrors(w http.ResponseWriter, r *http.Request) {
	entries, err := s.LDAP.Search(&ldap.SearchRequest{
		BaseDN: "ou=errors," + s.Suffix,
		Scope:  ldap.ScopeSingleLevel,
		Filter: ldap.Eq("objectClass", mcschema.ClassUpdateError),
	})
	if err != nil && !ldap.IsCode(err, ldap.ResultNoSuchObject) {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	views := make([]errorView, 0, len(entries))
	for _, e := range entries {
		views = append(views, errorView{
			ID:      e.First(mcschema.AttrErrorID),
			Source:  e.First(mcschema.AttrErrorSource),
			Target:  e.First(mcschema.AttrErrorTarget),
			Op:      e.First(mcschema.AttrErrorOp),
			Key:     e.First(mcschema.AttrErrorKey),
			Message: e.First(mcschema.AttrErrorMessage),
		})
	}
	if err := errorsTmpl.Execute(w, map[string]any{"Errors": views}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
