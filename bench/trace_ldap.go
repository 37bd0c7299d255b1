package main

import (
	"fmt"
	"os"

	metacomm "metacomm"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
	"metacomm/internal/lexpress"
	"metacomm/internal/ltap"
	"metacomm/internal/um"
)

// counters is a snapshot of every public Stats() the front-door workloads
// move; per-layer counts are deltas between two snapshots.
type counters struct {
	gw      ltap.GatewayStats
	um      um.Stats
	journal directory.JournalStats
	wire    metacomm.WireStats
}

func snapshot(sys *metacomm.System) counters {
	return counters{gw: sys.Gateway.Stats(), um: sys.UM.Stats(), journal: sys.DIT.JournalStats(), wire: sys.WireStats()}
}

func per(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// stageCounters turns the delta between two snapshots into readings.
func stageCounters(r *result, before, after counters, stageName string) {
	note := "delta over the " + stageName + " stage"
	gw0, gw1 := before.gw, after.gw
	lookups := (gw1.Cache.Hits - gw0.Cache.Hits) + (gw1.Cache.Misses - gw0.Cache.Misses)
	r.set("ltap.before_image_hit_ratio", per(gw1.Cache.Hits-gw0.Cache.Hits, lookups), int(lookups), note)
	r.set("ltap.backend_fetch_us", per(gw1.BackendFetchNs-gw0.BackendFetchNs, gw1.BackendFetches-gw0.BackendFetches)/1e3,
		int(gw1.BackendFetches-gw0.BackendFetches), note)
	r.set("ltap.search_proxy_us", per(gw1.SearchNs-gw0.SearchNs, gw1.Searches-gw0.Searches)/1e3,
		int(gw1.Searches-gw0.Searches), note+"; GatewayStats.SearchNs, cross-check of the search ladder")
	j0, j1 := before.journal, after.journal
	appends := j1.Appends - j0.Appends
	r.set("directory.commit_wait_us", per(uint64(j1.CommitNs-j0.CommitNs), appends)/1e3, int(appends), note)
	r.set("directory.fsyncs_per_write", per(j1.Fsyncs-j0.Fsyncs, appends), int(appends), note)
	r.set("directory.recs_per_group", per(appends, j1.Batches-j0.Batches), int(j1.Batches-j0.Batches), note)
	r.set("directory.journal_bytes_per_write", per(j1.Bytes-j0.Bytes, appends), int(appends), note)
	w0, w1 := before.wire.LTAP, after.wire.LTAP
	r.set("ldapserver.responses_per_flush", per(w1.ResponsesWritten-w0.ResponsesWritten, w1.Flushes-w0.Flushes),
		int(w1.Flushes-w0.Flushes), note+"; LTAP listener")
}

// traceLDAP is the traced run of a front-door workload:
//
//	set-up -> warm -> low -> mid (untraced reference) -> mid (traced) -> high
//	-> layer ladder -> layer micro-measurements -> gate -> audit
//
// The per-layer metrics come from here; the end-to-end metrics never do.
func traceLDAP(rc *runCtx, plan ldapPlan) error {
	r := rc.res
	if rc.short {
		plan.entries = 500
	}
	r.Env.Entries = plan.entries
	r.Env.Rates = map[string]float64{"low": plan.low, "mid": plan.mid, "high": plan.hi}
	dataDir := rc.tmp + "/data"
	sys, err := buildPeople(plan.entries)(dataDir)
	if err != nil {
		return err
	}
	defer sys.Close()
	gen, err := newGenerator(sys.LTAPAddrActual, plan.mix, rc.seed, rc.conns, plan.entries)
	if err != nil {
		return err
	}
	defer gen.close()
	tr := newTracer(gen.epoch)

	gen.run("warm", rc.scale(warmup), 0)
	low := gen.run("low", frac(rc.seconds, 0.15), plan.low)
	ref := gen.run("mid", frac(rc.seconds, 0.2), plan.mid)
	c0 := snapshot(sys)
	gen.tracer.Store(tr)
	mid := gen.run("mid", frac(rc.seconds, 0.3), plan.mid)
	gen.tracer.Store(nil)
	c1 := snapshot(sys)
	high := gen.run("high", frac(rc.seconds, 0.15), plan.hi)
	c2 := snapshot(sys)
	rc.account(low, ref, mid, high)
	rc.genHealth(mid)
	stageCounters(r, c0, c1, "traced mid")
	umReadings(r, c1.um, c2.um, "high")

	sp50 := latencyReadings(r, "search", mid, true, rc.short).p50
	wp50 := latencyReadings(r, "write", mid, false, rc.short).p50
	primary := func(st *stage) float64 {
		return latencyOf(st.latencies(plan.searchPrimary), st.dur, rc.short).p50
	}
	if base := primary(ref); base > 0 {
		r.set("trace.overhead_pct", (primary(mid)-base)/base*100, len(mid.samples), "traced vs untraced p50 at the mid rate, same process")
	}
	r.set("max_rate_ok", maxRateOK(rc, plan, low, mid, high), 3, "highest of low/mid/high within the p99 limit, no failures, no growing backlog; 0 = none")
	attempted := float64(len(low.samples) + len(ref.samples) + len(mid.samples) + len(high.samples))
	r.set("fail_ratio", float64(low.failed+ref.failed+mid.failed+high.failed)/max(attempted, 1), int(attempted), "failed or refused / attempted, all stages")

	// The ladder and the micro-measurements run one call at a time on the
	// same warmed system, after the load has drained.
	lad, err := runLadder(rc, sys, plan, tr)
	if err != nil {
		return err
	}
	lad.report(r, sp50*1e3, wp50*1e3)
	if err := measureLayers(rc, sys, plan, lad); err != nil {
		return err
	}
	if err := tr.write(rc.outDir, rc.workload); err != nil {
		return err
	}

	g := &gate{res: r}
	trackers := []*tracker{}
	for _, c := range gen.conns {
		lad.tracker.overrideIn(c.tr)
		trackers = append(trackers, c.tr)
	}
	trackers = append(trackers, lad.tracker)
	if err := g.checkWrites(sys, trackers, true); err != nil {
		return err
	}
	r.set("sync_entries_per_s", g.audit(sys), 1, "device records audited by one synchronization pass")
	r.Attempted += g.checked
	return os.RemoveAll(dataDir)
}

// maxRateOK returns the highest offered rate whose stage met the workload's
// latency limit on the window-median p99, with no failure and no backlog
// still growing at its end.
func maxRateOK(rc *runCtx, plan ldapPlan, stages ...*stage) float64 {
	best := 0.0
	for _, st := range stages {
		limit := writeLimit
		if plan.searchPrimary {
			limit = searchLimit
		}
		l := latencyOf(st.latencies(plan.searchPrimary), st.dur, rc.short)
		if l.n > 0 && l.p99*1e3 <= float64(limit) && st.failed == 0 && !st.backlogGrew() && st.rate > best {
			best = st.rate
		}
	}
	return best
}

// overrideIn makes t's expectations win over older ones in o for the entries
// both wrote: the ladder writes after the load has drained.
func (t *tracker) overrideIn(o *tracker) {
	for id, e := range t.entries {
		old := o.entries[id]
		if old == nil {
			continue
		}
		if e.room != "" {
			old.room = e.room
		}
		if e.cos != "" {
			old.cos = e.cos
		}
		if e.mcos != "" {
			old.mcos = e.mcos
		}
	}
}

func recordOf(a *directory.Attrs) lexpress.Record {
	rec := lexpress.NewRecord()
	for name, values := range a.Map() {
		rec.Set(name, values...)
	}
	return rec
}

// ladder holds what entering the stack at successive depths measured.
type ladder struct {
	tr      *tracer
	tracker *tracker
	search  *rung
	write   *rung
	med     map[string]float64
	n       map[string]int
	// stream is the ladder's operation stream; the micro-measurements keep
	// drawing from it. sampleEvent and sampleDesc are the last modify seen at
	// the Update Manager's and the filters' entry points.
	stream      *stream
	sampleEvent ltap.Event
	sampleDesc  lexpress.Descriptor
}

// Rung names. Each is the public function the call entered through.
const (
	rWire        = "wire"               // ldapclient round trip to the LTAP listener
	rGateway     = "ltap.gateway"       // Gateway.Search / Modify / Add / Delete
	rBackSearch  = "backing.search"     // ldapclient round trip to the directory listener
	rDITSearch   = "directory.search"   // DIT.Search
	rOnUpdate    = "um.on_update"       // UM.OnUpdate
	rBackModify  = "backing.modify"     // ldapclient modify on the directory listener
	rDITModify   = "directory.modify"   // DIT.Modify
	rClosure     = "lexpress.closure"   // Mapping.ApplyClosure
	rTranslate   = "lexpress.translate" // DeviceFilter.Translate, per device
	rApplyPBX    = "filter.apply_pbx"   // DeviceFilter.Apply on the PBX
	rApplyMP     = "filter.apply_mp"    // DeviceFilter.Apply on the messaging platform
	ladderWrites = 400                  // update samples per rung
	ladderReads  = 2500                 // search samples per rung, at most
)

// ladderRun is what the entry points of the update ladder need.
type ladderRun struct {
	sys     *metacomm.System
	front   *ldapclient.Conn // to the LTAP listener
	conn    *ldapserver.Conn
	eventID int
	lad     *ladder
}

// prepare builds everything the entry point at depth needs for the update
// req — the client call, the handler call, or the event the gateway would
// hand the Update Manager — and returns the call itself, so that timing and
// allocation counts cover the layer and not the benchmark's preparation.
func (lr *ladderRun) prepare(depth int, req ldap.Op) func() ldap.Result {
	sys := lr.sys
	switch depth {
	case 0:
		return func() ldap.Result {
			var err error
			switch q := req.(type) {
			case *ldap.ModifyRequest:
				err = lr.front.Modify(q.DN, q.Changes)
			case *ldap.AddRequest:
				err = lr.front.Add(q.DN, q.Attributes)
			case *ldap.DeleteRequest:
				err = lr.front.Delete(q.DN)
			}
			if err != nil {
				return ldap.Result{Code: ldap.ResultOther, Message: err.Error()}
			}
			return ldap.Result{Code: ldap.ResultSuccess}
		}
	case 1:
		return func() ldap.Result {
			switch q := req.(type) {
			case *ldap.ModifyRequest:
				return sys.Gateway.Modify(lr.conn, q)
			case *ldap.AddRequest:
				return sys.Gateway.Add(lr.conn, q)
			case *ldap.DeleteRequest:
				return sys.Gateway.Delete(lr.conn, q)
			}
			return ldap.Result{Code: ldap.ResultOther}
		}
	}
	// What Gateway.trap hands the action, minus the entry lock: nothing else
	// touches the entry now.
	lr.eventID++
	ev := ltap.Event{ID: uint64(1<<40 + lr.eventID), DN: requestDN(req)}
	if e, err := sys.DIT.Get(dn.MustParse(ev.DN)); err == nil {
		ev.Old = recordOf(e.Attrs)
	}
	switch q := req.(type) {
	case *ldap.ModifyRequest:
		ev.Kind, ev.Changes = ltap.EventModify, ltap.ChangesFromLDAP(q.Changes)
		lr.lad.sampleEvent = ev
	case *ldap.AddRequest:
		ev.Kind, ev.Attrs = ltap.EventAdd, lexpress.NewRecord()
		for _, a := range q.Attributes {
			ev.Attrs.Set(a.Type, a.Values...)
		}
	case *ldap.DeleteRequest:
		ev.Kind = ltap.EventDelete
	}
	return func() ldap.Result { return sys.UM.OnUpdate(ev) }
}

// runLadder draws operations from the workload's stream and executes each
// through one entry point, rotating over the depths: the LTAP wire, the
// gateway handler, the Update Manager's OnUpdate, and — doing by hand what
// the Update Manager does — the directory write, the closure, and each
// device filter's Translate and Apply. Every variant performs the complete
// update, so the three repositories stay consistent and the gate still
// holds afterwards.
func runLadder(rc *runCtx, sys *metacomm.System, plan ldapPlan, tr *tracer) (*ladder, error) {
	writes, reads := ladderWrites, ladderReads
	if rc.short {
		writes, reads = 20, 50
	}
	// The ladder is connection number C of C+1 for naming its extras, but
	// draws keys over the whole population: nothing else runs now.
	st := newStream(plan.mix, rc.seed+1, 0, 1, plan.entries)
	st.label = rc.conns
	lad := &ladder{tr: tr, tracker: newTracker(rc.conns), stream: st}
	front, err := sys.Client()
	if err != nil {
		return nil, err
	}
	defer front.Close()
	lr := &ladderRun{sys: sys, front: front, conn: &ldapserver.Conn{}, lad: lad}
	back, err := sys.DirectoryClient()
	if err != nil {
		return nil, err
	}
	defer back.Close()
	closure, _ := sys.Library.Get("LDAPClosure")
	filters := sys.UM.Filters()
	base := dn.MustParse(suffix)
	conn := lr.conn

	if plan.mix.writePct == 100 {
		reads = 0
	}
	var nRead, nWrite int
	for nRead < 4*reads || nWrite < 4*writes {
		o := st.nextOp()
		req := st.request(o)
		kind := o.kind.String()
		if o.kind.isSearch() {
			if nRead >= 4*reads {
				continue
			}
			sreq := req.(*ldap.SearchRequest)
			depth := nRead % 4
			nRead++
			var got int
			t0 := tr.now()
			switch depth {
			case 0:
				es, err := front.Search(sreq)
				if err != nil {
					return nil, fmt.Errorf("ladder %s: %w", rWire, err)
				}
				got = len(es)
			case 1:
				res := sys.Gateway.Search(conn, sreq, func(*ldap.SearchResultEntry) error { got++; return nil })
				if res.Code != ldap.ResultSuccess {
					return nil, fmt.Errorf("ladder %s: %s", rGateway, res.Code)
				}
			case 2:
				es, err := back.Search(sreq)
				if err != nil {
					return nil, fmt.Errorf("ladder %s: %w", rBackSearch, err)
				}
				got = len(es)
			case 3:
				scopeBase := base
				if sreq.Scope == ldap.ScopeBaseObject {
					scopeBase = dn.MustParse(sreq.BaseDN)
				}
				es, err := sys.DIT.Search(scopeBase, sreq.Scope, sreq.Filter, 0)
				if err != nil {
					return nil, fmt.Errorf("ladder %s: %w", rDITSearch, err)
				}
				got = len(es)
			}
			t1 := tr.now()
			if got != 1 {
				return nil, fmt.Errorf("ladder search at depth %d returned %d entries", depth, got)
			}
			root := tr.root("ladder", kind, 0, t0, t1)
			tr.child(root, []string{rWire, rGateway, rBackSearch, rDITSearch}[depth], kind, t0, t1)
			continue
		}

		// An update. Adds and deletes only enter at the top three depths.
		depth := nWrite % 4
		if depth == 3 && o.kind != opModify {
			depth = 1
		} else {
			nWrite++
		}
		name := dn.MustParse(requestDN(req))
		var res ldap.Result
		var root int64
		switch depth {
		case 0, 1, 2:
			call := lr.prepare(depth, req)
			t0 := tr.now()
			res = call()
			t1 := tr.now()
			root = tr.root("ladder", kind, 0, t0, t1)
			tr.child(root, []string{rWire, rGateway, rOnUpdate}[depth], kind, t0, t1)
		case 3:
			q := req.(*ldap.ModifyRequest)
			e, err := sys.DIT.Get(name)
			if err != nil {
				return nil, fmt.Errorf("ladder: %w", err)
			}
			old := recordOf(e.Attrs)
			img := old.Clone()
			var explicit []string
			for _, c := range q.Changes {
				img.Set(c.Attribute.Type, c.Attribute.Values...)
				explicit = append(explicit, c.Attribute.Type)
			}
			img.Set("lastUpdater", "ldap")
			changes := append(append([]ldap.Change(nil), q.Changes...), replace("lastUpdater", "ldap"))
			start := tr.now()
			root = tr.root("ladder", kind, 0, start, start) // ended once its children have run
			if closure != nil {
				t0 := tr.now()
				if _, err := closure.ApplyClosure(old, img, explicit); err != nil {
					return nil, fmt.Errorf("ladder %s: %w", rClosure, err)
				}
				tr.child(root, rClosure, kind, t0, tr.now())
			}
			t0 := tr.now()
			if nWrite%8 < 4 {
				err = sys.DIT.Modify(name, changes)
				tr.child(root, rDITModify, kind, t0, tr.now())
			} else {
				err = back.Modify(q.DN, changes)
				tr.child(root, rBackModify, kind, t0, tr.now())
			}
			if err != nil {
				return nil, fmt.Errorf("ladder directory write: %w", err)
			}
			desc := lexpress.Descriptor{Source: "ldap", Op: lexpress.OpModify, Key: q.DN, Old: old, New: img, Explicit: explicit}
			lad.sampleDesc = desc
			for k, f := range filters {
				t0 := tr.now()
				tu, err := f.Translate(desc)
				t1 := tr.now()
				if err != nil {
					return nil, fmt.Errorf("ladder %s %s: %w", rTranslate, f.Name(), err)
				}
				tr.child(root, rTranslate, kind, t0, t1)
				if tu == nil {
					continue
				}
				if _, err := f.Apply(tu); err != nil {
					return nil, fmt.Errorf("ladder apply %s: %w", f.Name(), err)
				}
				tr.child(root, []string{rApplyPBX, rApplyMP}[k], kind, t1, tr.now())
			}
			tr.end(root)
		}
		if res.Code != ldap.ResultSuccess {
			return nil, fmt.Errorf("ladder %s at depth %d: %s %s", kind, depth, res.Code, res.Message)
		}
		lad.tracker.acked(o, st.value(o))
	}

	// Medians over modifies only for the update ladder (the by-hand rung
	// takes nothing else), over everything for the search ladder.
	wmed, wn := tr.laddered(opModify.String())
	smed, sn := tr.laddered(opSearchBase.String(), opSearchEq.String())
	lad.med, lad.n = map[string]float64{}, map[string]int{}
	for k, v := range smed {
		lad.med["search/"+k], lad.n["search/"+k] = v, sn[k]
	}
	for k, v := range wmed {
		lad.med["write/"+k], lad.n["write/"+k] = v, wn[k]
	}
	lad.search = &rung{name: rWire, ns: smed[rWire], children: []*rung{
		{name: rGateway, ns: smed[rGateway], children: []*rung{
			{name: rBackSearch, ns: smed[rBackSearch], children: []*rung{
				{name: rDITSearch, ns: smed[rDITSearch]}}}}}}}
	lad.write = &rung{name: rWire, ns: wmed[rWire], children: []*rung{
		{name: rGateway, ns: wmed[rGateway], children: []*rung{
			{name: rOnUpdate, ns: wmed[rOnUpdate], children: []*rung{
				{name: rClosure, ns: wmed[rClosure]},
				{name: rBackModify, ns: wmed[rBackModify], children: []*rung{
					{name: rDITModify, ns: wmed[rDITModify]}}},
				{name: "fanout", parallel: true, ns: max(wmed[rTranslate]+wmed[rApplyPBX], wmed[rTranslate]+wmed[rApplyMP]), children: []*rung{
					{name: "pbx", ns: wmed[rTranslate] + wmed[rApplyPBX]},
					{name: "msgplat", ns: wmed[rTranslate] + wmed[rApplyMP]}}}}}}}}}
	return lad, nil
}

// laddered is medians() restricted to the ladder's child spans.
func (t *tracer) laddered(kinds ...string) (map[string]float64, map[string]int) {
	t.mu.Lock()
	by := map[string][]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 && contains(kinds, s.Kind) {
			by[s.Name] = append(by[s.Name], float64(s.End-s.Start))
		}
	}
	t.mu.Unlock()
	med, n := map[string]float64{}, map[string]int{}
	for name, v := range by {
		med[name], n[name] = median(v), len(v)
	}
	return med, n
}

func requestDN(req ldap.Op) string {
	switch q := req.(type) {
	case *ldap.ModifyRequest:
		return q.DN
	case *ldap.AddRequest:
		return q.DN
	case *ldap.DeleteRequest:
		return q.DN
	}
	return ""
}

// report turns the ladder into per-layer readings: a layer's self time is
// its rung's median minus the rungs below it.
func (l *ladder) report(r *result, searchP50ns, writeP50ns float64) {
	us := func(ns float64) float64 { return ns / 1e3 }
	s, w := l.search, l.write
	if s.ns > 0 {
		gw := s.children[0]
		back := gw.children[0]
		r.set("ladder.search_wire_self_us", us(s.self()), l.n["search/"+rWire], "front wire (ber+ldap+ldapserver+client): wire rung - gateway rung")
		r.set("ltap.search_self_us", us(gw.self()), l.n["search/"+rGateway], "Gateway.Search rung - backing search rung")
		r.set("ladder.search_backing_self_us", us(back.self()), l.n["search/"+rBackSearch], "gateway->directory wire: backing rung - DIT.Search rung")
		r.set("ladder.search_directory_us", us(back.children[0].ns), l.n["search/"+rDITSearch], "DIT.Search rung")
		r.set("trace.explained_search", s.explained(searchP50ns), 0, "sum of search-ladder self times / search p50 at the mid rate")
	}
	if w.ns > 0 {
		gw := w.children[0]
		um := gw.children[0]
		r.set("ladder.write_wire_self_us", us(w.self()), l.n["write/"+rWire], "front wire: wire rung - gateway rung")
		r.set("ladder.write_gateway_self_us", us(gw.self()), l.n["write/"+rGateway], "Gateway.Modify rung - UM.OnUpdate rung (lock, before-image, action wire)")
		r.set("um.on_update_us", us(um.ns), l.n["write/"+rOnUpdate], "UM.OnUpdate(ltap.Event) direct")
		r.set("ladder.um_self_us", us(um.self()), l.n["write/"+rOnUpdate], "UM.OnUpdate rung - (closure + backing modify + slower device chain)")
		r.set("lexpress.translate_us", us(l.med["write/"+rTranslate]), l.n["write/"+rTranslate], "DeviceFilter.Translate, to-device, both devices")
		r.set("lexpress.closure_us", us(l.med["write/"+rClosure]), l.n["write/"+rClosure], "Mapping.ApplyClosure")
		r.set("filter.apply_pbx_us", us(l.med["write/"+rApplyPBX]), l.n["write/"+rApplyPBX], "DeviceFilter.Apply against the PBX simulator")
		r.set("filter.apply_mp_us", us(l.med["write/"+rApplyMP]), l.n["write/"+rApplyMP], "DeviceFilter.Apply against the messaging platform simulator")
		r.set("directory.modify_us", us(l.med["write/"+rDITModify]), l.n["write/"+rDITModify], "DIT.Modify on the journaled DIT (one writer: one fsync per write)")
		r.set("ladder.write_backing_self_us", us(um.children[1].self()), l.n["write/"+rBackModify], "UM->directory wire: backing modify rung - DIT.Modify rung")
		r.set("trace.explained_write", w.explained(writeP50ns), 0, "sum of write-ladder self times / write p50 at the mid rate")
	}
}

// gatewaySelfNs is what ltap.trap_self_us subtracts the action wire from.
func (l *ladder) gatewaySelfNs() float64 {
	if l.write.ns == 0 {
		return 0
	}
	return l.write.children[0].self()
}
