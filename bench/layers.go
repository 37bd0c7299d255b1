package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	metacomm "metacomm"
	"metacomm/internal/ber"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
	"metacomm/internal/ltap"
	"metacomm/internal/um"
)

// Layer micro-measurements: one caller, one call at a time, on the
// workload's own bytes and operations. Times are medians over rounds;
// allocation counts are whole-process mallocs over a fixed number of calls,
// divided as integers so that a stray allocation by a background goroutine
// does not show.

const (
	microRounds = 15
	microCalls  = 200
)

// timePer returns the median over rounds of f's time per item, in ns; f
// processes `items` items per call.
func timePer(rounds, items int, f func()) float64 {
	per := make([]float64, rounds)
	for i := range per {
		t0 := time.Now()
		f()
		per[i] = float64(time.Since(t0)) / float64(items)
	}
	return median(per)
}

// allocsPer is the whole-process malloc count of n calls of f, per call,
// after one warm-up call.
func allocsPer(n int, f func()) float64 {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / uint64(n))
}

// umReadings reports the Update Manager's stage timings per processed
// update, as deltas of its cumulative counters over one stage.
func umReadings(r *result, before, after um.Stats, stageName string) {
	n := after.UpdatesProcessed - before.UpdatesProcessed
	note := "UM.Stats() delta / updates processed, " + stageName + " stage"
	r.set("um.enqueue_wait_us", per(after.EnqueueWaitNs-before.EnqueueWaitNs, n)/1e3, int(n), note)
	r.set("um.directory_apply_us", per(after.DirectoryApplyNs-before.DirectoryApplyNs, n)/1e3, int(n), note)
	r.set("um.fanout_us", per(after.FanoutNs-before.FanoutNs, n)/1e3, int(n), note)
	r.set("um.writeback_us", per(after.WriteBackNs-before.WriteBackNs, n)/1e3, int(n), note)
	r.set("um.queue_rejections", float64(after.QueueRejections-before.QueueRejections), int(n), "busy answers, "+stageName+" stage")
	r.set("um.reapplies", float64(after.Reapplies-before.Reapplies), int(n), "conditional reapplies to the originating device, "+stageName+" stage")
}

// wireSample is the workload's own traffic as bytes: each request the
// stream generates and the response the server gives it.
func wireSample(sys *metacomm.System, st *stream, n int) ([][]byte, error) {
	var msgs [][]byte
	id := int32(1)
	add := func(op ldap.Op) {
		msgs = append(msgs, (&ldap.Message{ID: id, Op: op}).AppendTo(nil))
		id++
	}
	ok := ldap.Result{Code: ldap.ResultSuccess}
	for i := 0; i < n; i++ {
		o := st.nextOp()
		add(st.request(o))
		switch o.kind {
		case opSearchBase, opSearchEq:
			e, err := sys.DIT.Get(dn.MustParse(personDN(int(o.entry))))
			if err != nil {
				return nil, err
			}
			entry := &ldap.SearchResultEntry{DN: e.DN.String()}
			e.Attrs.EachSorted(func(attr string, values []string) {
				entry.Attributes = append(entry.Attributes, ldap.Attribute{Type: attr, Values: values})
			})
			add(entry)
			add(&ldap.SearchResultDone{Result: ok})
		case opModify:
			add(&ldap.ModifyResponse{Result: ok})
		case opAdd:
			add(&ldap.AddResponse{Result: ok})
		case opDelete:
			add(&ldap.DeleteResponse{Result: ok})
		}
	}
	return msgs, nil
}

// measureCodec times the BER and LDAP codecs on the workload's own bytes.
func measureCodec(r *result, sys *metacomm.System, plan ldapPlan, seed int64) error {
	// A side stream: its operations are encoded, never sent.
	msgs, err := wireSample(sys, newStream(plan.mix, seed+2, 0, 1, plan.entries), 256)
	if err != nil {
		return err
	}
	all := bytes.Join(msgs, nil)
	n := len(msgs)
	src := bytes.NewReader(all)
	rd := ber.NewReader(src)
	decodeAll := func() {
		src.Reset(all)
		rd.Reset(src)
		for i := 0; i < n; i++ {
			if _, err := rd.ReadElement(); err != nil {
				panic(err) // the bytes were encoded a few lines up
			}
		}
	}
	note := fmt.Sprintf("per message, %d request and response messages of this workload", n)
	r.set("ber.decode_ns", timePer(microRounds, n, decodeAll), microRounds, "ber.Reader.ReadElement "+note)
	r.set("ber.decode_allocs", float64(uint64(allocsPer(microCalls, decodeAll))/uint64(n)), n, "mallocs "+note)

	elems := make([]*ber.Element, n)
	decoded := make([]*ldap.Message, n)
	for i, m := range msgs {
		if elems[i], err = ber.DecodeFull(m); err != nil {
			return err
		}
		if decoded[i], err = ldap.DecodeMessage(elems[i]); err != nil {
			return err
		}
	}
	var buf []byte
	r.set("ber.encode_ns", timePer(microRounds, n, func() {
		for _, e := range elems {
			buf = e.AppendTo(buf[:0])
		}
	}), microRounds, "Element.AppendTo "+note)
	ldapDecode := func() {
		for _, e := range elems {
			if _, err := ldap.DecodeMessage(e); err != nil {
				panic(err)
			}
		}
	}
	r.set("ldap.decode_ns", timePer(microRounds, n, ldapDecode), microRounds, "ldap.DecodeMessage "+note)
	r.set("ldap.decode_allocs", float64(uint64(allocsPer(microCalls, ldapDecode))/uint64(n)), n, "mallocs "+note)
	r.set("ldap.encode_ns", timePer(microRounds, n, func() {
		for _, m := range decoded {
			buf = m.AppendTo(buf[:0])
		}
	}), microRounds, "Message.AppendTo "+note)
	filter := "(definityExtension=" + extensionOf(personNumber(7)) + ")"
	r.set("ldap.filter_parse_ns", timePer(microRounds, 100, func() {
		for i := 0; i < 100; i++ {
			if _, err := ldap.ParseFilter(filter); err != nil {
				panic(err)
			}
		}
	}), microRounds, "ldap.ParseFilter of an equality filter")
	return nil
}

// cannedHandler answers every operation with success and every search with
// one fixed entry: a server turn with no directory behind it.
type cannedHandler struct{ entry *ldap.SearchResultEntry }

var success = ldap.Result{Code: ldap.ResultSuccess}

func (h cannedHandler) Bind(*ldapserver.Conn, *ldap.BindRequest) ldap.Result { return success }
func (h cannedHandler) Search(_ *ldapserver.Conn, _ *ldap.SearchRequest, send func(*ldap.SearchResultEntry) error) ldap.Result {
	if err := send(h.entry); err != nil {
		return ldap.Result{Code: ldap.ResultOther, Message: err.Error()}
	}
	return success
}
func (h cannedHandler) Add(*ldapserver.Conn, *ldap.AddRequest) ldap.Result           { return success }
func (h cannedHandler) Delete(*ldapserver.Conn, *ldap.DeleteRequest) ldap.Result     { return success }
func (h cannedHandler) Modify(*ldapserver.Conn, *ldap.ModifyRequest) ldap.Result     { return success }
func (h cannedHandler) ModifyDN(*ldapserver.Conn, *ldap.ModifyDNRequest) ldap.Result { return success }
func (h cannedHandler) Compare(*ldapserver.Conn, *ldap.CompareRequest) ldap.Result {
	return ldap.Result{Code: ldap.ResultCompareTrue}
}
func (h cannedHandler) Extended(*ldapserver.Conn, *ldap.ExtendedRequest) *ldap.ExtendedResponse {
	return &ldap.ExtendedResponse{Result: success}
}

func medianOf(n int, f func() error) (float64, error) {
	ns := make([]float64, n)
	for i := range ns {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns[i] = float64(time.Since(t0))
	}
	return median(ns), nil
}

// measureBareServer times a server turn with nothing behind it, the
// connection pool's cost on top of a single connection, and the action wire.
func measureBareServer(r *result, sys *metacomm.System, plan ldapPlan, lad *ladder, calls int) error {
	e, err := sys.DIT.Get(dn.MustParse(personDN(7)))
	if err != nil {
		return err
	}
	entry := &ldap.SearchResultEntry{DN: e.DN.String()}
	e.Attrs.EachSorted(func(attr string, values []string) {
		entry.Attributes = append(entry.Attributes, ldap.Attribute{Type: attr, Values: values})
	})
	srv := ldapserver.NewServer(cannedHandler{entry})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := ldapclient.Dial(addr.String())
	if err != nil {
		return err
	}
	defer c.Close()
	pool, err := ldapclient.DialPool(addr.String(), 0)
	if err != nil {
		return err
	}
	defer pool.Close()

	search := &ldap.SearchRequest{BaseDN: personDN(7), Scope: ldap.ScopeBaseObject}
	change := []ldap.Change{replace("roomNumber", "x")}
	what := "modify"
	turn := func() error { return c.Modify(personDN(7), change) }
	pooled := func() error { return pool.Modify(personDN(7), change) }
	if plan.searchPrimary {
		what = "base search returning one entry"
		turn = func() error { _, err := c.Search(search); return err }
		pooled = func() error { _, err := pool.Search(search); return err }
	}
	direct, err := medianOf(calls, turn)
	if err != nil {
		return err
	}
	r.set("ldapserver.turn_us", direct/1e3, calls, "round trip to a bare ldapserver.Server with a canned handler: "+what)
	r.set("ldapserver.turn_allocs", allocsPer(microCalls, func() { _ = turn() }), microCalls, "mallocs per round trip, client and server")
	viaPool, err := medianOf(calls, pooled)
	if err != nil {
		return err
	}
	r.set("ldapclient.pool_wait_us", max(viaPool-direct, 0)/1e3, calls, "the same round trip through ldapclient.Pool, minus the single connection's")

	if lad.sampleEvent.DN == "" {
		return nil // the ladder saw no modify (a search-only run)
	}
	rtt, err := actionRTT(lad.sampleEvent, calls)
	if err != nil {
		return err
	}
	r.set("ltap.action_rtt_us", rtt/1e3, calls, "RemoteAction.OnUpdate of a trapped modify against an ActionServer with a no-op action")
	r.set("ltap.trap_self_us", max(lad.gatewaySelfNs()-rtt, 0)/1e3, lad.n["write/"+rGateway],
		"Gateway.Modify rung - UM.OnUpdate rung - action wire: lock + before-image")
	return nil
}

// actionRTT is the median round trip of ev over the LTAP action wire to an
// action server whose action does nothing.
func actionRTT(ev ltap.Event, calls int) (float64, error) {
	as := ltap.NewActionServer(ltap.ActionFunc(func(ltap.Event) ldap.Result { return success }))
	actionAddr, err := as.Start("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer as.Close()
	remote, err := ltap.DialAction(actionAddr.String())
	if err != nil {
		return 0, err
	}
	defer remote.Close()
	return medianOf(calls, func() error {
		if res := remote.OnUpdate(ev); res.Code != ldap.ResultSuccess {
			return fmt.Errorf("action wire: %s", res.Code)
		}
		return nil
	})
}

// measureAllocs counts whole-process mallocs per update entering at the
// gateway and at the Update Manager, per translation, and per direct
// directory operation.
func measureAllocs(rc *runCtx, sys *metacomm.System, lad *ladder) error {
	r := rc.res
	front, err := sys.Client()
	if err != nil {
		return err
	}
	defer front.Close()
	lr := &ladderRun{sys: sys, front: front, conn: &ldapserver.Conn{}, lad: lad}
	calls := microCalls
	if rc.short {
		calls = 10
	}
	// perUpdate draws modifies from the ladder's stream and counts mallocs
	// around the entry point only.
	perUpdate := func(depth int) (float64, error) {
		var total uint64
		var a, b runtime.MemStats
		for done := 0; done < calls; {
			o := lad.stream.nextOp()
			if o.kind.isSearch() {
				continue
			}
			call := lr.prepare(depth, lad.stream.request(o))
			runtime.ReadMemStats(&a)
			res := call()
			runtime.ReadMemStats(&b)
			if res.Code != ldap.ResultSuccess {
				return 0, fmt.Errorf("alloc count at depth %d: %s %s", depth, res.Code, res.Message)
			}
			lad.tracker.acked(o, lad.stream.value(o))
			if o.kind == opModify {
				total += b.Mallocs - a.Mallocs
				done++
			}
		}
		return float64(total / uint64(calls)), nil
	}
	if lad.write.ns > 0 {
		atGateway, err := perUpdate(1)
		if err != nil {
			return err
		}
		atUM, err := perUpdate(2)
		if err != nil {
			return err
		}
		r.set("um.on_update_allocs", atUM, calls, "whole-process mallocs per modify entering at UM.OnUpdate")
		r.set("ltap.trap_allocs", max(atGateway-atUM, 0), calls, "mallocs per modify entering at Gateway.Modify, minus um.on_update_allocs")
		f := sys.UM.Filters()[0]
		r.set("lexpress.translate_allocs", allocsPer(calls, func() { _, _ = f.Translate(lad.sampleDesc) }), calls,
			"mallocs per DeviceFilter.Translate of a modify, PBX mapping")
	}

	// Direct directory operations on scratch people no device owns.
	scratch := func(i int) dn.DN { return dn.MustParse(fmt.Sprintf("cn=Scratch %05d,%s", i, suffix)) }
	attrs := func(i int) *directory.Attrs {
		return directory.AttrsFrom(map[string][]string{"objectClass": {"mcPerson"},
			"cn": {fmt.Sprintf("Scratch %05d", i)}, "sn": {"Scratch"}, "roomNumber": {"R0"}})
	}
	i := 0
	addNs, err := medianOf(calls, func() error { i++; return sys.DIT.Add(scratch(i), attrs(i)) })
	if err != nil {
		return err
	}
	r.set("directory.add_us", addNs/1e3, calls, "DIT.Add on the journaled DIT, one writer")
	name, change := scratch(1), []ldap.Change{replace("roomNumber", "R1")}
	r.set("directory.modify_allocs", allocsPer(calls, func() { _ = sys.DIT.Modify(name, change) }), calls, "whole-process mallocs per DIT.Modify")
	person := dn.MustParse(personDN(7))
	r.set("directory.search_allocs", allocsPer(calls, func() { _, _ = sys.DIT.Search(person, ldap.ScopeBaseObject, nil, 0) }), calls,
		"mallocs per base-object DIT.Search")
	for k := 1; k <= i; k++ {
		if err := sys.DIT.Delete(scratch(k)); err != nil {
			return err
		}
	}
	return nil
}

// measureLayers runs every micro-measurement of a front-door workload.
func measureLayers(rc *runCtx, sys *metacomm.System, plan ldapPlan, lad *ladder) error {
	r := rc.res
	if err := measureCodec(r, sys, plan, rc.seed); err != nil {
		return err
	}
	calls := 2000
	if rc.short {
		calls = 50
	}
	if err := measureBareServer(r, sys, plan, lad, calls); err != nil {
		return err
	}
	if err := measureAllocs(rc, sys, lad); err != nil {
		return err
	}
	// The directory rung of the search ladder, by kind of search.
	base, nb := lad.tr.laddered(opSearchBase.String())
	eq, ne := lad.tr.laddered(opSearchEq.String())
	r.set("directory.search_base_us", base[rDITSearch]/1e3, nb[rDITSearch], "DIT.Search, base object")
	r.set("directory.search_eq_us", eq[rDITSearch]/1e3, ne[rDITSearch], "DIT.Search, indexed equality on definityExtension")
	return nil
}

// syncReadings reports the last synchronization pass's own accounting.
func syncReadings(r *result, sys *metacomm.System) {
	var bulk, quiesced uint64
	for _, st := range sys.UM.LastSyncStats() {
		bulk, quiesced = max(bulk, st.BulkNs), max(quiesced, st.QuiesceNs)
	}
	r.set("um.sync_bulk_s", float64(bulk)/1e9, 1, "bulk reconciliation, unquiesced, of the recovery pass")
	r.set("um.sync_quiesced_ms", float64(quiesced)/1e6, 1, "how long the recovery pass held the quiesce (delta replay)")
}

// replayReadings reports the journal replay of node A's last cold start.
func replayReadings(r *result, a *metacomm.System) {
	js := a.DIT.JournalStats()
	r.set("directory.replay_recs_per_s", js.ReplayRecordsPerSec(), int(js.ReplayedRecords), "AttachJournalSet replay of the last cold start")
	r.set("directory.replay_mb_per_s", js.ReplayMBPerSec(), int(js.ReplayedBytes), "journal MB decoded per second")
}
