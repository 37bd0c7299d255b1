package main

import (
	"fmt"
	"runtime"
	"time"

	metacomm "metacomm"
	"metacomm/internal/device"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/lexpress"
	"metacomm/internal/ltap"
	"metacomm/internal/mcschema"
)

// traceDeviceOrigin is device_origin's traced middle: a closed-loop stage,
// a traced open-loop stage at the fixed rate (root span per direct device
// update, children device ack and ack -> commit), then the from-device path
// entered by hand one call at a time.
func traceDeviceOrigin(rc *runCtx, sys *metacomm.System, f *follower, sessions []*session) error {
	r := rc.res
	tr := newTracer(f.epoch)
	dduStage(rc, f, sessions, frac(rc.seconds, 0.15), 0)
	c0 := snapshot(sys)
	from, to := dduStage(rc, f, sessions, frac(rc.seconds, 0.35), dduRate)
	c1 := snapshot(sys)
	dduReadings(rc, f, from, to)
	stageCounters(r, c0, c1, "traced mid")
	umReadings(r, c0.um, c1.um, "traced mid")
	f.mu.Lock()
	for _, rec := range f.recs {
		if rec.due >= from && rec.due < to && rec.seen != 0 && rec.ack != 0 {
			root := tr.root("ddu", "modify", rec.due, rec.due, rec.seen)
			tr.child(root, "device.ack", "modify", rec.due, rec.ack)
			tr.child(root, "ack_to_commit", "modify", min(rec.ack, rec.seen), rec.seen)
		}
	}
	f.mu.Unlock()

	calls := 200
	if rc.short {
		calls = 10
	}
	// Notification hop: device ack -> the Update Manager's listener picks
	// the notification up (its DDUsForwarded counter ticks).
	pbx := sessions[0]
	var hop []float64
	for i := 0; i < calls; i++ {
		before := sys.UM.Stats().DDUsForwarded
		rec := pbx.issue(f, f.now())
		acked := time.Now()
		for sys.UM.Stats().DDUsForwarded == before {
			if time.Since(acked) > 5*time.Second {
				return fmt.Errorf("the update manager never picked up a device notification")
			}
			runtime.Gosched()
		}
		hop = append(hop, float64(time.Since(acked)))
		select {
		case <-rec.visible:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("a direct device update never reached the directory")
		}
	}
	r.set("device.notify_to_um_us", median(hop)/1e3, len(hop), "PBX ack -> UM.Stats().DDUsForwarded ticks")

	// The listener's work by hand: change the station under the filters' own
	// session (no notification), then translate and apply as the listener
	// would have.
	df := sys.UM.Filters()[0]
	_, keyDst := df.FromDevice().KeyAttrs()
	var translate, apply []float64
	var event ltap.Event
	for i := 0; i < calls; i++ {
		pbx.n++
		e := pbx.rng.Intn(pbx.pop/pbx.of)*pbx.of + pbx.k
		value := fmt.Sprintf("d-pbx-%d", pbx.n)
		key, rec := pbx.change(e, value)
		old, err := sys.PBX.Store.Get(key)
		if err != nil {
			return err
		}
		if _, err := sys.PBX.Store.Modify("metacomm", key, rec); err != nil {
			return err
		}
		desc := df.DescriptorFromNotification(device.Notification{Device: df.Name(), Session: "craft",
			Op: lexpress.OpModify, Key: key, Old: old, New: rec})
		t0 := tr.now()
		tu, err := df.FromDevice().Translate(desc)
		t1 := tr.now()
		if err != nil || tu == nil {
			return fmt.Errorf("from-device translate of %s: %v, %v", key, tu, err)
		}
		if err := sys.UM.LDAPViaLTAP().Apply(tu, keyDst); err != nil {
			return fmt.Errorf("applying a translated device update through LTAP: %w", err)
		}
		t2 := tr.now()
		root := tr.root("ladder", "ddu", 0, t0, t2)
		tr.child(root, rTranslate, "ddu", t0, t1)
		tr.child(root, "ldapfilter.apply", "ddu", t1, t2)
		translate, apply = append(translate, float64(t1-t0)), append(apply, float64(t2-t1))
		pbx.last[e] = value
		if ent, err := sys.DIT.Get(dn.MustParse(personDN(e))); err == nil {
			event = ltap.Event{ID: 1, Kind: ltap.EventModify, DN: personDN(e), Old: recordOf(ent.Attrs),
				Changes: []ltap.Change{{Op: "replace", Attr: "roomNumber", Values: []string{value}}}}
		}
	}
	r.set("lexpress.translate_us", median(translate)/1e3, len(translate), "Mapping.Translate, from-device direction (PBXToLDAP)")
	r.set("ladder.ddu_ldap_apply_us", median(apply)/1e3, len(apply), "LDAPFilter.Apply through LTAP: locate by key + the whole LDAP update path")
	rtt, err := actionRTT(event, calls)
	if err != nil {
		return err
	}
	r.set("ltap.action_rtt_us", rtt/1e3, calls, "RemoteAction.OnUpdate of a trapped modify against an ActionServer with a no-op action")
	return tr.write(rc.outDir, rc.workload)
}

// traceMesh is mesh_restart's traced middle. It returns the stages for
// accounting.
func traceMesh(rc *runCtx, a, b *metacomm.System, gen *generator, f, origin *follower) ([]*stage, error) {
	r := rc.res
	tr := newTracer(gen.epoch)
	applied := func() uint64 {
		if ps := b.Replicator.Stats().Peers; len(ps) == 1 {
			return ps[0].Applied
		}
		return 0
	}
	a0 := applied()
	closed := gen.run("closed", frac(rc.seconds, 0.2), 0)
	f.wait(10 * time.Second)
	r.set("replica.stream_recs_per_s", float64(applied()-a0)/closed.dur.Seconds(), int(applied()-a0),
		"records node B applied per second while A ran its closed loop")
	c0 := snapshot(a)
	gen.tracer.Store(tr)
	mid := gen.run("mid", frac(rc.seconds, 0.4), meshRate)
	gen.tracer.Store(nil)
	c1 := snapshot(a)
	rc.genHealth(mid)
	meshReadings(rc, f, origin, mid)
	stageCounters(r, c0, c1, "traced mid")
	umReadings(r, c0.um, c1.um, "traced mid")
	if ps := b.Replicator.Stats().Peers; len(ps) == 1 {
		r.set("replica.resyncs", float64(ps[0].Snapshots), 1, "snapshot catch-ups of node B's link (1 = the join)")
	}

	calls := 5000
	if rc.short {
		calls = 200
	}
	// ApplyRemote on its own: a fresh in-memory tree receiving stamped images.
	d := directory.NewSegmented(mcschema.New(), 0)
	org := directory.NewAttrs()
	org.Put("objectClass", mcschema.ClassOrganization)
	org.Put("o", "Lucent")
	if _, err := d.ApplyRemote(dn.MustParse(suffix), org, directory.Stamp{Seq: 1, Node: 9}, false); err != nil {
		return nil, err
	}
	i := 0
	ns, err := medianOf(calls, func() error {
		i++
		_, err := d.ApplyRemote(dn.MustParse(personDN(i)), plainImage(i), directory.Stamp{Seq: uint64(i + 1), Node: 9}, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("replica.apply_remote_us", ns/1e3, calls, "DIT.ApplyRemote of a new entry on an in-memory tree")

	// Heap per entry of the plain population.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	heap := directory.NewSegmented(mcschema.New(), 0)
	if err := heap.Add(dn.MustParse(suffix), org); err != nil {
		return nil, err
	}
	if err := seedPlain(heap, calls); err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.set("directory.heap_bytes_per_entry", float64(m1.HeapAlloc-m0.HeapAlloc)/float64(calls), calls, "live heap per entry of an in-memory tree of the plain population")
	runtime.KeepAlive(heap)

	t0 := time.Now()
	if err := a.DIT.Compact(); err != nil {
		return nil, err
	}
	r.set("directory.compact_s", time.Since(t0).Seconds(), 1, "DIT.Compact() of node A's journal after the load")
	return []*stage{closed, mid}, tr.write(rc.outDir, rc.workload)
}
