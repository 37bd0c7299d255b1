package um

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/lexpress"
	"metacomm/internal/mcschema"
)

// Synchronization engine sizing.
const (
	// syncChangelogBuffer is the delta subscription's buffer: it must absorb
	// every directory update committed during the bulk phase (both external
	// updates and the workers' own writebacks). Overflow is not fatal — the
	// engine falls back to a classic full-quiesce pass — just slow.
	syncChangelogBuffer = 8192
)

// SyncStats summarize one synchronization pass.
type SyncStats struct {
	DeviceRecords  int // records dumped from the device
	DirectoryAdds  int // people created in the directory
	DirectoryMods  int // directory entries converged to device state
	DeviceAdds     int // records created at the device
	DeviceMods     int // device records converged to directory state
	AlreadyInSync  int // record pairs that matched
	DuplicateKeys  int // directory entries shadowed by a duplicate key value
	Errors         int // reconciliation failures (also logged)
	QuiesceApplied bool

	// SnapshotUsed reports the two-phase snapshot+delta pass: bulk
	// reconciliation ran unquiesced against a COW directory snapshot, and
	// only the delta replay held the quiesce. False means the whole pass ran
	// quiesced (no snapshot source, or changelog overflow fallback).
	SnapshotUsed bool
	// SnapshotSeq is the directory commit sequence the snapshot reflects.
	SnapshotSeq uint64
	// Workers is the reconciliation worker-pool size.
	Workers int
	// BulkNs is the bulk reconciliation wall time; QuiesceNs is how long the
	// pass held the quiesce (the update-rejection window). For a full-
	// quiesce pass the two are equal.
	BulkNs    uint64
	QuiesceNs uint64
	// DeltaRecords counts external directory updates that landed during the
	// bulk phase; DeltaReplayed counts the reconciliation actions the delta
	// replay performed for them.
	DeltaRecords  int
	DeltaReplayed int
}

// RecordsPerSec is the bulk phase's reconciliation throughput.
func (s SyncStats) RecordsPerSec() float64 {
	if s.BulkNs == 0 {
		return 0
	}
	return float64(s.DeviceRecords+s.DeviceAdds) / (float64(s.BulkNs) / 1e9)
}

// SyncPolicy picks which side wins when a record exists on both sides with
// different values. Without per-attribute timestamps the two cannot be
// distinguished automatically — the paper's prototype has the same
// limitation — so the administrator states which side was cut off.
type SyncPolicy int

const (
	// DeviceWins recovers lost direct device updates: the directory is
	// converged to the device's state. Use after the DIRECTORY (or the
	// notification path) was unavailable. This is the default.
	DeviceWins SyncPolicy = iota
	// DirectoryWins recovers lost fanout: the device is converged to the
	// directory's state. Use after the DEVICE was unreachable.
	DirectoryWins
)

// Synchronize reconciles one device with the directory (paper §4.4): it is
// used to populate the directory initially and to recover after the device
// and the directory have been disconnected and updates have been lost.
//
// With a snapshot source configured (Config.Snapshot) the pass runs in two
// phases: the bulk reconciliation runs UNQUIESCED against a consistent COW
// directory snapshot and the device dump, with a pool of Config.SyncWorkers
// workers sharded by entry key; a brief quiesced delta phase then replays
// only the updates that arrived during the bulk pass. The update-rejection
// window is O(updates-during-sync), not O(population). Without a snapshot
// source the whole pass runs under the quiesce, as the paper describes
// (§5.1).
//
// Reconciliation policy: the device is authoritative for the attributes it
// owns (lost DDUs are recovered into the directory); the directory is
// authoritative for device membership (people in the directory whose data
// places them on the device are created there). Deletions that happened
// while the two were disconnected cannot be told apart from missed adds
// without tombstones — the paper's prototype has the same limitation — so a
// record present on either side survives.
func (u *UM) Synchronize(deviceName string) (SyncStats, error) {
	return u.SynchronizeWithPolicy(deviceName, DeviceWins)
}

// SynchronizeWithPolicy reconciles one device with the directory under an
// explicit conflict policy. Records missing on either side are created
// there regardless of policy; only value conflicts follow it.
func (u *UM) SynchronizeWithPolicy(deviceName string, policy SyncPolicy) (SyncStats, error) {
	var dev *syncDevice
	for _, df := range u.filters {
		if df.Name() == deviceName {
			dev = newSyncDevice(&filterRef{df: df}, policy)
			break
		}
	}
	if dev == nil {
		return SyncStats{}, fmt.Errorf("um: no filter for device %q", deviceName)
	}
	u.synchronize([]*syncDevice{dev})
	return dev.stats, dev.err
}

// SynchronizeAll reconciles every registered device in ONE pass: the
// devices share the bulk worker pool (cross-device items for the same entry
// shard together, preserving per-entry order) and one quiesced delta
// barrier, so the system goes quiet once for the whole pass. A device whose
// reconciliation fails does not abort the others; per-device errors are
// aggregated into the returned error while every device's stats remain in
// the map.
func (u *UM) SynchronizeAll() (map[string]SyncStats, error) {
	devs := make([]*syncDevice, 0, len(u.filters))
	for _, df := range u.filters {
		devs = append(devs, newSyncDevice(&filterRef{df: df}, DeviceWins))
	}
	u.synchronize(devs)
	out := make(map[string]SyncStats, len(devs))
	var errs []error
	for _, d := range devs {
		out[d.name] = d.stats
		if d.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", d.name, d.err))
		}
	}
	return out, errors.Join(errs...)
}

// quiesceForSync enters the quiet state a synchronization pass requires:
// the gateway quiesce stops new updates at LTAP; the engine drain barrier
// additionally flushes every shard queue, so the pass observes a quiet
// system even when no gateway is installed. It returns whether the gateway
// quiesce was applied and a release function undoing both layers.
func (u *UM) quiesceForSync() (gatewayQuiesced bool, release func(), err error) {
	noop := func() {}
	if u.gateway != nil {
		if !u.gateway.Quiesce() {
			return false, noop, fmt.Errorf("um: gateway already quiesced")
		}
		gatewayQuiesced = true
	}
	engineQuiesced := u.Quiesce()
	return gatewayQuiesced, func() {
		if engineQuiesced {
			u.Resume()
		}
		if gatewayQuiesced {
			u.gateway.Unquiesce()
		}
	}, nil
}

// synchronize runs one pass over the given devices, filling each device's
// stats and err in place.
func (u *UM) synchronize(devs []*syncDevice) {
	if len(devs) == 0 {
		return
	}
	rc := &recordingClient{inner: u.cfg.Backing, writes: map[string]map[string]int{}}
	writer := *u.ldapDirect
	writer.Client = rc
	eng := &syncEngine{u: u, devs: devs, writer: &writer, rc: rc, workers: u.cfg.SyncWorkers}
	if eng.workers < 1 {
		eng.workers = 1
	}
	if u.cfg.Snapshot != nil || u.cfg.SnapshotRange != nil {
		eng.snapshotMode = true
		eng.runSnapshotDelta()
	} else {
		eng.runFullQuiesce()
	}
	for _, d := range devs {
		d.stats.Workers = eng.workers
		u.setLastSync(d.name, d.stats)
		if d.err == nil {
			u.logf("um: synchronized %s: %+v", d.name, d.stats)
		}
	}
}

// syncDevice is one device's slice of a synchronization pass.
type syncDevice struct {
	f      *filterRef
	name   string
	policy SyncPolicy

	keySrc     string   // device-side key attribute
	ldapKey    string   // LDAP-side key attribute
	ldapKeyKey string   // ldapKey's canonical record key
	mapped     []string // canonical keys of the attributes the device speaks for, minus the origin stamp

	recs       []lexpress.Record      // device dump
	entryByKey map[string]*syncPerson // directory index by ldapKey
	byKey      map[string]bool        // device records by device key

	mu    sync.Mutex
	stats SyncStats
	err   error
}

func newSyncDevice(f *filterRef, policy SyncPolicy) *syncDevice {
	return &syncDevice{f: f, name: f.df.Name(), policy: policy}
}

// bump applies a stats mutation under the device's lock (workers run
// concurrently).
func (d *syncDevice) bump(fn func(*SyncStats)) {
	d.mu.Lock()
	fn(&d.stats)
	d.mu.Unlock()
}

// syncEngine drives one pass across all participating devices. writer is a
// clone of the UM's direct LDAP filter whose client is the recording
// wrapper, so every directory write the pass issues is attributed for the
// delta drain.
type syncEngine struct {
	u       *UM
	devs    []*syncDevice
	writer  *filter.LDAPFilter
	rc      *recordingClient
	workers int

	snapshotMode bool
	// snapshotByDN indexes the snapshot's persons by normalized DN — the
	// delta replay's reference for entries deleted during the bulk pass.
	snapshotByDN map[string]*syncPerson
}

// syncPerson is one directory person of a pass: the entry the directory
// helpers speak, and its lexpress record, built once and shared read-only by
// every device and worker (the snapshot's value slices are shared too, never
// copied). dnKey is the normalized DN, computed once in indexSnapshot.
type syncPerson struct {
	entry *ldapclient.Entry
	rec   lexpress.Record
	dnKey string
}

// newSyncPerson wraps an entry read from the live directory.
func newSyncPerson(en *ldapclient.Entry) *syncPerson {
	return &syncPerson{entry: en, rec: entryRecord(en)}
}

// failAll records err on every device that has not already failed.
func (e *syncEngine) failAll(err error) {
	for _, d := range e.devs {
		if d.err == nil {
			d.err = err
		}
	}
}

// runFullQuiesce is the classic pass: quiesce first, reconcile everything,
// release. Used when no snapshot source is configured and as the changelog-
// overflow fallback.
func (e *syncEngine) runFullQuiesce() {
	start := time.Now()
	quiesced, release, err := e.u.quiesceForSync()
	if err != nil {
		e.failAll(err)
		return
	}
	defer release()
	e.runBulk()
	elapsed := uint64(time.Since(start))
	for _, d := range e.devs {
		if d.err != nil {
			continue
		}
		d.stats.QuiesceApplied = quiesced
		d.stats.BulkNs = elapsed
		d.stats.QuiesceNs = elapsed
	}
}

// runSnapshotDelta is the two-phase pass: bulk reconciliation against a COW
// snapshot with no quiesce at all, then a short quiesced window replaying
// only the updates that landed meanwhile.
func (e *syncEngine) runSnapshotDelta() {
	bulkStart := time.Now()
	var (
		persons []*syncPerson
		seq     uint64
		changes <-chan directory.UpdateRecord
		cancel  func()
	)
	if e.u.cfg.SnapshotRange != nil {
		// Streaming cut: person entries are filtered and converted as the
		// directory segments stream by, so the full directory is never
		// materialized — non-person entries cost one visit, not a slot in a
		// population-sized snapshot slice.
		seq, changes, cancel = e.u.cfg.SnapshotRange(syncChangelogBuffer, func(en directory.Entry) bool {
			if ce := personEntry(en); ce != nil {
				persons = append(persons, ce)
			}
			return true
		})
	} else {
		var snapshot []directory.Entry
		snapshot, seq, changes, cancel = e.u.cfg.Snapshot(syncChangelogBuffer)
		persons = personEntries(snapshot)
	}
	defer cancel()
	e.runBulkEntries(persons)
	bulkNs := uint64(time.Since(bulkStart))

	quiesced, release, err := e.u.quiesceForSync()
	if err != nil {
		e.failAll(err)
		return
	}
	defer release()
	qStart := time.Now()

	// Every update committed before the quiesce completed has already been
	// emitted into the subscription buffer (records are emitted
	// synchronously at commit), so a non-blocking drain sees the complete
	// delta.
	dirty, external, overflowed := e.drain(changes)
	if overflowed {
		// The bulk phase outlasted the buffer. Finish as a classic full
		// pass under the quiesce we already hold: re-dump and reconcile
		// against live state.
		e.u.logf("um: sync changelog overflowed (buffer %d); falling back to full reconciliation under quiesce", syncChangelogBuffer)
		for _, d := range e.devs {
			d.stats = SyncStats{}
			d.err = nil
		}
		e.runBulk()
		qNs := uint64(time.Since(qStart))
		for _, d := range e.devs {
			if d.err != nil {
				continue
			}
			d.stats.QuiesceApplied = quiesced
			d.stats.BulkNs = bulkNs + qNs
			d.stats.QuiesceNs = qNs
		}
		return
	}

	replayed := e.replay(dirty)
	qNs := uint64(time.Since(qStart))
	for _, d := range e.devs {
		if d.err != nil {
			continue
		}
		d.stats.QuiesceApplied = quiesced
		d.stats.SnapshotUsed = true
		d.stats.SnapshotSeq = seq
		d.stats.BulkNs = bulkNs
		d.stats.QuiesceNs = qNs
		d.stats.DeltaRecords = external
		_ = replayed
	}
}

// runBulk dumps the live directory and reconciles against it (the classic
// quiesced pass and the changelog-overflow fallback).
func (e *syncEngine) runBulk() {
	live, err := e.loadDirectory()
	if err != nil {
		e.failAll(err)
		return
	}
	persons := make([]*syncPerson, len(live))
	for i, en := range live {
		persons[i] = newSyncPerson(en)
	}
	e.runBulkEntries(persons)
}

// runBulkEntries dumps and indexes every device and reconciles all items
// (the directory's persons) through the worker pool.
func (e *syncEngine) runBulkEntries(allEntries []*syncPerson) {
	e.indexSnapshot(allEntries)

	var wg sync.WaitGroup
	for _, dev := range e.devs {
		wg.Add(1)
		go func(d *syncDevice) {
			defer wg.Done()
			e.prepareDevice(d, allEntries)
		}(dev)
	}
	wg.Wait()

	e.runPool(e.buildItems(allEntries))
}

// loadDirectory scans the live directory once for all person entries —
// locating each device record with its own subtree search would make
// synchronization quadratic in the population.
func (e *syncEngine) loadDirectory() ([]*ldapclient.Entry, error) {
	entries, err := e.u.cfg.Backing.Search(&ldap.SearchRequest{
		BaseDN: e.u.cfg.Suffix.String(),
		Scope:  ldap.ScopeWholeSubtree,
		Filter: ldap.Eq("objectClass", mcschema.ClassPerson),
	})
	if err != nil {
		return nil, fmt.Errorf("um: dumping directory: %w", err)
	}
	return entries, nil
}

// personEntries converts the snapshot's person entries to the forms the
// reconciliation speaks. The snapshot shares the tree's immutable attribute
// values; nothing here may mutate them.
func personEntries(snapshot []directory.Entry) []*syncPerson {
	var out []*syncPerson
	for _, se := range snapshot {
		if p := personEntry(se); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// personEntry converts one snapshot entry, or returns nil for non-person
// entries (the streaming path's per-entry filter). The entry and the record
// are built in one walk, the record keyed by the snapshot's interned lowered
// keys.
func personEntry(se directory.Entry) *syncPerson {
	if se.Attrs == nil {
		return nil
	}
	isPerson := false
	for _, v := range se.Attrs.Get("objectclass") { // lowered: no per-entry case folding
		if strings.EqualFold(v, mcschema.ClassPerson) {
			isPerson = true
			break
		}
	}
	if !isPerson {
		return nil
	}
	p := &syncPerson{
		entry: &ldapclient.Entry{DN: se.DN.String(), Attributes: make([]ldap.Attribute, 0, se.Attrs.Len())},
		rec:   make(lexpress.Record, se.Attrs.Len()),
	}
	se.Attrs.EachKeyed(func(key, attr string, values []string) {
		p.entry.Attributes = append(p.entry.Attributes, ldap.Attribute{Type: attr, Values: values})
		p.rec[key] = values
	})
	return p
}

// indexSnapshot normalizes every person's DN — once per pass — and builds
// the by-DN index the delta replay consults.
func (e *syncEngine) indexSnapshot(persons []*syncPerson) {
	e.snapshotByDN = make(map[string]*syncPerson, len(persons))
	for _, p := range persons {
		p.dnKey = normalizeDNString(p.entry.DN)
		e.snapshotByDN[p.dnKey] = p
	}
}

// prepareDevice dumps one device and builds its key indexes. Duplicate
// directory key values — two entries claiming the same device key — shadow
// each other in the index; they are counted, logged, and the last one wins
// (the historical behavior).
func (e *syncEngine) prepareDevice(dev *syncDevice, allEntries []*syncPerson) {
	recs, err := dev.f.df.Converter().Dump()
	if err != nil {
		dev.err = fmt.Errorf("um: dumping %s: %w", dev.name, err)
		return
	}
	dev.recs = recs
	dev.stats.DeviceRecords = len(recs)
	dev.keySrc = dev.f.keySrc()
	_, dev.ldapKey = dev.f.df.FromDevice().KeyAttrs()
	dev.ldapKeyKey = strings.ToLower(dev.ldapKey)
	dev.mapped = nil
	for _, a := range dev.f.df.FromDevice().MappedAttrs() {
		if !strings.EqualFold(a, mcschema.AttrLastUpdater) {
			dev.mapped = append(dev.mapped, strings.ToLower(a))
		}
	}

	dev.entryByKey = make(map[string]*syncPerson, len(allEntries))
	for _, p := range allEntries {
		k := first(p.rec[dev.ldapKeyKey])
		if k == "" {
			continue
		}
		if prev, dup := dev.entryByKey[k]; dup {
			dev.stats.DuplicateKeys++
			dev.stats.Errors++
			e.u.logError(dev.name, "ldap", "sync-index", k,
				fmt.Errorf("duplicate %s=%q: %s shadows %s", dev.ldapKey, k, p.entry.DN, prev.entry.DN))
		}
		dev.entryByKey[k] = p
	}
	dev.byKey = make(map[string]bool, len(recs))
	keySrc := strings.ToLower(dev.keySrc)
	for _, rec := range recs {
		dev.byKey[first(rec[keySrc])] = true
	}
}

// syncItem is one unit of reconciliation work. Pass 1 items (rec != nil)
// reconcile a device record into the directory; pass 2 items (dirEntry !=
// nil) push directory-only people down to the device.
type syncItem struct {
	dev      *syncDevice
	rec      lexpress.Record
	img      lexpress.Record
	key      string
	entry    *syncPerson
	dirEntry *syncPerson
	shard    string
}

// buildItems translates dumps and snapshot into work items. Image
// computation errors are charged here so workers only see routable items.
// The shard string keys worker routing: all items touching one directory
// entry carry the same shard (per-entry operation order is preserved, the
// UM shard discipline), including cross-device items in SynchronizeAll.
func (e *syncEngine) buildItems(allEntries []*syncPerson) []syncItem {
	var items []syncItem
	for _, dev := range e.devs {
		if dev.err != nil {
			continue
		}
		// Pass 1: device -> directory. Every device record must exist in
		// the directory with converged attributes.
		for _, rec := range dev.recs {
			img, err := dev.f.df.FromDevice().Image(rec)
			if err != nil {
				dev.stats.Errors++
				e.u.logError(dev.name, "ldap", "sync", rec.First(dev.keySrc), err)
				continue
			}
			key := first(img[dev.ldapKeyKey])
			if key == "" {
				dev.stats.Errors++
				e.u.logError(dev.name, "ldap", "sync", rec.String(), fmt.Errorf("record has no %s", dev.ldapKey))
				continue
			}
			it := syncItem{dev: dev, rec: rec, img: img, key: key, entry: dev.entryByKey[key]}
			if it.entry != nil {
				it.shard = it.entry.dnKey
			} else {
				it.shard = "cn:" + strings.ToLower(img.First(mcschema.AttrCN))
			}
			items = append(items, it)
		}
		// Pass 2: directory -> device. People the directory places on this
		// device but the device does not know get created there.
		for _, p := range allEntries {
			items = append(items, syncItem{dev: dev, dirEntry: p, shard: p.dnKey})
		}
	}
	return items
}

// runPool reconciles the items with the worker pool: items are routed to
// workers by FNV-32a of their shard string (the UM shard-hash discipline),
// so items for one entry run on one worker in submission order while
// distinct entries proceed in parallel.
func (e *syncEngine) runPool(items []syncItem) {
	n := e.workers
	chans := make([]chan syncItem, n)
	var wg sync.WaitGroup
	for i := range chans {
		// A few dozen queued items let the dispatcher run ahead while a
		// worker waits on a device round trip.
		chans[i] = make(chan syncItem, 32)
		wg.Add(1)
		go func(ch chan syncItem) {
			defer wg.Done()
			for it := range ch {
				e.process(it)
			}
		}(chans[i])
	}
	for _, it := range items {
		chans[fnv32a(it.shard)%uint32(n)] <- it
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
}

// fnv32a is FNV-32a of s, computed without the hash.Hash allocation.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// process reconciles one item on a pool goroutine.
func (e *syncEngine) process(it syncItem) {
	if it.dirEntry != nil {
		e.processPass2(it)
		return
	}
	if it.entry == nil {
		e.processAdd(it)
		return
	}
	e.reconcilePair(it, it.entry)
}

// processAdd handles a device record with no directory entry. The bulk
// phase runs unquiesced, so a concurrent DDU may create the same person
// between the snapshot and our add: entryAlreadyExists is resolved by
// locating the live entry by key and converging against it, never by
// blindly qualifying the RDN (which would duplicate the person).
func (e *syncEngine) processAdd(it syncItem) {
	dev := it.dev
	err := e.writer.AddEntryOnce(it.img)
	if ldap.IsCode(err, ldap.ResultEntryAlreadyExists) {
		live, lerr := e.writer.Locate(dev.ldapKey, it.key)
		if lerr != nil {
			dev.bump(func(s *SyncStats) { s.Errors++ })
			e.u.logError(dev.name, "ldap", "sync-add", it.key, lerr)
			return
		}
		if live != nil {
			// The person exists under a different key index view (created
			// since the snapshot, or shadowed): converge the pair instead.
			e.reconcilePair(it, newSyncPerson(live))
			return
		}
		// The natural name is taken by a DIFFERENT person; qualify the RDN
		// with the key to keep it unique.
		err = e.writer.AddEntryQualified(it.img, it.key)
	}
	if err != nil {
		dev.bump(func(s *SyncStats) { s.Errors++ })
		e.u.logError(dev.name, "ldap", "sync-add", it.key, err)
		return
	}
	dev.bump(func(s *SyncStats) { s.DirectoryAdds++ })
}

// reconcilePair reconciles a device record against its directory entry.
// Comparison and convergence cover only the attributes the device speaks
// for (the mapping body's targets), never derive-rule helpers like sn, and
// never the origin stamp — synchronization is reconciliation, not an
// update.
func (e *syncEngine) reconcilePair(it syncItem, p *syncPerson) {
	dev := it.dev
	if mappedInSync(dev.mapped, it.img, p.rec) {
		dev.bump(func(s *SyncStats) { s.AlreadyInSync++ })
		return
	}
	entry := p.entry
	if dev.policy == DeviceWins {
		cmp := restrictRecord(it.img, dev.mapped)
		cur := restrictRecord(p.rec, dev.mapped)
		plan, err := e.writer.PlanConverge(entry, cur, cmp)
		if err != nil {
			dev.bump(func(s *SyncStats) { s.Errors++ })
			e.u.logError(dev.name, "ldap", "sync-mod", it.key, err)
			return
		}
		if plan.Empty() {
			dev.bump(func(s *SyncStats) { s.AlreadyInSync++ })
			return
		}
		// One Modify through the recording client, preceded by the
		// non-atomic ModifyRDN half (§5.1) when the RDN changes.
		if err := e.writer.ApplyConverge(plan); err != nil {
			e.convergeError(dev, it.key, err)
			return
		}
		dev.bump(func(s *SyncStats) { s.DirectoryMods++ })
		return
	}
	// DirectoryWins: push the directory's state down to the device.
	tu, err := dev.f.df.Translate(lexpress.Descriptor{
		Source: "ldap", Op: lexpress.OpModify, Key: entry.DN, Old: p.rec, New: p.rec,
	})
	if err != nil || tu == nil {
		if err == nil {
			err = fmt.Errorf("entry %s not routable to %s", entry.DN, dev.name)
		}
		dev.bump(func(s *SyncStats) { s.Errors++ })
		e.u.logError("ldap", dev.name, "sync-mod", it.key, err)
		return
	}
	if _, err := dev.f.df.Apply(tu); err != nil {
		dev.bump(func(s *SyncStats) { s.Errors++ })
		e.u.logError("ldap", dev.name, "sync-mod", tu.Key, err)
		return
	}
	dev.bump(func(s *SyncStats) { s.DeviceMods++ })
}

// convergeError charges a directory-converge failure. In snapshot mode a
// noSuchObject means the entry was deleted during the bulk pass — the
// delete's changelog record makes the DN dirty and the delta replay
// resolves it, so it is not an error.
func (e *syncEngine) convergeError(dev *syncDevice, key string, err error) {
	if e.snapshotMode && ldap.IsCode(err, ldap.ResultNoSuchObject) {
		return
	}
	dev.bump(func(s *SyncStats) { s.Errors++ })
	e.u.logError(dev.name, "ldap", "sync-mod", key, err)
}

// processPass2 creates a device record for a person the directory places on
// the device.
func (e *syncEngine) processPass2(it syncItem) {
	dev := it.dev
	tu, err := dev.f.df.Translate(lexpress.Descriptor{
		Source: "ldap", Op: lexpress.OpAdd, Key: it.dirEntry.entry.DN, New: it.dirEntry.rec,
	})
	if err != nil || tu == nil {
		return // not under this device's management
	}
	if dev.byKey[tu.Key] {
		return
	}
	if e.snapshotMode && !e.liveExists(it.dirEntry.entry.DN) {
		// Deleted since the snapshot; creating the device record would
		// resurrect it. (The delete's delta record covers any remaining
		// race.)
		return
	}
	if _, err := dev.f.df.Apply(tu); err != nil {
		dev.bump(func(s *SyncStats) { s.Errors++ })
		e.u.logError("ldap", dev.name, "sync-add", tu.Key, err)
		return
	}
	dev.bump(func(s *SyncStats) { s.DeviceAdds++ })
}

// liveExists base-searches the live directory for the DN.
func (e *syncEngine) liveExists(dnStr string) bool {
	entries, err := e.rc.Search(&ldap.SearchRequest{BaseDN: dnStr, Scope: ldap.ScopeBaseObject})
	return err == nil && len(entries) == 1
}

// liveEntry fetches the live entry at the DN, or nil when absent.
func (e *syncEngine) liveEntry(dnStr string) (*ldapclient.Entry, error) {
	entries, err := e.rc.Search(&ldap.SearchRequest{BaseDN: dnStr, Scope: ldap.ScopeBaseObject})
	if ldap.IsCode(err, ldap.ResultNoSuchObject) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(entries) != 1 {
		return nil, nil
	}
	return entries[0], nil
}

// deltaRecord is one changelog record observed during the bulk phase,
// attributed to the engine's own writebacks or to an external update.
type deltaRecord struct {
	rec directory.UpdateRecord
	own bool
}

// dirtyDN collects the delta records touching one entry.
type dirtyDN struct {
	dnStr string
	recs  []deltaRecord
}

// drain empties the changelog subscription non-blocking (the quiesce is
// held and emission is synchronous at commit, so the buffer already holds
// the complete delta) and groups the records per normalized DN. Records
// under the errors container are bookkeeping, not population state, and are
// skipped. It returns overflowed=true when the subscription was closed for
// falling behind.
func (e *syncEngine) drain(changes <-chan directory.UpdateRecord) (map[string]*dirtyDN, int, bool) {
	dirty := map[string]*dirtyDN{}
	external := 0
	note := func(key, dnStr string, rec directory.UpdateRecord, own bool) {
		d := dirty[key]
		if d == nil {
			d = &dirtyDN{dnStr: dnStr}
			dirty[key] = d
		}
		d.recs = append(d.recs, deltaRecord{rec: rec, own: own})
	}
	for {
		select {
		case rec, ok := <-changes:
			if !ok {
				return nil, external, true
			}
			parsed, perr := dn.Parse(rec.DN)
			if perr == nil && parsed.IsDescendantOf(e.u.errorBase()) {
				continue
			}
			key := normalizeDNString(rec.DN)
			own := e.rc.consume(key, recordFingerprint(rec))
			if !own {
				external++
			}
			note(key, rec.DN, rec, own)
			if rec.Op == "modifydn" && perr == nil {
				// The entry now also lives at the new name; reconcile both.
				if newRDN, rerr := dn.Parse(rec.NewRDN); rerr == nil && newRDN.Depth() == 1 {
					newDN := parsed.WithRDN(newRDN.RDN())
					note(newDN.Normalize(), newDN.String(), rec, own)
				}
			}
		default:
			return dirty, external, false
		}
	}
}

// replay reconciles every entry an external update touched during the bulk
// pass, under the held quiesce. The engine's own writebacks were attributed
// during the drain; a DN whose records are all our own needs nothing.
func (e *syncEngine) replay(dirty map[string]*dirtyDN) int {
	replayed := 0
	for key, d := range dirty {
		hasExternal := false
		for _, r := range d.recs {
			if !r.own {
				hasExternal = true
				break
			}
		}
		if !hasExternal {
			continue
		}
		replayed += e.replayDN(key, d)
	}
	return replayed
}

// replayDN re-reconciles one dirty entry against its live state.
//
// The consistency argument: an external update that landed during the bulk
// pass went through the normal trap path — it committed to the directory
// and fanned out to the devices before the quiesce completed. A bulk worker
// computing from the snapshot may then have overwritten it (a DeviceWins
// converge re-asserting pre-update device state). Whenever one of our own
// writes follows an external record for the entry, the external modifies
// are re-applied — external updates are newer than the snapshot the pass is
// defined against, so they win — and the devices are converged to the final
// directory state. Entries deleted during the pass are un-resurrected with
// conditional deletes computed from the snapshot image.
func (e *syncEngine) replayDN(key string, d *dirtyDN) int {
	replayed := 0
	live, err := e.liveEntry(d.dnStr)
	if err != nil {
		e.replayError(key, err)
		return 0
	}
	if live == nil {
		return e.replayDeleted(key)
	}
	if clobbered(d.recs) {
		e.reapplyExternal(d)
		if refetched, rerr := e.liveEntry(d.dnStr); rerr == nil && refetched != nil {
			live = refetched
		}
	}
	p := newSyncPerson(live)
	for _, dev := range e.devs {
		if dev.err != nil {
			continue
		}
		if e.reconcileLive(dev, p) {
			replayed++
		}
	}
	return replayed
}

// clobbered reports whether one of the engine's own writes follows an
// external record — the external update may have been overwritten.
func clobbered(recs []deltaRecord) bool {
	sawExternal := false
	for _, r := range recs {
		if !r.own {
			sawExternal = true
		} else if sawExternal {
			return true
		}
	}
	return false
}

// reapplyExternal re-applies the external records' content in commit order,
// restoring any external update a bulk writeback overwrote. Add records
// re-assert their attributes; structural ops (delete, modifydn) are left to
// the live-state reconciliation.
func (e *syncEngine) reapplyExternal(d *dirtyDN) {
	for _, r := range d.recs {
		if r.own {
			continue
		}
		var changes []ldap.Change
		switch r.rec.Op {
		case "modify":
			for _, c := range r.rec.Changes {
				changes = append(changes, ldap.Change{Op: modOpFromString(c.Op),
					Attribute: ldap.Attribute{Type: c.Attr, Values: c.Values}})
			}
		case "add", "entry":
			r.rec.PostImage().EachSorted(func(attr string, vals []string) {
				changes = append(changes, ldap.Change{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: attr, Values: vals}})
			})
		default:
			continue
		}
		if len(changes) == 0 {
			continue
		}
		if err := e.rc.Modify(d.dnStr, changes); err != nil &&
			!ldap.IsCode(err, ldap.ResultNoSuchObject) &&
			!ldap.IsCode(err, ldap.ResultAttributeOrValueExists) &&
			!ldap.IsCode(err, ldap.ResultNoSuchAttribute) {
			e.replayError(d.dnStr, err)
		}
	}
}

// replayDeleted handles a dirty DN with no live entry: it was deleted (or
// renamed away) during the bulk pass. Any device record the bulk pass
// created or converged from the snapshot image is a resurrection; undo it
// with a conditional delete. When the entry merely moved (same key at a new
// name), the live entry is reconciled instead.
func (e *syncEngine) replayDeleted(key string) int {
	snap := e.snapshotByDN[key]
	if snap == nil {
		return 0 // created and removed within the pass; devices followed the fan-out
	}
	replayed := 0
	for _, dev := range e.devs {
		if dev.err != nil {
			continue
		}
		tu, err := dev.f.df.Translate(lexpress.Descriptor{
			Source: "ldap", Op: lexpress.OpDelete, Key: snap.entry.DN, Old: snap.rec,
		})
		if err != nil || tu == nil {
			continue // the snapshot image never placed this person on the device
		}
		// A rename keeps the key: if some live entry still claims it, the
		// person moved rather than left — converge the device to that entry.
		devKey := tu.OldKey
		if devKey == "" {
			devKey = tu.Key
		}
		if liveByKey, lerr := e.writer.Locate(dev.ldapKey, first(snap.rec[dev.ldapKeyKey])); lerr == nil && liveByKey != nil {
			if e.reconcileLive(dev, newSyncPerson(liveByKey)) {
				replayed++
			}
			continue
		}
		tu.Conditional = true // already-gone device records are fine
		if _, err := dev.f.df.Apply(tu); err != nil {
			dev.bump(func(s *SyncStats) { s.Errors++ })
			e.u.logError("ldap", dev.name, "sync-delta", devKey, err)
			continue
		}
		dev.bump(func(s *SyncStats) { s.DeltaReplayed++ })
		replayed++
	}
	return replayed
}

// reconcileLive converges one device to the live directory state of an
// entry the delta touched. The directory is authoritative here: the
// external update committed there and already fanned out, so this is a
// convergence re-assertion ordered after every bulk writeback.
func (e *syncEngine) reconcileLive(dev *syncDevice, live *syncPerson) bool {
	tu, err := dev.f.df.Translate(lexpress.Descriptor{
		Source: "ldap", Op: lexpress.OpModify, Key: live.entry.DN, Old: live.rec, New: live.rec,
	})
	if err != nil || tu == nil {
		return false // not under this device's management
	}
	tu.Conditional = true // fall back to add when the device lacks the record
	if _, err := dev.f.df.Apply(tu); err != nil {
		dev.bump(func(s *SyncStats) { s.Errors++ })
		e.u.logError("ldap", dev.name, "sync-delta", tu.Key, err)
		return false
	}
	dev.bump(func(s *SyncStats) { s.DeltaReplayed++ })
	return true
}

// replayError charges a delta-phase system error to the pass (first
// device): it is not attributable to one device.
func (e *syncEngine) replayError(key string, err error) {
	if len(e.devs) == 0 {
		return
	}
	d := e.devs[0]
	d.bump(func(s *SyncStats) { s.Errors++ })
	e.u.logError("ldap", "ldap", "sync-delta", key, err)
}

func modOpFromString(s string) ldap.ModOp {
	switch s {
	case "add":
		return ldap.ModAdd
	case "delete":
		return ldap.ModDelete
	}
	return ldap.ModReplace
}

// normalizeDNString normalizes a DN string for map keys; unparsable strings
// fall back to case folding.
func normalizeDNString(s string) string {
	d, err := dn.Parse(s)
	if err != nil {
		return strings.ToLower(s)
	}
	return d.Normalize()
}

// filterRef wraps a device filter with sync-pass helpers.
type filterRef struct{ df *filter.DeviceFilter }

// keySrc returns the device-side key attribute.
func (f *filterRef) keySrc() string {
	src, _ := f.df.FromDevice().KeyAttrs()
	return src
}

// restrictRecord keeps only the attributes with the listed canonical keys.
func restrictRecord(rec lexpress.Record, keys []string) lexpress.Record {
	out := make(lexpress.Record, len(keys))
	for _, k := range keys {
		if vs := rec[k]; len(vs) > 0 {
			out[k] = vs
		}
	}
	return out
}

// mappedInSync compares the device's image against the entry's record over
// the mapped attributes (canonical keys): object classes need only be
// present (they accumulate across devices); everything else must match
// exactly — in both directions, so an attribute cleared at the device counts
// as drift.
func mappedInSync(keys []string, img, cur lexpress.Record) bool {
	for _, k := range keys {
		if k == "objectclass" {
			for _, v := range img[k] {
				if !containsFold(cur[k], v) {
					return false
				}
			}
			continue
		}
		if !sameValueSet(img[k], cur[k]) {
			return false
		}
	}
	return true
}

// first returns the first of vs, or "".
func first(vs []string) string {
	if len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// entryRecord converts a search result entry to a lexpress record.
func entryRecord(e *ldapclient.Entry) lexpress.Record {
	rec := lexpress.NewRecord()
	for _, a := range e.Attributes {
		rec.Set(a.Type, a.Values...)
	}
	return rec
}
