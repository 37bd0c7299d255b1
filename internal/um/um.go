// Package um implements MetaComm's Update Manager (paper §4.4): the central
// component that keeps the LDAP directory and the telecom devices
// consistent.
//
// All updates — whether they originate at an LDAP client (through LTAP) or
// directly at a device (a DDU, forwarded by the device filter through the
// LDAP filter to LTAP) — funnel through LTAP into the UM. The paper's
// prototype drained one global queue on a single coordinator thread; this
// implementation shards that queue by entry: the update's normalized DN is
// hashed onto one of Config.Shards worker queues, so every update for one
// entry lands on the same shard (total order per entry is preserved) while
// updates to distinct entries proceed in parallel. The relaxation is sound
// because the paper's consistency argument only ever needs per-entry
// ordering — LTAP already locks at entry granularity, and operations on
// independent entries commute. Each shard, for each update: applies it to
// the backing LDAP server, then fans out to the device filters
// concurrently (each device is an independent repository), joining before
// the device-generated write-back. Updates are reapplied to the device
// that originated them (marked conditional by lexpress's Originator
// mechanism), which is how MetaComm extends the directory world's relaxed
// write-write consistency to the meta-directory: every repository
// converges to its entry's serialization order.
//
// Failures at a device abort that device's update, log an error entry into
// the directory under the errors container, and notify the administrator;
// the UM also provides the synchronization facility used for initial
// population and for recovery after disconnection, executed in isolation
// under LTAP quiesce.
package um

import (
	"fmt"
	"hash/fnv"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapserver"
	"metacomm/internal/lexpress"
	"metacomm/internal/ltap"
	"metacomm/internal/mcschema"
)

// Config wires an Update Manager.
type Config struct {
	// Suffix is the directory suffix ("o=Lucent").
	Suffix dn.DN
	// PeopleBase is where device-discovered people are created (defaults
	// to Suffix).
	PeopleBase dn.DN
	// Backing talks directly to the backing LDAP server (bypassing LTAP —
	// the UM's own writes must not re-trigger).
	Backing filter.LDAPClient
	// Library is the compiled lexpress mapping library.
	Library *lexpress.Library
	// ClosureMapping names the intra-directory closure unit (default
	// "LDAPClosure", "" disables closure).
	ClosureMapping string
	// Shards is the number of update execution shards. Updates are routed
	// by normalized entry DN, so all updates for one entry serialize on one
	// shard while distinct entries proceed in parallel. 0 means
	// DefaultShards.
	Shards int
	// QueueDepth is each shard's queue capacity. A full shard queue
	// rejects the update with ldap.ResultBusy rather than blocking the
	// caller forever. 0 means DefaultQueueDepth.
	QueueDepth int
	// SyncWorkers sizes the synchronization reconciliation worker pool.
	// Items are sharded onto workers by entry key (the UM shard-hash
	// discipline), so per-entry ordering holds within a pass. 0 means
	// DefaultSyncWorkers.
	SyncWorkers int
	// Snapshot, when set, provides a consistent COW directory snapshot plus
	// a changelog subscription starting right after it (the DIT's
	// SnapshotAndSubscribeSeq). With it, synchronization runs its bulk
	// phase UNQUISCED against the snapshot and only quiesces to replay the
	// delta; without it, the whole pass runs under the quiesce as before.
	Snapshot func(buffer int) ([]directory.Entry, uint64, <-chan directory.UpdateRecord, func())
	// SnapshotRange is the streaming form of Snapshot (the DIT's
	// SnapshotRangeAndSubscribeSeq): the same exact cut, but entries are
	// streamed to the visit callback instead of materialized into one
	// slice, so the bulk pass's transient footprint is the person entries
	// it keeps, not the whole directory. Preferred over Snapshot when both
	// are set.
	SnapshotRange func(buffer int, visit func(directory.Entry) bool) (uint64, <-chan directory.UpdateRecord, func())
	// Outbox configures the durable device-update outbox with per-device
	// circuit breakers (see OutboxConfig). The zero value disables it:
	// failed device applies are logged as error entries and lost at that
	// device until the next synchronization pass.
	Outbox OutboxConfig
	// Log receives operational messages (nil = discard).
	Log *log.Logger
}

// Engine sizing defaults.
const (
	DefaultShards      = 4
	DefaultQueueDepth  = 256
	DefaultSyncWorkers = 4
)

// Stats are the UM's monotonic operation counters plus engine gauges.
type Stats struct {
	UpdatesProcessed uint64
	DeviceApplies    uint64
	Reapplies        uint64
	ClosureChanges   uint64
	ErrorsLogged     uint64
	DDUsForwarded    uint64
	// QueueRejections counts updates bounced with ldap.ResultBusy because
	// their shard queue was full.
	QueueRejections uint64
	// RemoteApplies counts replicated writes from peer nodes fanned out to
	// this node's devices; RemoteDrops counts ones dropped because their
	// shard queue was full (the next synchronization pass repairs the
	// device).
	RemoteApplies uint64
	RemoteDrops   uint64

	// Cumulative per-stage wall time, in nanoseconds. Divide by
	// UpdatesProcessed for means. EnqueueWaitNs is the time updates sat in
	// a shard queue before a worker picked them up; DirectoryApplyNs is
	// the backing-directory write; FanoutNs is the concurrent device
	// fan-out (translate+apply, joined); WriteBackNs is the
	// device-generated information write-back.
	EnqueueWaitNs    uint64
	DirectoryApplyNs uint64
	FanoutNs         uint64
	WriteBackNs      uint64

	// Pending gauges updates admitted but not yet fully processed
	// (queued or executing). A quiesced engine shows 0.
	Pending int
	// Shards echoes the engine's shard count.
	Shards int
}

// UM is the Update Manager.
type UM struct {
	cfg     Config
	closure *lexpress.Mapping // may be nil

	filters []*filter.DeviceFilter
	// gateway is the LTAP gateway in front of the directory (nil until
	// SetGateway): ldapLTAP applies device-originated updates through it and
	// synchronization quiesces it. ldapDirect applies coordinator/sync
	// updates to the backing server.
	gateway    *ltap.Gateway
	ldapLTAP   *filter.LDAPFilter
	ldapDirect *filter.LDAPFilter

	// shards are the per-entry-hash update queues, each drained by its own
	// worker goroutine.
	shards []chan *job
	wg     sync.WaitGroup
	stop   chan struct{}

	// outbox is the durable device-update retry facility (nil when
	// Config.Outbox leaves it disabled). The pointer is set in New and
	// never changes, so lock-free reads are safe.
	outbox *outbox

	// engMu guards the drain barrier: pending counts admitted-but-
	// unfinished updates, paused blocks new admissions (Quiesce/Resume).
	engMu   sync.Mutex
	engCond *sync.Cond
	pending int
	paused  bool

	errSeq  atomic.Uint64
	started atomic.Bool
	stopped atomic.Bool

	// syncMu guards lastSync, the most recent SyncStats per device name
	// (surfaced on the WBA /status page and the metacommd shutdown
	// summary).
	syncMu   sync.Mutex
	lastSync map[string]SyncStats

	updatesProcessed atomic.Uint64
	deviceApplies    atomic.Uint64
	reapplies        atomic.Uint64
	closureChanges   atomic.Uint64
	errorsLogged     atomic.Uint64
	ddusForwarded    atomic.Uint64
	queueRejections  atomic.Uint64
	remoteApplies    atomic.Uint64
	remoteDrops      atomic.Uint64
	enqueueWaitNs    atomic.Uint64
	directoryApplyNs atomic.Uint64
	fanoutNs         atomic.Uint64
	writeBackNs      atomic.Uint64
}

type job struct {
	ev       ltap.Event
	reply    chan ldap.Result
	enqueued time.Time
	// fn, when set, is a self-contained task (remote-write device
	// propagation) the shard worker runs instead of process(ev); it has no
	// caller waiting, so reply is nil.
	fn func()
}

// New builds an Update Manager. Call AddDevice for each device filter, then
// Start.
func New(cfg Config) (*UM, error) {
	if cfg.Library == nil {
		return nil, fmt.Errorf("um: config needs a mapping library")
	}
	if cfg.Backing == nil {
		return nil, fmt.Errorf("um: config needs a backing LDAP client")
	}
	if len(cfg.PeopleBase) == 0 {
		cfg.PeopleBase = cfg.Suffix
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.SyncWorkers <= 0 {
		cfg.SyncWorkers = DefaultSyncWorkers
	}
	u := &UM{
		cfg:      cfg,
		shards:   make([]chan *job, cfg.Shards),
		stop:     make(chan struct{}),
		lastSync: map[string]SyncStats{},
	}
	for i := range u.shards {
		u.shards[i] = make(chan *job, cfg.QueueDepth)
	}
	u.engCond = sync.NewCond(&u.engMu)
	name := cfg.ClosureMapping
	if name == "" {
		name = "LDAPClosure"
	}
	if m, ok := cfg.Library.Get(name); ok {
		u.closure = m
	} else if cfg.ClosureMapping != "" {
		return nil, fmt.Errorf("um: closure mapping %q not in library", cfg.ClosureMapping)
	}
	u.ldapDirect = &filter.LDAPFilter{
		Client: cfg.Backing, Suffix: cfg.Suffix, PeopleBase: cfg.PeopleBase, RDNAttr: mcschema.AttrCN,
	}
	if cfg.Outbox.Enabled() {
		u.outbox = newOutbox(u, cfg.Outbox)
	}
	return u, nil
}

// AddDevice registers a device filter. Must be called before Start.
func (u *UM) AddDevice(f *filter.DeviceFilter) { u.filters = append(u.filters, f) }

// SetGateway installs the LTAP gateway in front of the directory, which the
// UM calls in process: device-originated updates are applied through it, so
// they are trapped, locked and serialized like any LDAP update (§4.4), and
// synchronization quiesces it (§5.1). The gateway needs the UM as its
// action, so this is called after ltap.NewGateway and before Start. Without
// a gateway there is no DDU path and synchronization runs under the engine
// drain barrier alone.
func (u *UM) SetGateway(g *ltap.Gateway) {
	u.gateway = g
	u.ldapLTAP = &filter.LDAPFilter{
		Client: ldapserver.NewLocalClient(g), Suffix: u.cfg.Suffix, PeopleBase: u.cfg.PeopleBase, RDNAttr: mcschema.AttrCN,
	}
}

// LDAPViaLTAP exposes the LTAP-path LDAP filter (tests exercise the §5.1
// rename crash window through it).
func (u *UM) LDAPViaLTAP() *filter.LDAPFilter { return u.ldapLTAP }

// SetSnapshot installs (or, with nil, removes) the directory snapshot
// source the synchronization engine uses for its unquiesced bulk phase.
// Installing or removing it also removes a configured streaming source
// (SnapshotRange), so SetSnapshot(nil) forces the legacy full-quiesce pass
// — benchmarks and tests use that for comparison.
func (u *UM) SetSnapshot(fn func(int) ([]directory.Entry, uint64, <-chan directory.UpdateRecord, func())) {
	u.cfg.Snapshot = fn
	u.cfg.SnapshotRange = nil
}

// LastSyncStats returns the most recent synchronization stats per device.
func (u *UM) LastSyncStats() map[string]SyncStats {
	u.syncMu.Lock()
	defer u.syncMu.Unlock()
	out := make(map[string]SyncStats, len(u.lastSync))
	for k, v := range u.lastSync {
		out[k] = v
	}
	return out
}

// setLastSync records a pass's stats for LastSyncStats.
func (u *UM) setLastSync(device string, s SyncStats) {
	u.syncMu.Lock()
	u.lastSync[device] = s
	u.syncMu.Unlock()
}

// Filters returns the registered device filters.
func (u *UM) Filters() []*filter.DeviceFilter { return u.filters }

// Stats snapshots the counters.
func (u *UM) Stats() Stats {
	u.engMu.Lock()
	pending := u.pending
	u.engMu.Unlock()
	return Stats{
		UpdatesProcessed: u.updatesProcessed.Load(),
		DeviceApplies:    u.deviceApplies.Load(),
		Reapplies:        u.reapplies.Load(),
		ClosureChanges:   u.closureChanges.Load(),
		ErrorsLogged:     u.errorsLogged.Load(),
		DDUsForwarded:    u.ddusForwarded.Load(),
		QueueRejections:  u.queueRejections.Load(),
		RemoteApplies:    u.remoteApplies.Load(),
		RemoteDrops:      u.remoteDrops.Load(),
		EnqueueWaitNs:    u.enqueueWaitNs.Load(),
		DirectoryApplyNs: u.directoryApplyNs.Load(),
		FanoutNs:         u.fanoutNs.Load(),
		WriteBackNs:      u.writeBackNs.Load(),
		Pending:          pending,
		Shards:           len(u.shards),
	}
}

func (u *UM) logf(format string, args ...any) {
	if u.cfg.Log != nil {
		u.cfg.Log.Printf(format, args...)
	}
}

// Start launches the shard workers and the device notification listeners,
// and ensures the errors container exists.
func (u *UM) Start() error {
	if !u.started.CompareAndSwap(false, true) {
		return fmt.Errorf("um: already started")
	}
	if err := u.ensureErrorContainer(); err != nil {
		return err
	}
	if u.outbox != nil {
		if err := u.outbox.start(); err != nil {
			return err
		}
	}
	for _, q := range u.shards {
		u.wg.Add(1)
		go func(q chan *job) {
			defer u.wg.Done()
			u.shardWorker(q)
		}(q)
	}
	for _, f := range u.filters {
		if u.gateway == nil {
			break // no DDU path without a gateway
		}
		u.wg.Add(1)
		go func(f *filter.DeviceFilter) {
			defer u.wg.Done()
			u.deviceListener(f)
		}(f)
	}
	return nil
}

// Stop shuts the UM down. It is idempotent and safe to call on a UM that
// never started. Device converters are not closed (their owner closes
// them).
func (u *UM) Stop() {
	if !u.stopped.CompareAndSwap(false, true) {
		return
	}
	close(u.stop)
	// Wake anything blocked on the drain barrier (Quiesce or a paused
	// OnUpdate) so it can observe the stop.
	u.engMu.Lock()
	u.engCond.Broadcast()
	u.engMu.Unlock()
	u.wg.Wait()
	if u.outbox != nil {
		u.outbox.close()
	}
}

// shardFor routes an update to its shard: all updates for one entry hash to
// the same worker, which is what preserves per-entry total order.
func (u *UM) shardFor(name string) chan *job {
	if len(u.shards) == 1 {
		return u.shards[0]
	}
	key := name
	if parsed, err := dn.Parse(name); err == nil {
		key = parsed.Normalize()
	} else {
		key = strings.ToLower(name)
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return u.shards[h.Sum32()%uint32(len(u.shards))]
}

// OnUpdate implements ltap.Action: every trapped LDAP update is admitted
// through the drain barrier, routed to its entry's shard, and answered when
// that shard finishes the full update sequence. A full shard queue rejects
// the update with ResultBusy instead of blocking the caller.
func (u *UM) OnUpdate(ev ltap.Event) ldap.Result {
	u.engMu.Lock()
	for u.paused && !u.stopped.Load() {
		u.engCond.Wait()
	}
	if u.stopped.Load() {
		u.engMu.Unlock()
		return ldap.Result{Code: ldap.ResultUnavailable, Message: "um: stopped"}
	}
	u.pending++
	u.engMu.Unlock()

	j := &job{ev: ev, reply: make(chan ldap.Result, 1), enqueued: time.Now()}
	select {
	case u.shardFor(ev.DN) <- j:
	default:
		u.jobDone()
		u.queueRejections.Add(1)
		return ldap.Result{Code: ldap.ResultBusy,
			Message: "um: update queue full, retry later"}
	}
	select {
	case res := <-j.reply:
		return res
	case <-u.stop:
		return ldap.Result{Code: ldap.ResultUnavailable, Message: "um: stopped"}
	}
}

// PropagateRemote fans a replicated write from a peer node out to THIS
// node's device filters. The write already reached the local directory
// (DIT.ApplyRemote won its LWW resolution and committed), so the sequence
// here is the tail of the normal update sequence only: translate + apply
// per device, serialized per entry on the same shard its LDAP updates
// use. Two deliberate asymmetries against process():
//
//   - it never goes through LTAP — re-trapping a replicated write would
//     re-stamp it and loop it around the mesh;
//   - device-GENERATED information is discarded, not written back: the
//     ORIGIN node ran the write-back for its own write and that result
//     replicates over like any other update. A local write-back here
//     would race it with a fresh stamp and ping-pong the entry.
//
// images yields the local before/after images (nil old = created, nil new
// = deleted); it runs on the shard worker, so the replication link that
// calls PropagateRemote pays for neither the conversion nor a dropped
// update's. The call never blocks on a full shard queue: the update is
// dropped (counted in Stats.RemoteDrops) and the next synchronization
// pass repairs the device. Returns false on drop or when stopped.
func (u *UM) PropagateRemote(name string, images func() (old, new lexpress.Record)) bool {
	u.engMu.Lock()
	for u.paused && !u.stopped.Load() {
		u.engCond.Wait()
	}
	if u.stopped.Load() {
		u.engMu.Unlock()
		return false
	}
	u.pending++
	u.engMu.Unlock()

	j := &job{enqueued: time.Now(), fn: func() {
		old, new := images()
		u.propagateRemote(name, old, new)
	}}
	select {
	case u.shardFor(name) <- j:
		return true
	default:
		u.jobDone()
		u.remoteDrops.Add(1)
		return false
	}
}

// propagateRemote runs one remote write's device fan-out on its shard.
func (u *UM) propagateRemote(name string, old, new lexpress.Record) {
	u.remoteApplies.Add(1)
	op := lexpress.OpModify
	switch {
	case old == nil:
		op = lexpress.OpAdd
	case new == nil:
		op = lexpress.OpDelete
	}
	explicit := new
	if explicit == nil {
		explicit = old
	}
	desc := lexpress.Descriptor{
		Source:   "ldap",
		Op:       op,
		Key:      name,
		Old:      old,
		New:      new,
		Explicit: explicit.Attrs(),
	}
	fanStart := time.Now()
	u.fanOut(desc, new) // generated info discarded; see PropagateRemote
	u.fanoutNs.Add(uint64(time.Since(fanStart)))
}

// shardWorker drains one shard queue, serializing the update sequences of
// the entries that hash onto it.
func (u *UM) shardWorker(q chan *job) {
	for {
		select {
		case j := <-q:
			u.enqueueWaitNs.Add(uint64(time.Since(j.enqueued)))
			if j.fn != nil {
				j.fn()
			} else {
				j.reply <- u.process(j.ev)
			}
			u.jobDone()
		case <-u.stop:
			return
		}
	}
}

// jobDone retires one admitted update and wakes the drain barrier when the
// engine runs dry.
func (u *UM) jobDone() {
	u.engMu.Lock()
	u.pending--
	if u.pending == 0 {
		u.engCond.Broadcast()
	}
	u.engMu.Unlock()
}

// Quiesce is the engine's drain barrier: it blocks new updates from being
// admitted and waits until every queued and executing update has finished,
// so the caller (the synchronization facility, §5.1) observes a quiet
// system across all shards. It reports false when the engine is already
// quiesced. Pair with Resume.
func (u *UM) Quiesce() bool {
	u.engMu.Lock()
	defer u.engMu.Unlock()
	if u.paused {
		return false
	}
	u.paused = true
	for u.pending > 0 && !u.stopped.Load() {
		u.engCond.Wait()
	}
	return true
}

// Resume re-opens the engine after Quiesce.
func (u *UM) Resume() {
	u.engMu.Lock()
	u.paused = false
	u.engCond.Broadcast()
	u.engMu.Unlock()
}

// deviceListener forwards DDU notifications through the LDAP filter to
// LTAP (paper §4.4's update sequence for direct device updates).
func (u *UM) deviceListener(f *filter.DeviceFilter) {
	notifs := f.Converter().Notifications()
	for {
		select {
		case n, ok := <-notifs:
			if !ok {
				return
			}
			u.ddusForwarded.Add(1)
			desc := f.DescriptorFromNotification(n)
			tu, err := f.FromDevice().Translate(desc)
			if err != nil {
				u.logError(f.Name(), "ldap", desc.Op.String(), desc.Key, err)
				continue
			}
			if tu == nil {
				continue
			}
			_, keyDst := f.FromDevice().KeyAttrs()
			err = u.ldapLTAP.Apply(tu, keyDst)
			if err != nil && tu.Op == lexpress.OpAdd && ldap.IsCode(err, ldap.ResultEntryAlreadyExists) {
				// The record reached the directory through another path
				// first (e.g. a synchronization pass racing this DDU);
				// converge rather than complain.
				tu.Op = lexpress.OpModify
				tu.Old = tu.New
				err = u.ldapLTAP.Apply(tu, keyDst)
			}
			if err != nil {
				u.logError(f.Name(), "ldap", tu.Op.String(), tu.Key, err)
			}
		case <-u.stop:
			return
		}
	}
}

// process runs one update sequence, serialized per entry by its shard:
// apply to the backing directory, fan out to the devices concurrently, then
// write back any device-generated information after all devices finish.
func (u *UM) process(ev ltap.Event) ldap.Result {
	u.updatesProcessed.Add(1)
	name, err := dn.Parse(ev.DN)
	if err != nil {
		return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: err.Error()}
	}

	images, res := u.computeImages(ev, name)
	if res.Code != ldap.ResultSuccess {
		return res
	}

	// Closure: propagate dependent attributes (telephoneNumber <->
	// definityExtension <-> mailboxNumber ...). Explicitly set attributes
	// are never overwritten.
	var closureChanged []string
	var classAdds []ldap.Change
	if u.closure != nil && images.new != nil {
		changed, err := u.closure.ApplyClosure(images.old, images.new, images.explicit)
		if err != nil {
			if err == lexpress.ErrNoFixpoint {
				return ldap.Result{Code: ldap.ResultConstraintViolation,
					Message: "closure did not reach a fixpoint for this update"}
			}
			return ldap.Result{Code: ldap.ResultOther, Message: err.Error()}
		}
		closureChanged = changed
		u.closureChanges.Add(uint64(len(changed)))
		classAdds = u.ensureAuxClasses(images.new, closureChanged)
	}
	if ev.Kind == ltap.EventAdd && images.new != nil {
		// A fresh entry may also need classes for attributes the client
		// supplied without declaring the class (weakly-typed tools do).
		u.ensureAuxClasses(images.new, images.new.Attrs())
	}

	// Apply to the backing directory first; failure aborts the sequence
	// and surfaces to the client.
	dirStart := time.Now()
	newDN, err := u.applyToDirectory(ev, name, images, closureChanged, classAdds)
	u.directoryApplyNs.Add(uint64(time.Since(dirStart)))
	if err != nil {
		return resultOf(err)
	}

	// Fan out to every device (including a conditional reapply to the
	// originator).
	desc := lexpress.Descriptor{
		Source: "ldap",
		Op:     opOfEvent(ev.Kind),
		Key:    newDN.String(),
		Old:    images.old,
		New:    images.new,
		Explicit: append(append([]string(nil), images.explicit...),
			closureChanged...),
	}
	fanStart := time.Now()
	generated := u.fanOut(desc, images.new)
	u.fanoutNs.Add(uint64(time.Since(fanStart)))
	if len(generated) > 0 {
		wbStart := time.Now()
		err := u.applyGenerated(newDN, generated)
		u.writeBackNs.Add(uint64(time.Since(wbStart)))
		if err != nil {
			u.logError("um", "ldap", "modify", newDN.String(), err)
		}
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// fanOut translates the update for every device filter and applies the
// concerned ones concurrently — each device is an independent repository,
// so within one update only the write-back must be ordered after them
// (paper §5.5). It returns the merged device-generated information,
// collected in filter-registration order for determinism.
func (u *UM) fanOut(desc lexpress.Descriptor, ldapNew lexpress.Record) lexpress.Record {
	type target struct {
		f      *filter.DeviceFilter
		tu     *lexpress.TargetUpdate
		stored lexpress.Record
		err    error
	}
	targets := make([]*target, 0, len(u.filters))
	for _, f := range u.filters {
		tu, err := f.Translate(desc)
		if err != nil {
			u.logError("ldap", f.Name(), desc.Op.String(), desc.Key, err)
			continue
		}
		if tu == nil {
			continue
		}
		u.deviceApplies.Add(1)
		if tu.Conditional {
			u.reapplies.Add(1)
		}
		if u.outbox != nil && u.outbox.deferUpdate(f, desc.Key, tu) {
			// Open breaker or backlog ahead of this entry: the update is
			// journaled behind the device's outbox instead of applied here
			// (the drainer replays it in order once the device answers).
			continue
		}
		targets = append(targets, &target{f: f, tu: tu})
	}
	if len(targets) > 1 {
		var wg sync.WaitGroup
		for _, t := range targets {
			wg.Add(1)
			go func(t *target) {
				defer wg.Done()
				t.stored, t.err = u.applyDevice(t.f, t.tu)
			}(t)
		}
		wg.Wait()
	} else if len(targets) == 1 {
		t := targets[0]
		t.stored, t.err = u.applyDevice(t.f, t.tu)
	}
	generated := lexpress.NewRecord()
	for _, t := range targets {
		if t.err != nil {
			if u.outbox != nil && u.outbox.handleFailure(t.f, desc.Key, t.tu, t.err) {
				continue // journaled for retry; no error entry unless dropped
			}
			u.logError("ldap", t.f.Name(), t.tu.Op.String(), t.tu.Key, t.err)
			continue
		}
		// Device-generated information (paper §5.5): fields the device
		// invented flow back to the directory only, after all devices.
		u.collectGenerated(t.f, t.tu, t.stored, ldapNew, generated)
	}
	return generated
}

// images carries the before/after records of the entry under update.
type images struct {
	old      lexpress.Record
	new      lexpress.Record
	explicit []string
}

// computeImages derives the old/new records and the explicitly set
// attributes from the trapped event.
func (u *UM) computeImages(ev ltap.Event, name dn.DN) (images, ldap.Result) {
	ok := ldap.Result{Code: ldap.ResultSuccess}
	switch ev.Kind {
	case ltap.EventAdd:
		rec := ev.Attrs.Clone()
		for _, ava := range name.RDN() {
			if !hasValue(rec, ava.Attr, ava.Value) {
				rec[strings.ToLower(ava.Attr)] = append(rec.Get(ava.Attr), ava.Value)
			}
		}
		u.stampOrigin(rec, rec.Attrs())
		return images{new: rec, explicit: rec.Attrs()}, ok

	case ltap.EventDelete:
		if ev.Old == nil {
			return images{}, ldap.Result{Code: ldap.ResultNoSuchObject,
				Message: "no entry " + ev.DN}
		}
		return images{old: ev.Old}, ok

	case ltap.EventModify:
		if ev.Old == nil {
			return images{}, ldap.Result{Code: ldap.ResultNoSuchObject,
				Message: "no entry " + ev.DN}
		}
		rec := ev.Old.Clone()
		var explicit []string
		for _, c := range ev.Changes {
			lc, err := c.ToLDAP()
			if err != nil {
				return images{}, ldap.Result{Code: ldap.ResultProtocolError, Message: err.Error()}
			}
			applyChange(rec, lc)
			explicit = append(explicit, c.Attr)
		}
		u.stampOrigin(rec, explicit)
		return images{old: ev.Old, new: rec, explicit: explicit}, ok

	case ltap.EventModifyDN:
		if ev.Old == nil {
			return images{}, ldap.Result{Code: ldap.ResultNoSuchObject,
				Message: "no entry " + ev.DN}
		}
		newRDN, err := dn.Parse(ev.NewRDN)
		if err != nil || newRDN.Depth() != 1 {
			return images{}, ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: "bad newRDN"}
		}
		rec := ev.Old.Clone()
		var explicit []string
		for _, ava := range newRDN.RDN() {
			vals := rec.Get(ava.Attr)
			if ev.DeleteOldRDN {
				vals = removeValue(vals, name.FirstValue(ava.Attr))
			}
			if !containsFold(vals, ava.Value) {
				vals = append(vals, ava.Value)
			}
			rec.Set(ava.Attr, vals...)
			explicit = append(explicit, ava.Attr)
		}
		u.stampOrigin(rec, explicit)
		return images{old: ev.Old, new: rec, explicit: explicit}, ok
	}
	return images{}, ldap.Result{Code: ldap.ResultProtocolError,
		Message: fmt.Sprintf("unknown event kind %q", ev.Kind)}
}

// stampOrigin records where this update came from. Device-originated
// updates arrive with lastUpdater explicitly set by the device->ldap
// mapping; anything else is an LDAP-client update.
func (u *UM) stampOrigin(rec lexpress.Record, explicit []string) {
	for _, a := range explicit {
		if strings.EqualFold(a, mcschema.AttrLastUpdater) {
			return
		}
	}
	rec.Set(mcschema.AttrLastUpdater, "ldap")
}

// ensureAuxClasses extends the record's objectClass list with the auxiliary
// classes the named attributes require; it returns the ModAdd changes for
// modify-path application.
func (u *UM) ensureAuxClasses(rec lexpress.Record, attrs []string) []ldap.Change {
	var out []ldap.Change
	classes := rec.Get("objectClass")
	for _, a := range attrs {
		cls := mcschema.AuxClassFor(a)
		if cls == "" || containsFold(classes, cls) {
			continue
		}
		classes = append(classes, cls)
		out = append(out, ldap.Change{Op: ldap.ModAdd,
			Attribute: ldap.Attribute{Type: "objectClass", Values: []string{cls}}})
	}
	if len(out) > 0 {
		rec.Set("objectClass", classes...)
	}
	return out
}

// applyToDirectory writes the serialized update to the backing server. For
// a ModifyDN it issues the non-atomic ModifyRDN/Modify pair of §5.1. It
// returns the entry's (possibly new) DN.
func (u *UM) applyToDirectory(ev ltap.Event, name dn.DN, img images, closureChanged []string, classAdds []ldap.Change) (dn.DN, error) {
	switch ev.Kind {
	case ltap.EventAdd:
		return name, u.cfg.Backing.Add(ev.DN, recordAttributes(img.new))

	case ltap.EventDelete:
		return name, u.cfg.Backing.Delete(ev.DN)

	case ltap.EventModify:
		changes := make([]ldap.Change, 0, len(ev.Changes)+len(closureChanged)+len(classAdds))
		for _, c := range ev.Changes {
			lc, err := c.ToLDAP()
			if err != nil {
				return name, err
			}
			changes = append(changes, lc)
		}
		changes = append(changes, classAdds...)
		changes = append(changes, closureReplace(img.new, closureChanged)...)
		changes = append(changes, originChange(img.new, ev.Changes)...)
		return name, u.cfg.Backing.Modify(ev.DN, changes)

	case ltap.EventModifyDN:
		if err := u.cfg.Backing.ModifyDN(ev.DN, ev.NewRDN, ev.DeleteOldRDN); err != nil {
			return name, err
		}
		newRDN, _ := dn.Parse(ev.NewRDN)
		newDN := name.WithRDN(newRDN.RDN())
		// Second half of the pair: closure fallout and the origin stamp.
		changes := append(append([]ldap.Change(nil), classAdds...),
			closureReplace(img.new, closureChanged)...)
		changes = append(changes, ldap.Change{Op: ldap.ModReplace, Attribute: ldap.Attribute{
			Type: mcschema.AttrLastUpdater, Values: img.new.Get(mcschema.AttrLastUpdater)}})
		if len(changes) > 0 {
			if err := u.cfg.Backing.Modify(newDN.String(), changes); err != nil {
				return newDN, err
			}
		}
		return newDN, nil
	}
	return name, fmt.Errorf("um: unknown event kind %q", ev.Kind)
}

func closureReplace(rec lexpress.Record, attrs []string) []ldap.Change {
	var out []ldap.Change
	for _, a := range attrs {
		out = append(out, ldap.Change{Op: ldap.ModReplace,
			Attribute: ldap.Attribute{Type: a, Values: rec.Get(a)}})
	}
	return out
}

// originChange emits the lastUpdater stamp unless the client's own changes
// already set it.
func originChange(rec lexpress.Record, changes []ltap.Change) []ldap.Change {
	for _, c := range changes {
		if strings.EqualFold(c.Attr, mcschema.AttrLastUpdater) {
			return nil
		}
	}
	return []ldap.Change{{Op: ldap.ModReplace, Attribute: ldap.Attribute{
		Type: mcschema.AttrLastUpdater, Values: rec.Get(mcschema.AttrLastUpdater)}}}
}

// collectGenerated diffs what the device stored against what we sent; new
// information maps back through the device->ldap mapping into generated.
// The auxiliary classes the generated attributes require come along.
func (u *UM) collectGenerated(f *filter.DeviceFilter, tu *lexpress.TargetUpdate,
	stored lexpress.Record, ldapNew lexpress.Record, generated lexpress.Record) {
	if stored == nil || tu.Op == lexpress.OpDelete {
		return
	}
	diff := lexpress.NewRecord()
	for _, a := range stored.Attrs() {
		if !sameValues(stored.Get(a), tu.New.Get(a)) {
			diff.Set(a, stored.Get(a)...)
		}
	}
	if len(diff) == 0 {
		return
	}
	img, err := f.FromDevice().Image(stored)
	if err != nil {
		return
	}
	// What the directory would hold had the device stored exactly what it
	// was sent: an attribute whose image differs from this one is the
	// device's own doing.
	sent, _ := f.FromDevice().Image(tu.New)
	any := false
	for _, a := range img.Attrs() {
		if ldapNew != nil && ldapNew.Has(a) &&
			(sameValues(img.Get(a), sent.Get(a)) || sameValues(img.Get(a), ldapNew.Get(a))) {
			// Only NEW information flows back: an attribute the directory
			// lacks, or one the device generated afresh (a re-keyed mailbox
			// gets a new MailboxID) while the directory holds the old value.
			continue
		}
		if strings.EqualFold(a, "objectclass") || strings.EqualFold(a, mcschema.AttrLastUpdater) ||
			strings.EqualFold(a, mcschema.AttrCN) || strings.EqualFold(a, mcschema.AttrSN) {
			continue
		}
		generated.Set(a, img.Get(a)...)
		any = true
	}
	if any {
		// Carry the classes that make the new attributes legal.
		classes := generated.Get("objectClass")
		for _, c := range img.Get("objectClass") {
			if !containsFold(classes, c) {
				classes = append(classes, c)
			}
		}
		generated.Set("objectClass", classes...)
	}
}

// applyGenerated writes device-generated information back to the directory
// entry after all devices are updated (§5.5), diffing against the live
// entry so only real changes (and missing auxiliary classes) are written.
func (u *UM) applyGenerated(name dn.DN, generated lexpress.Record) error {
	entries, err := u.cfg.Backing.Search(&ldap.SearchRequest{
		BaseDN: name.String(), Scope: ldap.ScopeBaseObject,
	})
	if err != nil {
		return err
	}
	if len(entries) != 1 {
		return fmt.Errorf("um: entry %s vanished before generated-info write-back", name)
	}
	cur := entries[0]
	var changes []ldap.Change
	for _, a := range generated.Attrs() {
		if strings.EqualFold(a, "objectclass") {
			for _, v := range generated.Get(a) {
				if !containsFold(cur.Attr(a), v) {
					changes = append(changes, ldap.Change{Op: ldap.ModAdd,
						Attribute: ldap.Attribute{Type: "objectClass", Values: []string{v}}})
				}
			}
			continue
		}
		if sameValueSet(cur.Attr(a), generated.Get(a)) {
			continue
		}
		changes = append(changes, ldap.Change{Op: ldap.ModReplace,
			Attribute: ldap.Attribute{Type: a, Values: generated.Get(a)}})
	}
	if len(changes) == 0 {
		return nil
	}
	return u.cfg.Backing.Modify(cur.DN, changes)
}

func sameValueSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, v := range a {
		if !containsFold(b, v) {
			return false
		}
	}
	return true
}

// --- small helpers ---

func opOfEvent(k ltap.EventKind) lexpress.OpKind {
	switch k {
	case ltap.EventAdd:
		return lexpress.OpAdd
	case ltap.EventDelete:
		return lexpress.OpDelete
	default:
		return lexpress.OpModify
	}
}

func resultOf(err error) ldap.Result {
	if err == nil {
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	if re, ok := err.(*ldap.ResultError); ok {
		return re.Result
	}
	return ldap.Result{Code: directory.CodeOf(err), Message: err.Error()}
}

func recordAttributes(rec lexpress.Record) []ldap.Attribute {
	var out []ldap.Attribute
	for _, a := range rec.Attrs() {
		out = append(out, ldap.Attribute{Type: a, Values: rec.Get(a)})
	}
	return out
}

// applyChange mirrors LDAP modify semantics onto a lexpress record
// (tolerantly: this rebuilds an image, the authoritative check happens at
// the directory).
func applyChange(rec lexpress.Record, c ldap.Change) {
	switch c.Op {
	case ldap.ModReplace:
		rec.Set(c.Attribute.Type, c.Attribute.Values...)
	case ldap.ModAdd:
		vals := rec.Get(c.Attribute.Type)
		for _, v := range c.Attribute.Values {
			if !containsFold(vals, v) {
				vals = append(vals, v)
			}
		}
		rec.Set(c.Attribute.Type, vals...)
	case ldap.ModDelete:
		if len(c.Attribute.Values) == 0 {
			rec.Set(c.Attribute.Type)
			return
		}
		vals := rec.Get(c.Attribute.Type)
		for _, v := range c.Attribute.Values {
			vals = removeValue(vals, v)
		}
		rec.Set(c.Attribute.Type, vals...)
	}
}

func containsFold(vals []string, v string) bool {
	for _, x := range vals {
		if strings.EqualFold(x, v) {
			return true
		}
	}
	return false
}

func removeValue(vals []string, v string) []string {
	out := vals[:0:0]
	for _, x := range vals {
		if !strings.EqualFold(x, v) {
			out = append(out, x)
		}
	}
	return out
}

func sameValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hasValue(rec lexpress.Record, attr, value string) bool {
	return containsFold(rec.Get(attr), value)
}
