package directory

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/record"
)

// Error is a directory error carrying an LDAP result code.
type Error struct {
	Code ldap.ResultCode
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("directory: %s: %s", e.Code, e.Msg) }

// errf builds an *Error.
func errf(code ldap.ResultCode, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the LDAP result code from a directory error, defaulting to
// ResultOther.
func CodeOf(err error) ldap.ResultCode {
	if err == nil {
		return ldap.ResultSuccess
	}
	if de, ok := err.(*Error); ok {
		return de.Code
	}
	if c, ok := ldap.Code(err); ok {
		return c
	}
	return ldap.ResultOther
}

// Entry is a snapshot of a directory entry: its DN and attributes. The
// attribute values are copy-on-write: updates install a fresh *Attrs, so
// entries returned by the DIT share the tree's immutable attribute values
// instead of paying a deep copy per entry. Callers MUST NOT mutate a
// returned entry's Attrs — use Clone() first for a private mutable copy.
// An entry held across later updates keeps its point-in-time values.
type Entry struct {
	DN    dn.DN
	Attrs *Attrs
}

// Clone returns a deep copy of the entry.
func (e Entry) Clone() Entry {
	return Entry{DN: append(dn.DN(nil), e.DN...), Attrs: e.Attrs.Clone()}
}

// node fields are read and written only under the owning segment's lock.
// The *Attrs object a node points to (and the backing array of its dn) is
// immutable once installed: updates build a fresh value and swap the
// pointer, never mutate through it. Search relies on this to evaluate
// snapshots outside the lock.
type node struct {
	dn dn.DN
	// key caches dn.Normalize() — also this node's key in segment.entries.
	// DN normalization (lower-casing and re-joining every RDN) is too
	// expensive to recompute on the search path, where results are sorted
	// by it; it is maintained at Add/ModifyDN time instead.
	key   string
	attrs *Attrs
	// stamp is the origin (Lamport-seq, node-id) of the write that
	// installed attrs — the last-writer-wins coordinate for multi-master
	// replication (replication.go). Zero on entries restored from
	// pre-replication journals.
	stamp Stamp
	// children holds normalized child DNs; nil until the first child
	// arrives, because at million-entry scale most entries are leaves and
	// an empty map per leaf is measurable heap.
	children map[string]bool
}

func (n *node) addChild(key string) {
	if n.children == nil {
		n.children = make(map[string]bool, 1)
	}
	n.children[key] = true
}

// segment is one DN-hash partition of the DIT: its own entry map, its own
// equality indexes, its own journal file, and its own group-commit
// pipeline, all behind its own lock. Writes touching a single entry lock
// only the (entry, parent) segments; nothing a segment does blocks the
// others.
type segment struct {
	id      int
	mu      sync.RWMutex
	entries map[string]*node
	// indexes holds this segment's share of the equality indexes (see
	// index.go); nil when none are enabled.
	indexes attrIndex
	// tombstones remembers deleted keys and the stamps that deleted them
	// so a concurrent losing upsert arriving later cannot resurrect the
	// entry (replication.go); bounded by maxTombstones, nil until the
	// first delete.
	tombstones map[string]Stamp
	// journal, when attached, receives a write-ahead record of every
	// committed update routed to this segment through its group-commit
	// pipeline (see persist.go); commit is that pipeline.
	journal *Journal
	commit  *committer
}

// DefaultDITSegments is the segment count metacomm configures when
// Config.DITSegments is zero.
const DefaultDITSegments = 8

// DIT is the in-memory directory information tree. All operations are
// individually atomic under internal locks; there is deliberately no
// multi-operation transaction facility, matching the paper's substrate.
//
// Scale architecture (DESIGN.md §13): entries are partitioned by FNV-32a of
// the normalized DN — the same shard discipline as the UM and sync worker
// pools — into independently locked segments, each with its own journal and
// group-commit pipeline. A single global atomic commit sequence keeps the
// changelog totally ordered: a sequence number is only ever taken inside a
// segment's write critical section, so holding every segment lock
// guarantees the applied updates are exactly {1..seq} (the prefix
// property), which is what keeps SnapshotAndSubscribeSeq exact. The
// emitter (changelog.go) re-assembles per-segment commit completions into
// one gap-free global order before fan-out.
//
// Write path (DESIGN.md §11): under the segment lock an update validates,
// applies in memory, takes its commit seq, and stages its journal record;
// the caller then waits OUTSIDE the lock for the group committer's
// durability notification and the emitter's order notification. Journal
// I/O, record marshaling, and changelog fan-out all run off the critical
// section. Unjournaled DITs hand the record straight to the emitter.
type DIT struct {
	schema *Schema
	segs   []*segment
	// seq is the global commit sequence; incremented only while holding
	// the write lock of the segment (or segments) the update mutates.
	seq atomic.Uint64
	// count tracks the live entry total across segments.
	count atomic.Int64
	// em is the changelog sequencer: it restores the global total order
	// over records completed by per-segment pipelines.
	em *emitter
	// subs are changelog subscribers, under their own lock so the
	// emitter can fan out without any segment lock (see changelog.go).
	subMu sync.Mutex
	subs  []*changeSub
	// The cursor-addressable changelog tail (replication.go): a ring of
	// the most recently emitted records so a reconnecting peer can resume
	// from its cursor instead of full-resyncing. Guarded by subMu.
	// tailFirst/tailLast bound the covered cursor range: SubscribeFrom
	// serves any cursor in [tailFirst, seq].
	tailBuf   []UpdateRecord
	tailStart int
	tailLen   int
	tailCap   int
	tailFirst uint64
	tailLast  uint64

	// nodeID and clock are the replication identity and the Lamport stamp
	// clock (replication.go). nodeID is written once before serving.
	nodeID uint32
	clock  atomic.Uint64
	// indexed lists the lowered names of indexed attributes; written under
	// all segment locks, read under any one segment lock.
	indexed []string

	tornTails atomic.Uint64

	// replay captures the stats of the most recent journal attach
	// (records/bytes replayed, wall time, workers, per-segment times);
	// nil until a journal has been attached. See JournalStats.
	replay atomic.Pointer[replayStats]

	// journalBase remembers the attached journal set's path stem so
	// manifest refreshes (post-compaction, clean close) can rewrite
	// <base>.meta with current per-segment entry counts. Written once by
	// AttachJournalSet before any compactor can run; read under compactMu.
	journalBase string

	// compactMu serializes compactions (manual Compact, the background
	// compactor, and CloseJournal's shutdown barrier).
	compactMu sync.Mutex
	// compactWake is the committers' wake-up channel for the background
	// compactor, which AttachJournalSet starts and which runs until
	// CloseJournal, once no committer is left to send, closes the channel.
	// Written like journalBase; closed under compactMu.
	compactWake chan struct{}

	// Compaction counters (atomics; see CompactionStats).
	compactRuns    atomic.Uint64
	compactSpliced atomic.Uint64
	compactEntries atomic.Uint64
	compactLastNs  atomic.Int64
}

// New returns an empty single-segment DIT. schema may be nil to disable
// validation. Use NewSegmented for the partitioned form.
func New(schema *Schema) *DIT { return NewSegmented(schema, 1) }

// NewSegmented returns an empty DIT partitioned into n DN-hash segments
// (n <= 0 selects DefaultDITSegments).
func NewSegmented(schema *Schema, n int) *DIT {
	if n <= 0 {
		n = DefaultDITSegments
	}
	d := &DIT{schema: schema, segs: make([]*segment, n), tailCap: DefaultChangeTail}
	for i := range d.segs {
		d.segs[i] = &segment{id: i, entries: map[string]*node{}}
	}
	d.em = newEmitter(d)
	return d
}

// Schema returns the schema in force (nil when unvalidated).
func (d *DIT) Schema() *Schema { return d.schema }

// Seq returns the number of committed updates.
func (d *DIT) Seq() uint64 { return d.seq.Load() }

// Len returns the number of entries.
func (d *DIT) Len() int { return int(d.count.Load()) }

// Segments returns the segment count.
func (d *DIT) Segments() int { return len(d.segs) }

// fnv32a is FNV-1a over s — the same function (hash/fnv's New32a) the UM
// shards and sync workers key on, inlined to avoid a hasher allocation on
// every routed operation.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// segIndex routes a normalized DN key to its segment index.
func (d *DIT) segIndex(key string) int {
	if len(d.segs) == 1 {
		return 0
	}
	return int(fnv32a(key) % uint32(len(d.segs)))
}

// seg routes a normalized DN key to its segment.
func (d *DIT) seg(key string) *segment { return d.segs[d.segIndex(key)] }

// lockPair write-locks the segments of two keys in ascending id order (the
// global lock order; see also lockAll), coping with both keys landing in
// the same segment.
func lockPair(a, b *segment) {
	if a == b {
		a.mu.Lock()
		return
	}
	if a.id > b.id {
		a, b = b, a
	}
	a.mu.Lock()
	b.mu.Lock()
}

func unlockPair(a, b *segment) {
	if a == b {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	b.mu.Unlock()
}

// lockAll write-locks every segment in ascending id order. With all locks
// held the applied update set is exactly {1..seq} — no sequence number is
// ever assigned outside a segment write critical section.
func (d *DIT) lockAll() {
	for _, s := range d.segs {
		s.mu.Lock()
	}
}

func (d *DIT) unlockAll() {
	for _, s := range d.segs {
		s.mu.Unlock()
	}
}

func (d *DIT) rlockAll() {
	for _, s := range d.segs {
		s.mu.RLock()
	}
}

func (d *DIT) runlockAll() {
	for _, s := range d.segs {
		s.mu.RUnlock()
	}
}

// journaled reports whether journals are attached (all-or-none). Caller
// holds at least one segment lock.
func (d *DIT) journaled() bool { return d.segs[0].journal != nil }

// Add creates a new leaf entry. The parent must exist (except for
// depth-1 suffix entries). RDN attribute values are folded into the entry's
// attributes as LDAP requires.
func (d *DIT) Add(name dn.DN, attrs *Attrs) error {
	if name.IsRoot() {
		return errf(ldap.ResultInvalidDNSyntax, "cannot add root entry")
	}
	a := attrs.Clone()
	for _, ava := range name.RDN() {
		if !a.HasValue(ava.Attr, ava.Value) {
			a.Add(ava.Attr, ava.Value)
		}
	}
	if d.schema != nil {
		a = canonicalDisplay(a, d.schema)
	}
	if d.schema != nil {
		if err := d.schema.CheckEntry(a); err != nil {
			return err
		}
	}

	key := name.Normalize()
	parentKey := name.Parent().Normalize()
	sa, sp := d.seg(key), d.seg(parentKey)
	lockPair(sa, sp)
	t, err := d.addLocked(sa, sp, name, key, parentKey, a)
	unlockPair(sa, sp)
	if err != nil {
		return err
	}
	return t.Wait()
}

func (d *DIT) addLocked(sa, sp *segment, name dn.DN, key, parentKey string, a *Attrs) (commitTicket, error) {
	if _, exists := sa.entries[key]; exists {
		return commitTicket{}, errf(ldap.ResultEntryAlreadyExists, "entry %q already exists", name)
	}
	parent := name.Parent()
	if !parent.IsRoot() {
		if _, ok := sp.entries[parentKey]; !ok {
			return commitTicket{}, errf(ldap.ResultNoSuchObject, "parent of %q does not exist", name)
		}
	}
	if err := sa.commitReady(); err != nil {
		return commitTicket{}, err
	}
	if p, ok := sp.entries[parentKey]; ok {
		p.addChild(key)
	}
	st := d.stampLocked()
	sa.entries[key] = &node{dn: name, key: key, attrs: a, stamp: st}
	sa.indexEntry(key, a)
	delete(sa.tombstones, key)
	d.count.Add(1)
	seq := d.seq.Add(1)
	rec := UpdateRecord{Seq: seq, Op: "add", DN: name.String(), image: a,
		OriginSeq: st.Seq, OriginNode: st.Node}
	return d.commitLocked(sa, rec), nil
}

// Delete removes a leaf entry.
func (d *DIT) Delete(name dn.DN) error {
	key := name.Normalize()
	parentKey := name.Parent().Normalize()
	sa, sp := d.seg(key), d.seg(parentKey)
	lockPair(sa, sp)
	t, err := d.deleteLocked(sa, sp, name, key, parentKey)
	unlockPair(sa, sp)
	if err != nil {
		return err
	}
	return t.Wait()
}

func (d *DIT) deleteLocked(sa, sp *segment, name dn.DN, key, parentKey string) (commitTicket, error) {
	n, ok := sa.entries[key]
	if !ok {
		return commitTicket{}, errf(ldap.ResultNoSuchObject, "no entry %q", name)
	}
	if len(n.children) > 0 {
		return commitTicket{}, errf(ldap.ResultNotAllowedOnNonLeaf, "entry %q has children", name)
	}
	if err := sa.commitReady(); err != nil {
		return commitTicket{}, err
	}
	delete(sa.entries, key)
	sa.unindexEntry(key, n.attrs)
	if p, ok := sp.entries[parentKey]; ok {
		delete(p.children, key)
	}
	st := d.stampLocked()
	sa.setTombstone(key, st)
	d.count.Add(-1)
	seq := d.seq.Add(1)
	rec := UpdateRecord{Seq: seq, Op: "delete", DN: name.String(),
		OriginSeq: st.Seq, OriginNode: st.Node}
	return d.commitLocked(sa, rec), nil
}

// Modify applies a sequence of changes to one entry atomically: either all
// changes apply and the result passes schema validation, or none do.
// Attribute values that appear in the entry's RDN may not be removed
// (notAllowedOnRDN) — that requires ModifyDN, which is precisely the
// non-atomicity the paper wrestles with.
func (d *DIT) Modify(name dn.DN, changes []ldap.Change) error {
	key := name.Normalize()
	s := d.seg(key)
	s.mu.Lock()
	t, err := d.modifyLocked(s, name, key, changes)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return t.Wait()
}

func (d *DIT) modifyLocked(s *segment, name dn.DN, key string, changes []ldap.Change) (commitTicket, error) {
	n, ok := s.entries[key]
	if !ok {
		return commitTicket{}, errf(ldap.ResultNoSuchObject, "no entry %q", name)
	}
	work, err := d.applyChanges(name, n.attrs, changes)
	if err != nil {
		return commitTicket{}, err
	}
	if err := s.commitReady(); err != nil {
		return commitTicket{}, err
	}
	s.reindexEntry(key, n.attrs, work)
	n.attrs = work
	st := d.stampLocked()
	n.stamp = st
	seq := d.seq.Add(1)
	rec := modifyRecord(name, changes)
	rec.Seq = seq
	rec.OriginSeq, rec.OriginNode = st.Seq, st.Node
	rec.image = work
	return d.commitLocked(s, rec), nil
}

// applyChanges builds the post-modify attribute state from cur without
// mutating it, enforcing LDAP change semantics, RDN protection, and schema
// validation. Shared by the live modify path and relaxed journal replay.
func (d *DIT) applyChanges(name dn.DN, cur *Attrs, changes []ldap.Change) (*Attrs, error) {
	work := cur.Clone()
	for _, c := range changes {
		attr := c.Attribute.Type
		if d.schema != nil {
			attr = d.schema.DisplayName(attr)
		}
		switch c.Op {
		case ldap.ModAdd:
			if len(c.Attribute.Values) == 0 {
				return nil, errf(ldap.ResultProtocolError, "add of %q without values", attr)
			}
			for _, v := range c.Attribute.Values {
				if !work.Add(attr, v) {
					return nil, errf(ldap.ResultAttributeOrValueExists, "%q already has value %q", attr, v)
				}
			}
		case ldap.ModDelete:
			if d.rdnProtects(name, attr, c.Attribute.Values) {
				return nil, errf(ldap.ResultNotAllowedOnRDN, "attribute %q is part of the RDN", attr)
			}
			if len(c.Attribute.Values) == 0 {
				if !work.Delete(attr) {
					return nil, errf(ldap.ResultNoSuchAttribute, "no attribute %q", attr)
				}
			} else {
				for _, v := range c.Attribute.Values {
					if !work.DeleteValue(attr, v) {
						return nil, errf(ldap.ResultNoSuchAttribute, "no value %q for %q", v, attr)
					}
				}
			}
		case ldap.ModReplace:
			if d.rdnProtects(name, attr, c.Attribute.Values) {
				return nil, errf(ldap.ResultNotAllowedOnRDN, "attribute %q is part of the RDN", attr)
			}
			work.Put(attr, c.Attribute.Values...)
		default:
			return nil, errf(ldap.ResultProtocolError, "unknown modify op %d", c.Op)
		}
	}
	if d.schema != nil {
		if err := d.schema.CheckEntry(work); err != nil {
			return nil, err
		}
	}
	return work, nil
}

// modifyRecord converts a change list into its journal form.
func modifyRecord(name dn.DN, changes []ldap.Change) UpdateRecord {
	rec := UpdateRecord{Op: "modify", DN: name.String()}
	for _, c := range changes {
		rec.Changes = append(rec.Changes, UpdateChange{
			Op: c.Op.String(), Attr: c.Attribute.Type, Values: c.Attribute.Values})
	}
	return rec
}

// canonicalDisplay rewrites attribute names to the schema's spelling.
func canonicalDisplay(a *Attrs, s *Schema) *Attrs {
	out := NewAttrs()
	for _, n := range a.Names() {
		out.Put(s.DisplayName(n), a.Get(n)...)
	}
	return out
}

// rdnProtects reports whether removing/replacing attr with newValues would
// strip an RDN value from the entry.
func (d *DIT) rdnProtects(name dn.DN, attr string, newValues []string) bool {
	for _, ava := range name.RDN() {
		if !strings.EqualFold(ava.Attr, attr) {
			continue
		}
		for _, v := range newValues {
			if strings.EqualFold(v, ava.Value) {
				return false // value retained
			}
		}
		return true
	}
	return false
}

// ModifyDN renames an entry (and its subtree) to a new leaf RDN. The old
// RDN values are removed from the attributes when deleteOldRDN is set; the
// new RDN values are added.
//
// A rename re-routes every moved entry to the segment of its new key, so it
// is the one update that locks every segment — the cross-partition
// operation, rare by construction in the directory workloads MetaComm
// serves. On a journaled DIT it is journaled as per-entry delete+entry
// records in the affected segments' own files (segment journals replay
// independently and never contain cross-segment operations), while the
// changelog still carries the single logical modifydn record.
func (d *DIT) ModifyDN(name dn.DN, newRDN dn.RDN, deleteOldRDN bool) error {
	d.lockAll()
	t, err := d.modifyDNLocked(name, newRDN, deleteOldRDN)
	d.unlockAll()
	if err != nil {
		return err
	}
	return t.Wait()
}

func (d *DIT) modifyDNLocked(name dn.DN, newRDN dn.RDN, deleteOldRDN bool) (commitTicket, error) {
	key := name.Normalize()
	n, ok := d.seg(key).entries[key]
	if !ok {
		return commitTicket{}, errf(ldap.ResultNoSuchObject, "no entry %q", name)
	}
	newDN := name.WithRDN(newRDN)
	newKey := newDN.Normalize()
	if newKey == key {
		return commitTicket{}, nil
	}
	if _, exists := d.seg(newKey).entries[newKey]; exists {
		return commitTicket{}, errf(ldap.ResultEntryAlreadyExists, "entry %q already exists", newDN)
	}
	work := n.attrs.Clone()
	if deleteOldRDN {
		for _, ava := range name.RDN() {
			work.DeleteValue(ava.Attr, ava.Value)
		}
	}
	for _, ava := range newRDN {
		if !work.HasValue(ava.Attr, ava.Value) {
			work.Add(ava.Attr, ava.Value)
		}
	}
	if d.schema != nil {
		if err := d.schema.CheckEntry(work); err != nil {
			return commitTicket{}, err
		}
	}

	// Collect the subtree and compute every node's rebased DN up front, so
	// commit readiness of every involved segment is checked before anything
	// mutates.
	var subtree []*node
	var collect func(*node)
	collect = func(nd *node) {
		subtree = append(subtree, nd)
		for ck := range nd.children {
			collect(d.seg(ck).entries[ck])
		}
	}
	collect(n)

	depth := name.Depth()
	moves := make([]renameMove, len(subtree))
	for i, nd := range subtree {
		suffixStart := nd.dn.Depth() - depth
		rebased := make(dn.DN, 0, nd.dn.Depth())
		rebased = append(rebased, nd.dn[:suffixStart]...)
		rebased = append(rebased, newDN...)
		moves[i] = renameMove{nd: nd, oldKey: nd.key, oldDN: nd.dn.String(), newDN: rebased}
	}
	journaled := d.journaled()
	if journaled {
		seen := make(map[*segment]bool)
		for i := range moves {
			for _, s := range []*segment{d.seg(moves[i].oldKey), d.seg(moves[i].newDN.Normalize())} {
				if !seen[s] {
					seen[s] = true
					if err := s.commitReady(); err != nil {
						return commitTicket{}, err
					}
				}
			}
		}
	}

	for _, nd := range subtree {
		d.seg(nd.key).unindexEntry(nd.key, nd.attrs)
	}
	if p, ok := d.seg(name.Parent().Normalize()).entries[name.Parent().Normalize()]; ok {
		delete(p.children, key)
		p.addChild(newKey)
	}
	st := d.stampLocked()
	for _, nd := range subtree {
		delete(d.seg(nd.key).entries, nd.key)
		// The rename is a delete at the old key under the LWW rule: leave
		// a tombstone so a concurrent remote upsert of the old DN with a
		// smaller stamp cannot resurrect it.
		d.seg(nd.key).setTombstone(nd.key, st)
	}
	for i := range moves {
		nd := moves[i].nd
		nd.dn = moves[i].newDN
		nd.children = nil
		nd.stamp = st
	}
	n.attrs = work
	for _, nd := range subtree {
		k := nd.dn.Normalize()
		nd.key = k
		s := d.seg(k)
		s.entries[k] = nd
		s.indexEntry(k, nd.attrs)
		delete(s.tombstones, k)
		if pk := nd.dn.Parent().Normalize(); pk != "" {
			if p, ok := d.seg(pk).entries[pk]; ok {
				p.addChild(k)
			}
		}
	}
	seq := d.seq.Add(1)
	logical := UpdateRecord{Seq: seq, Op: "modifydn", DN: name.String(),
		NewRDN: newRDN.String(), DeleteOldRDN: deleteOldRDN,
		OriginSeq: st.Seq, OriginNode: st.Node, image: work}
	if journaled {
		if err := d.journalRenameParts(seq, st, moves); err != nil {
			d.em.skip(seq)
			return commitTicket{}, errf(ldap.ResultUnavailable, "journal write failed: %v", err)
		}
	}
	d.em.ready(logical)
	return commitTicket{em: d.em, seq: seq}, nil
}

// renameMove is one entry's half of a ModifyDN: the node, where it came
// from, and where it lands.
type renameMove struct {
	nd     *node
	oldKey string
	oldDN  string
	newDN  dn.DN
}

// Get returns the entry at name. The returned attributes are a shared
// immutable snapshot (see Entry).
func (d *DIT) Get(name dn.DN) (Entry, error) {
	key := name.Normalize()
	s := d.seg(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.entries[key]
	if !ok {
		return Entry{}, errf(ldap.ResultNoSuchObject, "no entry %q", name)
	}
	return Entry{DN: n.dn, Attrs: n.attrs}, nil
}

// Compare tests an attribute/value assertion against an entry.
func (d *DIT) Compare(name dn.DN, attr, value string) (bool, error) {
	key := name.Normalize()
	s := d.seg(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.entries[key]
	if !ok {
		return false, errf(ldap.ResultNoSuchObject, "no entry %q", name)
	}
	return n.attrs.HasValue(attr, value), nil
}

// Search evaluates filter over the entries selected by base and scope and
// returns matching entries sorted by DN depth then name (parents before
// children), truncated at sizeLimit when positive. Truncated result sets
// are sorted among themselves but are not the depth-first prefix of the
// full answer — LDAP promises no ordering, and stopping at the limit is
// what keeps bounded searches cheap on large trees.
//
// Candidate collection visits segments one at a time under their read
// locks; filter verification and sorting run on that snapshot outside any
// lock. Attribute values are immutable once installed (every update builds
// a fresh *Attrs), so each entry in the snapshot is internally consistent
// with no coordination and the returned entries share it without cloning.
// Cross-entry, a whole-subtree search on a segmented DIT observes each
// segment at a (slightly) different instant — the usual read-committed
// answer an LDAP search provides, not a point-in-time snapshot (that is
// SnapshotAndSubscribeSeq's job).
func (d *DIT) Search(base dn.DN, scope ldap.Scope, filter *ldap.Filter, sizeLimit int) ([]Entry, error) {
	if filter == nil {
		// An AND of zero terms is vacuously true: match everything.
		filter = &ldap.Filter{Kind: ldap.FilterAnd}
	}
	cands, err := d.collectCandidates(base, scope, filter)
	if err != nil {
		return nil, err
	}
	var out []Entry
	var keys []string
	for _, c := range cands {
		if !filter.Matches(c.attrs.Get) {
			continue
		}
		out = append(out, Entry{DN: c.dn, Attrs: c.attrs})
		keys = append(keys, c.key)
		if sizeLimit > 0 && len(out) > sizeLimit {
			// One over the limit proves the limit is exceeded; stop
			// materializing instead of verifying the whole candidate set.
			break
		}
	}
	sortEntries(out, keys)
	if sizeLimit > 0 && len(out) > sizeLimit {
		return out[:sizeLimit], errf(ldap.ResultSizeLimitExceeded, "size limit %d exceeded", sizeLimit)
	}
	return out, nil
}

// searchCand is one node's read snapshot: the DN (plus its cached
// normalized form, for sorting without re-normalizing) and the immutable
// attribute value current at collection time.
type searchCand struct {
	dn    dn.DN
	key   string
	attrs *Attrs
}

// collectCandidates gathers the scope-selected (or index-selected) nodes
// under per-segment read locks. It copies only a DN slice header and an
// *Attrs pointer per node — the cheap snapshot Search evaluates lock-free.
func (d *DIT) collectCandidates(base dn.DN, scope ldap.Scope, filter *ldap.Filter) ([]searchCand, error) {
	baseKey := base.Normalize()
	if !base.IsRoot() {
		sb := d.seg(baseKey)
		sb.mu.RLock()
		_, ok := sb.entries[baseKey]
		sb.mu.RUnlock()
		if !ok {
			return nil, errf(ldap.ResultNoSuchObject, "search base %q does not exist", base)
		}
	}
	var cands []searchCand
	add := func(n *node) { cands = append(cands, searchCand{dn: n.dn, key: n.key, attrs: n.attrs}) }
	switch scope {
	case ldap.ScopeBaseObject:
		sb := d.seg(baseKey)
		sb.mu.RLock()
		if n, ok := sb.entries[baseKey]; ok {
			add(n)
		}
		sb.mu.RUnlock()
	case ldap.ScopeSingleLevel:
		if base.IsRoot() {
			for _, s := range d.segs {
				s.mu.RLock()
				for _, n := range s.entries {
					if n.dn.Depth() == 1 {
						add(n)
					}
				}
				s.mu.RUnlock()
			}
			break
		}
		// Copy the child key set under the parent's lock, then fetch the
		// children grouped by segment. A child deleted between the copy and
		// the fetch simply isn't returned.
		sb := d.seg(baseKey)
		sb.mu.RLock()
		var childKeys []string
		if n, ok := sb.entries[baseKey]; ok {
			childKeys = make([]string, 0, len(n.children))
			for ck := range n.children {
				childKeys = append(childKeys, ck)
			}
		}
		sb.mu.RUnlock()
		bySeg := make([][]string, len(d.segs))
		for _, ck := range childKeys {
			i := d.segIndex(ck)
			bySeg[i] = append(bySeg[i], ck)
		}
		for i, keys := range bySeg {
			if len(keys) == 0 {
				continue
			}
			s := d.segs[i]
			s.mu.RLock()
			for _, k := range keys {
				if n, ok := s.entries[k]; ok {
					add(n)
				}
			}
			s.mu.RUnlock()
		}
	case ldap.ScopeWholeSubtree:
		for _, s := range d.segs {
			s.mu.RLock()
			if keys, ok := s.indexCandidates(filter); ok {
				// Indexed fast path: scope-check the candidate set only; the
				// full filter is still verified on every returned entry.
				for key := range keys {
					n := s.entries[key]
					if n == nil {
						continue
					}
					if base.IsRoot() || key == baseKey || n.dn.IsDescendantOf(base) {
						add(n)
					}
				}
			} else {
				for _, n := range s.entries {
					if base.IsRoot() || n.key == baseKey || n.dn.IsDescendantOf(base) {
						add(n)
					}
				}
			}
			s.mu.RUnlock()
		}
	default:
		return nil, errf(ldap.ResultProtocolError, "unknown scope %d", scope)
	}
	return cands, nil
}

// All returns every entry, parents before children. Prefer Range for bulk
// passes that do not need the sorted materialized slice.
func (d *DIT) All() []Entry {
	out, _ := d.Search(dn.DN{}, ldap.ScopeWholeSubtree, nil, 0)
	return out
}

// Range streams every entry to visit, one segment at a time, stopping early
// when visit returns false. Unlike All it never materializes the whole
// directory: the transient copy is bounded by the largest segment, and
// entries share the tree's immutable attribute values. Order is
// unspecified. Each segment is visited at its own instant (read-committed
// across segments); use SnapshotRangeAndSubscribeSeq for an exact cut.
func (d *DIT) Range(visit func(Entry) bool) {
	var buf []Entry
	for _, s := range d.segs {
		buf = buf[:0]
		s.mu.RLock()
		for _, n := range s.entries {
			buf = append(buf, Entry{DN: n.dn, Attrs: n.attrs})
		}
		s.mu.RUnlock()
		for _, e := range buf {
			if !visit(e) {
				return
			}
		}
	}
}

// DITStats is a point-in-time footprint summary.
type DITStats struct {
	Segments       int
	Entries        int
	SegmentEntries []int // live entries per segment
	InternedNames  int   // global attribute-name intern table size
}

// Stats snapshots entry distribution across segments.
func (d *DIT) Stats() DITStats {
	st := DITStats{Segments: len(d.segs), SegmentEntries: make([]int, len(d.segs)), InternedNames: record.InternedNames()}
	for i, s := range d.segs {
		s.mu.RLock()
		st.SegmentEntries[i] = len(s.entries)
		s.mu.RUnlock()
		st.Entries += st.SegmentEntries[i]
	}
	return st
}
