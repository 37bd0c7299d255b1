package directory

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/record"
)

// Multi-master replication plumbing (DESIGN.md §15). Every committed update
// is stamped with an origin (Lamport-seq, node-id) pair; peers exchange
// full post-images plus stamps and resolve conflicts per entry by
// last-writer-wins on the stamp order, so any apply order converges to the
// same tree. Deletes leave tombstones so a concurrent losing upsert cannot
// resurrect an entry, and a joining node seeds itself from an exact-cut
// snapshot (entries with stamps + tombstones + changelog cursor) without
// quiescing the donor.
//
// The origin stamp is deliberately NOT the global commit seq: commit seqs
// must stay contiguous (the emitter's reorder buffer stalls on gaps, and
// remote applies take local commit seqs of their own), so the stamp comes
// from a separate Lamport clock that only ratchets forward — raised past
// every remote stamp observed, which keeps "my next local write wins over
// everything I have already seen" true on every node.

// Stamp identifies the originating write of an entry's current state:
// a Lamport sequence from the origin node's clock plus the origin node id
// as the total-order tiebreak.
type Stamp struct {
	Seq  uint64 `json:"seq"`
	Node uint32 `json:"node"`
}

// Less orders stamps: by Lamport seq, node id breaking ties. The relation
// is total over distinct (Seq, Node) pairs, which is what makes LWW
// deterministic regardless of apply order.
func (s Stamp) Less(t Stamp) bool {
	if s.Seq != t.Seq {
		return s.Seq < t.Seq
	}
	return s.Node < t.Node
}

// IsZero reports an absent stamp (pre-replication records).
func (s Stamp) IsZero() bool { return s.Seq == 0 && s.Node == 0 }

// SetNodeID sets this node's replication identity. Call once, before any
// writes; node ids must be distinct across a cluster (the LWW tiebreak).
func (d *DIT) SetNodeID(id uint32) { d.nodeID = id }

// NodeID returns the replication identity (0 = unconfigured single node).
func (d *DIT) NodeID() uint32 { return d.nodeID }

// bumpClock raises the Lamport clock to at least seq (the receive rule).
func (d *DIT) bumpClock(seq uint64) {
	for {
		cur := d.clock.Load()
		if cur >= seq {
			return
		}
		if d.clock.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// stampLocked mints the origin stamp for a local write. Called inside the
// segment write critical section so the stamp order of two writes to the
// same entry matches their apply order.
func (d *DIT) stampLocked() Stamp {
	return Stamp{Seq: d.clock.Add(1), Node: d.nodeID}
}

// Origin returns the record's origin stamp (zero for pre-replication
// records).
func (r *UpdateRecord) Origin() Stamp {
	return Stamp{Seq: r.OriginSeq, Node: r.OriginNode}
}

// PostImage returns the full attribute state the update left behind (nil
// for deletes), shared and not to be mutated. Replication ships post-images,
// not deltas: images converge byte-identically under reordering where
// deltas cannot.
func (r *UpdateRecord) PostImage() *Attrs { return r.image }

// maxTombstones bounds a segment's tombstone map. When it fills, the
// oldest-stamped half is dropped — the same age-based GC production
// directories apply. A delete older than everything in a full tombstone
// map is by construction far in the past; re-delivering its losing upsert
// that much later would require a peer partitioned across thousands of
// intervening deletes.
const maxTombstones = 8192

// setTombstone records that key was deleted by st, pruning when full.
// Caller holds the segment lock.
func (s *segment) setTombstone(key string, st Stamp) {
	if s.tombstones == nil {
		s.tombstones = make(map[string]Stamp, 8)
	}
	s.tombstones[key] = st
	if len(s.tombstones) <= maxTombstones {
		return
	}
	// Prune the oldest half by stamp order.
	stamps := make([]Stamp, 0, len(s.tombstones))
	for _, ts := range s.tombstones {
		stamps = append(stamps, ts)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i].Less(stamps[j]) })
	cut := stamps[len(stamps)/2]
	for k, ts := range s.tombstones {
		if ts.Less(cut) {
			delete(s.tombstones, k)
		}
	}
}

// RemoteApplied describes the local effect of one remote update: whether
// it won LWW (losing applies are silent no-ops), and the before/after
// images for device propagation (Old nil = created, New nil = deleted).
// Err is this record's structural conflict, if any (ApplyRemote returns it
// as its error instead).
type RemoteApplied struct {
	Applied bool
	DN      dn.DN
	Old     *Attrs
	New     *Attrs
	Err     error
}

// ApplyRemote applies one remotely-originated update — a full post-image
// upsert or a delete, carrying its origin stamp. It is the one-record case
// of ApplyRemoteBatch, which documents the rules; a structural conflict is
// returned as the error. The image MUST NOT be mutated afterwards.
func (d *DIT) ApplyRemote(name dn.DN, image *Attrs, st Stamp, deleted bool) (RemoteApplied, error) {
	recs := [1]record.Record{{Op: "delete", DN: name.String(), NormKey: name.Normalize(),
		OriginSeq: st.Seq, OriginNode: st.Node}}
	if !deleted {
		recs[0].Op, recs[0].Fields = "entry", image.fields
	}
	out := [1]RemoteApplied{{DN: name}}
	err := d.applyRemote(recs[:], out[:])
	if err == nil {
		err = out[0].Err
	}
	if err != nil {
		return RemoteApplied{}, err
	}
	return out[0], nil
}

// ApplyRemoteBatch applies a run of replicated records — "entry" (or "add")
// full post-image upserts and "delete"s carrying their origin stamps, as
// Replicated and ReplSnapshot produce them (a missing NormKey is filled in)
// — in the given order, each with per-entry last-writer-wins resolution:
//
//   - a record applies iff its stamp is strictly greater than the entry's
//     current stamp (or its tombstone's, when absent); losing or duplicate
//     deliveries report Applied=false and mutate nothing, which is what
//     makes flood-style exchange terminate and re-delivery after reconnect
//     idempotent.
//   - a winning delete leaves a tombstone so a slower concurrent upsert
//     with a smaller stamp cannot resurrect the entry; a delete of an
//     absent entry records (and journals) the tombstone alone, so it
//     survives restarts and flows to our own peers.
//   - what the flat LWW rule cannot express — a bad DN, an unstamped or
//     non-replicable record, an upsert whose parent does not exist here, a
//     delete of an entry that has children here — is reported in out[i].Err
//     for the caller to count, and does not stop the batch; it cannot arise
//     in the flat (suffix + leaves) trees the telecom workloads build.
//
// Winners take local commit seqs, journal, and emit on the changelog like
// local writes (with the ORIGIN stamp preserved), so remote updates are
// durable, visible to gateway caches, and forwarded to this node's own
// subscribers. Images are installed as given — no schema re-validation (the
// origin already validated; divergent local rejection would break
// convergence).
//
// The batch is ONE commit: every segment it touches is locked once, all
// winners are staged into their segments' pipelines together, and the call
// waits for durability once, after the last record. A durable node
// therefore group-commits a whole batch per fsync instead of fsyncing per
// record. A returned error is a failed local journal: nothing of the batch
// may be taken as applied.
func (d *DIT) ApplyRemoteBatch(recs []record.Record) ([]RemoteApplied, error) {
	out := make([]RemoteApplied, len(recs))
	for i := range recs {
		var err error
		if out[i].DN, err = dn.Parse(recs[i].DN); err != nil {
			out[i].Err = errf(ldap.ResultInvalidDNSyntax, "remote update for %q: %v", recs[i].DN, err)
		}
	}
	return out, d.applyRemote(recs, out)
}

// applyRemote is ApplyRemoteBatch with the DNs parsed: out[i].DN is recs[i]'s
// (or out[i].Err says why it has none), and receives its outcome.
func (d *DIT) applyRemote(recs []record.Record, out []RemoteApplied) error {
	// Route first: which segments the batch touches (each record's own and
	// its parent's), and the Lamport receive rule — local writes after this
	// point outrank every stamp in the batch.
	involved := make([]bool, len(d.segs))
	var maxStamp uint64
	for i := range recs {
		r, name := &recs[i], out[i].DN
		switch {
		case out[i].Err != nil:
		case r.Op != "entry" && r.Op != "add" && r.Op != "delete":
			out[i].Err = errf(ldap.ResultProtocolError, "%s record for %q is not replicable", r.Op, r.DN)
		case name.IsRoot():
			out[i].Err = errf(ldap.ResultInvalidDNSyntax, "remote update for the root entry")
		case r.OriginSeq == 0 && r.OriginNode == 0:
			out[i].Err = errf(ldap.ResultProtocolError, "remote update for %q carries no origin stamp", name)
		}
		if out[i].Err != nil {
			continue
		}
		if r.NormKey == "" {
			r.NormKey = name.Normalize()
		}
		involved[d.segIndex(r.NormKey)] = true
		involved[d.segIndex(parentNormKey(r.NormKey))] = true
		if r.OriginSeq > maxStamp {
			maxStamp = r.OriginSeq
		}
	}
	d.bumpClock(maxStamp)

	staged, lastSeq, err := d.resolveRemote(recs, involved, out)
	if err != nil {
		return err
	}

	// One durability wait for the whole batch: each touched pipeline's last
	// record, then the emitter's global order.
	for i, run := range staged {
		if len(run) == 0 {
			continue
		}
		if err := (commitTicket{c: d.segs[i].commit, seq: run[len(run)-1].Seq}).Wait(); err != nil {
			return err
		}
	}
	if lastSeq != 0 {
		d.em.waitEmitted(lastSeq)
	}
	return nil
}

// resolveRemote is ApplyRemoteBatch's critical section: one lock acquisition
// per touched segment, in the global (ascending) order; with them held the
// records resolve in stream order — parents precede children and a rename's
// delete precedes its upsert exactly as the publisher sent them — every
// winner takes its local seq (the last one is returned), and each pipeline
// is handed its winners as one run before the locks drop: staged[i] is what
// segment i's was handed. An unjournaled DIT hands them to the emitter.
func (d *DIT) resolveRemote(recs []record.Record, involved []bool,
	out []RemoteApplied) (staged [][]UpdateRecord, lastSeq uint64, err error) {
	for i, s := range d.segs {
		if involved[i] {
			s.mu.Lock()
			defer s.mu.Unlock()
		}
	}
	for i, s := range d.segs {
		if involved[i] {
			if err := s.commitReady(); err != nil {
				return nil, 0, err
			}
		}
	}
	if d.journaled() {
		staged = make([][]UpdateRecord, len(d.segs))
	}
	for i := range recs {
		if out[i].Err != nil {
			continue
		}
		r, name, key := &recs[i], out[i].DN, recs[i].NormKey
		st := Stamp{Seq: r.OriginSeq, Node: r.OriginNode}
		parentKey := parentNormKey(key)
		sa, sp := d.seg(key), d.seg(parentKey)
		n, exists := sa.entries[key]
		if exists && !n.stamp.Less(st) {
			continue
		}
		if ts, has := sa.tombstones[key]; !exists && has && !ts.Less(st) {
			continue
		}
		rec := UpdateRecord{Op: "delete", DN: r.DN, OriginSeq: st.Seq, OriginNode: st.Node}
		res := RemoteApplied{Applied: true, DN: name}
		if exists {
			res.Old = n.attrs
		}
		if r.Op == "delete" {
			if exists {
				if len(n.children) > 0 {
					out[i].Err = errf(ldap.ResultNotAllowedOnNonLeaf, "remote delete of %q: entry has children here", name)
					continue
				}
				delete(sa.entries, key)
				sa.unindexEntry(key, n.attrs)
				if p, ok := sp.entries[parentKey]; ok {
					delete(p.children, key)
				}
				d.count.Add(-1)
			}
			sa.setTombstone(key, st)
		} else {
			image := &Attrs{fields: r.Fields}
			if exists {
				sa.reindexEntry(key, n.attrs, image)
				n.attrs, n.dn, n.stamp = image, name, st
			} else {
				p, ok := sp.entries[parentKey]
				if !ok && parentKey != "" {
					out[i].Err = errf(ldap.ResultNoSuchObject, "remote upsert of %q: parent does not exist here", name)
					continue
				}
				if ok {
					p.addChild(key)
				}
				sa.entries[key] = &node{dn: name, key: key, attrs: image, stamp: st}
				sa.indexEntry(key, image)
				delete(sa.tombstones, key)
				d.count.Add(1)
			}
			res.New = image
			rec.Op, rec.image, rec.normKey = "entry", image, key
		}
		lastSeq = d.seq.Add(1)
		rec.Seq = lastSeq
		if staged == nil {
			d.em.ready(rec)
		} else {
			staged[sa.id] = append(staged[sa.id], rec)
		}
		out[i] = res
	}
	for i, run := range staged {
		if len(run) > 0 {
			d.segs[i].commit.stage(run...)
		}
	}
	return staged, lastSeq, nil
}

// DefaultChangeTail is the cursor-addressable changelog tail's capacity
// when SetChangeTail has not been called: how many recent records a
// reconnecting peer may resume across without a snapshot fallback.
const DefaultChangeTail = 8192

// SetChangeTail resizes the changelog tail ring (0 disables it; every
// resume then falls back to a snapshot). Existing tail contents are
// dropped, so resume coverage restarts at the current seq.
func (d *DIT) SetChangeTail(capacity int) {
	d.subMu.Lock()
	defer d.subMu.Unlock()
	d.tailCap = capacity
	d.tailBuf = nil
	d.tailStart, d.tailLen = 0, 0
	d.tailFirst = d.tailLast
}

// tailAppendLocked records one emitted record in the tail ring. Caller
// holds subMu (emission order == tail order).
func (d *DIT) tailAppendLocked(rec UpdateRecord) {
	if d.tailCap <= 0 {
		return
	}
	if d.tailBuf == nil {
		d.tailBuf = make([]UpdateRecord, d.tailCap)
	}
	if d.tailLen == d.tailCap {
		d.tailFirst = d.tailBuf[d.tailStart].Seq
		d.tailStart = (d.tailStart + 1) % d.tailCap
		d.tailLen--
	}
	d.tailBuf[(d.tailStart+d.tailLen)%d.tailCap] = rec
	d.tailLen++
	d.tailLast = rec.Seq
}

// resetTailTo clears the tail and restarts its coverage at seq — called
// when replayed history fast-forwards the changelog (journal attach): the
// tail is in-memory, so nothing before seq can be resumed from.
func (d *DIT) resetTailTo(seq uint64) {
	d.subMu.Lock()
	d.tailStart, d.tailLen = 0, 0
	d.tailFirst, d.tailLast = seq, seq
	d.subMu.Unlock()
}

// SubscribeFrom registers a changelog subscription resuming after cursor
// `after`: the backlog slice holds the already-committed records with
// Seq > after still covered by the tail ring, and the channel delivers
// everything later, exactly once, in commit order. ok=false means the
// tail no longer covers the cursor (evicted, or from a foreign history)
// and the caller must fall back to a snapshot. The overflow/cancel
// contract matches SnapshotAndSubscribe.
func (d *DIT) SubscribeFrom(after uint64, buffer int) (backlog []UpdateRecord, changes <-chan UpdateRecord, cancel func(), ok bool) {
	if buffer <= 0 {
		buffer = 1024
	}
	d.subMu.Lock()
	if d.tailCap <= 0 || after < d.tailFirst || after > d.seq.Load() {
		d.subMu.Unlock()
		return nil, nil, nil, false
	}
	for i := 0; i < d.tailLen; i++ {
		rec := d.tailBuf[(d.tailStart+i)%d.tailCap]
		if rec.Seq > after {
			backlog = append(backlog, rec)
		}
	}
	sub := &changeSub{ch: make(chan UpdateRecord, buffer), startAfter: after}
	d.subs = append(d.subs, sub)
	d.subMu.Unlock()
	return backlog, sub.ch, d.cancelFunc(sub), true
}

// snapEnt is one header captured under a segment lock, which replication
// snapshots and compaction both stream: an entry's DN, cached normalized
// key, immutable attribute value and the stamp that installed it — or, with
// attrs nil, a tombstone: the deleted key and the deleting stamp.
type snapEnt struct {
	dn    dn.DN
	key   string
	attrs *Attrs
	stamp Stamp
}

// record fills rec with e as every writer of the codec emits it: an "entry"
// record (DN, normalized key, attributes straight out of the COW *Attrs —
// shared, not copied — and origin stamp), or a tombstone's stamped delete.
func (e *snapEnt) record(rec *record.Record) {
	*rec = record.Record{Op: "delete", DN: e.key, OriginSeq: e.stamp.Seq, OriginNode: e.stamp.Node}
	if e.attrs != nil {
		rec.Op, rec.DN, rec.NormKey, rec.Fields = "entry", e.dn.String(), e.key, e.attrs.fields
	}
}

// ReplSnapshot is the exact cut a joining peer seeds from: every entry with
// its stamp, every tombstone, and the commit seq the cut reflects. Only
// headers are held — one slice per segment, released as Each streams it.
type ReplSnapshot struct {
	// Seq is the commit seq the cut reflects.
	Seq uint64

	node uint32
	// runs[0] holds the entries with children, parents first; then one run
	// of leaves per segment; the last run holds the tombstones.
	runs [][]snapEnt
}

// SnapshotReplicaAndSubscribe captures the exact cut a joining peer seeds
// from and a live subscription delivering everything after it — without
// quiescing writers: the same rlockAll header capture as
// SnapshotRangeAndSubscribeSeq (PR 3/7), extended with stamps and
// tombstones. Nothing is sorted or copied beyond the headers; stream the
// cut with Each.
func (d *DIT) SnapshotReplicaAndSubscribe(buffer int) (snap *ReplSnapshot, changes <-chan UpdateRecord, cancel func()) {
	if buffer <= 0 {
		buffer = 1024
	}
	snap = &ReplSnapshot{node: d.nodeID, runs: make([][]snapEnt, len(d.segs)+2)}
	var interior, tombs []snapEnt
	d.rlockAll()
	for i, s := range d.segs {
		leaves := make([]snapEnt, 0, len(s.entries))
		for k, n := range s.entries {
			e := snapEnt{dn: n.dn, key: k, attrs: n.attrs, stamp: n.stamp}
			if len(n.children) > 0 {
				interior = append(interior, e)
			} else {
				leaves = append(leaves, e)
			}
		}
		snap.runs[i+1] = leaves
		for k, ts := range s.tombstones {
			tombs = append(tombs, snapEnt{key: k, stamp: ts})
		}
	}
	snap.Seq = d.seq.Load()
	sub := &changeSub{ch: make(chan UpdateRecord, buffer), startAfter: snap.Seq}
	d.subMu.Lock()
	d.subs = append(d.subs, sub)
	d.subMu.Unlock()
	d.runlockAll()

	// Parents before children is the receiver's contract (it applies in
	// stream order). Every parent is an interior entry, so ordering those
	// few by depth and sending them first is enough: the leaves — nearly
	// the whole tree — go out in map order, unsorted.
	sort.Slice(interior, func(i, j int) bool { return interior[i].dn.Depth() < interior[j].dn.Depth() })
	snap.runs[0], snap.runs[len(snap.runs)-1] = interior, tombs
	return snap, sub.ch, d.cancelFunc(sub)
}

// Each streams the cut as codec records — interior entries parents first,
// then the leaves segment by segment, then the tombstones as stamped
// deletes — stopping early when visit returns false. rec is reused between
// calls and shares the tree's immutable attribute values. Each consumes the
// snapshot: a segment's headers are dropped once streamed.
func (s *ReplSnapshot) Each(visit func(rec *record.Record) bool) {
	var rec record.Record
	for i, run := range s.runs {
		s.runs[i] = nil
		for j := range run {
			run[j].record(&rec)
			if run[j].stamp.IsZero() {
				// Pre-replication entry (restored from an unstamped legacy
				// journal): ship the minimal valid stamp so it applies
				// everywhere but loses to any real write.
				rec.OriginSeq, rec.OriginNode = 1, s.node
			}
			if !visit(&rec) {
				return
			}
		}
	}
}

// Replicated appends rec's replicated form to out: full post-image upserts
// ("entry") and stamped deletes, what ApplyRemoteBatch consumes. A rename
// decomposes into delete(old)+upsert(new) under the rename's single stamp.
// Records without a post-image in hand fall back to the live tree — the
// image read may be newer than the record, but it ships under the record's
// (older) stamp, so the later state's own record simply re-wins when it
// arrives: convergence is unaffected. Unstamped legacy records replicate as
// nothing (the snapshot fallback covers them).
func (d *DIT) Replicated(rec *UpdateRecord, out []record.Record) []record.Record {
	st := rec.Origin()
	if st.IsZero() {
		return out
	}
	upsert := func(name, key string, img *Attrs) []record.Record {
		if img == nil {
			parsed, err := dn.Parse(name)
			if err != nil {
				return out
			}
			e, err := d.Get(parsed)
			if err != nil {
				return out // entry since deleted; its delete record follows
			}
			img = e.Attrs
		}
		return append(out, record.Record{Op: "entry", DN: name, NormKey: key, Fields: img.fields,
			OriginSeq: st.Seq, OriginNode: st.Node})
	}
	switch rec.Op {
	case "add", "entry":
		return upsert(rec.DN, rec.normKey, rec.image)
	case "modify":
		return upsert(rec.DN, "", rec.image)
	case "delete":
		return append(out, record.Record{Op: "delete", DN: rec.DN, OriginSeq: st.Seq, OriginNode: st.Node})
	case "modifydn":
		name, err := dn.Parse(rec.DN)
		if err != nil || name.IsRoot() {
			return out
		}
		newRDN, err := dn.Parse(rec.NewRDN)
		if err != nil || newRDN.Depth() != 1 {
			return out
		}
		out = append(out, record.Record{Op: "delete", DN: rec.DN, OriginSeq: st.Seq, OriginNode: st.Node})
		return upsert(name.WithRDN(newRDN.RDN()).String(), "", rec.image)
	}
	return out
}

// Fingerprint returns a canonical SHA-256 over the directory's exact
// state: every entry's normalized DN, attributes (names sorted, values in
// stored order), and origin stamp. Two nodes with equal fingerprints hold
// byte-identical trees AND will resolve all future conflicts identically
// (the stamps match too). Tombstones are excluded — they are GC-pruned
// metadata, not state. Taken under all segment read locks (exact cut).
func (d *DIT) Fingerprint() string {
	type fpEnt struct {
		key   string
		attrs *Attrs
		stamp Stamp
	}
	d.rlockAll()
	ents := make([]fpEnt, 0, int(d.count.Load()))
	for _, s := range d.segs {
		for k, n := range s.entries {
			ents = append(ents, fpEnt{key: k, attrs: n.attrs, stamp: n.stamp})
		}
	}
	d.runlockAll()
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	h := sha256.New()
	var num [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(num[:], uint64(len(s)))
		h.Write(num[:])
		h.Write([]byte(s))
	}
	for _, e := range ents {
		writeStr(e.key)
		binary.LittleEndian.PutUint64(num[:], e.stamp.Seq)
		h.Write(num[:])
		binary.LittleEndian.PutUint64(num[:], uint64(e.stamp.Node))
		h.Write(num[:])
		e.attrs.EachSorted(func(attr string, values []string) {
			writeStr(lower(attr))
			binary.LittleEndian.PutUint64(num[:], uint64(len(values)))
			h.Write(num[:])
			for _, v := range values {
				writeStr(v)
			}
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}
