package directory

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/record"
)

// Durability. The paper's directory world handles system and media failure
// with replication and backups; this implementation adds the database-
// native equivalent: a write-ahead journal of committed updates with
// snapshot compaction. Reopening the journal replays it, restoring the
// exact directory state.
//
// On a segmented DIT every segment has its own journal file and its own
// group-commit pipeline (one fsync per group per segment; see DESIGN.md
// §11/§13), named <base>.seg<i> and attached together via
// AttachJournalSet. Segment journals replay independently: each file
// carries a linear per-DN history (the router always sends a DN to the
// same file), so replay is relaxed — "entry"/"add" upsert, modify/delete
// apply strictly per entry, parent/child links are wired in one post-pass.
// A legacy single-file journal (or a set written under a different segment
// count) is replayed and folded into the current layout at attach.
//
// The journal is deliberately simple — newline-delimited JSON,
// atomically-renamed snapshots — because the consistency story of MetaComm
// does not depend on it: a directory restored from an older journal is just
// a repository that missed updates, which the Update Manager's
// synchronization facility reconciles. The same stance covers the one
// cross-segment operation: a ModifyDN journals as per-entry delete+entry
// records in the affected segments' files, durable per the sync mode
// before the call returns, but a crash mid-write can persist a subset of
// the rename — an older-state repository that sync reconciles.

// UpdateRecord is one committed update, as written to the journal and
// streamed to replicas. Seq is assigned at commit; replay derives order
// from file position, so records journaled before sequencing existed (or
// compaction's "entry" records) replay identically.
type UpdateRecord struct {
	Seq uint64 `json:"seq,omitempty"`

	Op string `json:"op"` // add | delete | modify | modifydn | entry

	DN    string              `json:"dn"`
	Attrs map[string][]string `json:"attrs,omitempty"` // add / entry

	Changes []UpdateChange `json:"changes,omitempty"` // modify

	NewRDN       string `json:"newRDN,omitempty"` // modifydn
	DeleteOldRDN bool   `json:"deleteOldRDN,omitempty"`

	// OriginSeq/OriginNode are the origin stamp — the (Lamport-seq,
	// node-id) LWW coordinate of the write (replication.go). Journaled and
	// replicated with every record; zero on records written before
	// replication existed, which keeps old journals and the v2 codec
	// byte-compatible (the stamp encodes as an optional trailing field).
	OriginSeq  uint64 `json:"oseq,omitempty"`
	OriginNode uint32 `json:"onode,omitempty"`

	// attrsDec, when non-nil, is the add/entry attribute set as a decoded
	// *Attrs. The v2 codec decodes straight into this form (and compaction
	// encodes straight out of it), skipping the map[string][]string round
	// trip; Attrs stays authoritative for JSON records and the changelog.
	attrsDec *Attrs

	// normKey, when non-empty, is the entry's normalized DN key, carried by
	// v2 "entry" frames (compaction knows it for free) so relaxed replay
	// skips re-normalizing the DN. Must equal dn.Parse(DN).Normalize().
	normKey string

	// post, when non-nil, is the full attribute state the update left
	// behind, attached at commit time for changelog consumers that need
	// images rather than deltas (the replication publisher ships
	// post-image upserts; see PostImage). Never journaled — replay
	// reconstructs state, it does not need images.
	post *Attrs
}

// attrsValue returns the record's attribute set as an *Attrs, preferring
// the decoded fast-path form.
func (r *UpdateRecord) attrsValue() *Attrs {
	if r.attrsDec != nil {
		return r.attrsDec
	}
	return AttrsFrom(r.Attrs)
}

// UpdateChange is one modification inside an UpdateRecord.
type UpdateChange = record.Change

// SyncMode selects when an appended record becomes durable relative to its
// writer's acknowledgment.
type SyncMode int

const (
	// SyncNone flushes each commit group to the OS but never fsyncs;
	// crash durability is whatever the page cache provides. This is the
	// fastest mode and the historical default.
	SyncNone SyncMode = iota
	// SyncAlways makes every record individually durable before its writer
	// is acknowledged: one write+fsync cycle per record, no batching — the
	// safe-but-slow baseline (one fsync per update no matter how many
	// writers are concurrent).
	SyncAlways
	// SyncGroup is group commit: all records staged while the previous
	// group was being written are coalesced into one buffered write and
	// ONE fsync; every writer in the group is acknowledged together. Same
	// ack guarantee as SyncAlways (a returned write is on stable storage),
	// fsync cost amortized across the group.
	SyncGroup
)

// String returns the flag spelling of the mode.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	default:
		return "none"
	}
}

// ParseSyncMode parses the -journal-sync flag spelling.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "none", "":
		return SyncNone, nil
	}
	return SyncNone, fmt.Errorf("directory: unknown sync mode %q (want always, group, or none)", s)
}

// JournalFormat selects the on-disk record encoding. New journals default
// to FormatV2; a journal set written in the other format is migrated at
// attach through the compaction rewrite (replay sniffs per record, so files
// that mix both formats — the state between a format switch and its
// migrating compaction — always replay correctly).
type JournalFormat int

const (
	// FormatV2 is the CRC-framed binary record codec (internal/record).
	FormatV2 JournalFormat = iota
	// FormatJSON is the legacy newline-delimited JSON encoding.
	FormatJSON
)

// String returns the manifest/flag spelling of the format.
func (f JournalFormat) String() string {
	if f == FormatJSON {
		return "json"
	}
	return "v2"
}

// ParseJournalFormat parses a journal format spelling ("" selects the
// default, FormatV2).
func ParseJournalFormat(s string) (JournalFormat, error) {
	switch s {
	case "v2", "":
		return FormatV2, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatV2, fmt.Errorf("directory: unknown journal format %q (want v2 or json)", s)
}

// DefaultJournalBatch caps how many records one commit group may carry when
// Journal.MaxBatch is unset. Groups form from whatever is concurrently
// staged — there is no artificial wait — so the cap only bounds worst-case
// group latency under extreme backlog.
const DefaultJournalBatch = 256

// Journal persists committed directory updates. Configure Mode, MaxBatch,
// and Linger before attaching; they are read by the commit pipeline.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer

	// Mode selects the durability mode (default SyncNone).
	Mode SyncMode
	// MaxBatch caps the records per commit group (0 = DefaultJournalBatch).
	MaxBatch int
	// Linger, when positive, is how long the committer waits after claiming
	// a non-full group for more records to arrive before writing it. Zero
	// (the default) writes immediately: batching then comes only from
	// records staged while the previous group's fsync was in flight, which
	// adds no latency and is usually what you want.
	Linger time.Duration
	// Format selects the record encoding for appends and compaction
	// rewrites (default FormatV2). Replay is format-agnostic.
	Format JournalFormat

	fsyncs uint64 // atomic
}

// OpenJournal opens (creating if needed) a journal file.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("directory: opening journal: %w", err)
	}
	return &Journal{path: path, f: f, w: bufio.NewWriter(f)}, nil
}

// Close flushes and closes the journal file. A journal attached to a DIT
// should be closed via DIT.CloseJournal, which flushes the commit pipeline
// first; closing directly while writers are staging fails their commits
// (cleanly — the pipeline reports the closed journal) but loses nothing
// that was already acknowledged.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err1 := j.w.Flush()
	err2 := j.f.Close()
	j.f = nil
	if err1 != nil {
		return err1
	}
	return err2
}

// writeGroup appends one marshaled commit group and makes it as durable as
// Mode requires: flushed for SyncNone, flushed+fsynced otherwise. The
// group's records were marshaled by the committer outside any lock.
func (j *Journal) writeGroup(data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("directory: journal closed")
	}
	if _, err := j.w.Write(data); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if j.Mode != SyncNone {
		atomic.AddUint64(&j.fsyncs, 1)
		return j.f.Sync()
	}
	return nil
}

// size flushes buffered output and reports the journal file's current byte
// size (the auto-compactor's growth probe).
func (j *Journal) size() (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, fmt.Errorf("directory: journal closed")
	}
	if err := j.w.Flush(); err != nil {
		return 0, err
	}
	st, err := j.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// JournalStats is a point-in-time snapshot of the commit pipeline. On a
// segmented DIT the counters aggregate every segment's pipeline.
type JournalStats struct {
	// Mode is the journal's sync mode ("always", "group", "none").
	Mode string
	// Appends counts records committed through the pipeline; Batches counts
	// the commit groups that carried them. Appends/Batches is the mean
	// group size — the fsync amortization factor in group mode.
	Appends uint64
	Batches uint64
	// Fsyncs counts journal fsync calls (0 in SyncNone mode).
	Fsyncs uint64
	// Bytes counts journal bytes written through the pipeline.
	Bytes uint64
	// MaxBatch is the largest commit group observed.
	MaxBatch int
	// BatchHist is a histogram of group sizes; bucket upper bounds are
	// BatchHistBounds.
	BatchHist [6]uint64
	// CommitNs sums the writers' observed ack latency (stage → durable);
	// CommitNs/Appends is the mean durable-commit latency.
	CommitNs int64
	// TornTails counts torn trailing records truncated during replay (at
	// most one per journal file; a crash mid-append leaves at most one).
	TornTails uint64

	// Format is the journal's record encoding ("v2", "json").
	Format string
	// Attach-time replay: records applied, journal bytes decoded, total
	// wall time (including the cross-segment link pass), the worker count
	// used, and per-segment-file wall times. Zero until a journal set is
	// attached.
	ReplayedRecords uint64
	ReplayedBytes   uint64
	ReplayNs        int64
	ReplayWorkers   int
	SegmentReplayNs []int64
}

// BatchHistBounds are the inclusive upper bounds of JournalStats.BatchHist
// buckets (the last bucket is unbounded).
var BatchHistBounds = [6]int{1, 4, 16, 64, 256, 1 << 30}

// MeanBatch returns the mean commit-group size.
func (s JournalStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Appends) / float64(s.Batches)
}

// MeanCommit returns the mean writer-observed commit latency.
func (s JournalStats) MeanCommit() time.Duration {
	if s.Appends == 0 {
		return 0
	}
	return time.Duration(s.CommitNs / int64(s.Appends))
}

// ReplayRecordsPerSec returns the attach-time replay rate in records/s.
func (s JournalStats) ReplayRecordsPerSec() float64 {
	if s.ReplayNs <= 0 {
		return 0
	}
	return float64(s.ReplayedRecords) / (float64(s.ReplayNs) / 1e9)
}

// ReplayMBPerSec returns the attach-time replay rate in MB/s of journal.
func (s JournalStats) ReplayMBPerSec() float64 {
	if s.ReplayNs <= 0 {
		return 0
	}
	return float64(s.ReplayedBytes) / (1 << 20) / (float64(s.ReplayNs) / 1e9)
}

// committer is the group-commit pipeline attached between one segment and
// its journal. Writers stage records under the segment lock (cheap: one
// slice append) and then block in await outside the lock; the run goroutine
// claims every staged record, writes the group through one buffered write +
// one fsync, hands the group to the emitter for globally ordered changelog
// fan-out, and finally broadcasts durability so the writers return. A
// writer's ticket additionally waits for the emitter's order notification,
// preserving the invariant consumers rely on (see um/sync.go): once a
// writer's call returns, its record is already in every subscription
// buffer, in global commit order.
type committer struct {
	em *emitter
	j  *Journal

	mu     sync.Mutex
	work   sync.Cond // signals run: queue non-empty or closing
	done   sync.Cond // broadcast: durable advanced or pipeline failed
	queue  []UpdateRecord
	staged uint64 // highest seq staged
	// durable is the highest seq written per the journal's mode; err is a
	// sticky I/O failure that poisons the pipeline (reads keep working,
	// every later write to this segment is rejected before mutating).
	durable uint64
	err     error
	closed  bool
	stopped chan struct{}

	maxBatch int
	linger   time.Duration

	// Marshaling state, reused across groups: the JSON encoder appends each
	// record plus the record separator to buf, so the per-record
	// append(b, '\n') allocation of the old path is gone; v2 groups frame
	// into bin with enc2's reused payload scratch. Which pair runs is the
	// journal's Format.
	buf  bytes.Buffer
	enc  *json.Encoder
	bin  []byte
	enc2 record.Encoder

	// Stats, guarded by mu except the atomics.
	appends  uint64
	batches  uint64
	bytes    uint64
	maxSeen  int
	hist     [6]uint64
	commitNs int64 // atomic
}

func newCommitter(em *emitter, j *Journal) *committer {
	c := &committer{em: em, j: j, stopped: make(chan struct{}),
		maxBatch: j.MaxBatch, linger: j.Linger}
	if c.maxBatch <= 0 {
		c.maxBatch = DefaultJournalBatch
	}
	c.work.L = &c.mu
	c.done.L = &c.mu
	c.enc = json.NewEncoder(&c.buf)
	go c.run()
	return c
}

// ready reports whether the pipeline accepts new records. Checked under
// the segment lock before a write mutates anything, so a closed or failed
// journal rejects updates without applying them.
func (c *committer) ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errf(ldap.ResultUnavailable, "journal closed")
	}
	if c.err != nil {
		return errf(ldap.ResultUnavailable, "journal failed: %v", c.err)
	}
	return nil
}

// stage enqueues one sequenced record, or a seq-ascending run of them as
// one unit (a remote batch: one wake-up, so the run lands in as few commit
// groups as MaxBatch allows). Called with the segment lock held, which is
// what guarantees queue order == this segment's commit order == journal
// file order (global seqs are taken under the same lock, so the queue is
// seq-ascending too).
func (c *committer) stage(recs ...UpdateRecord) {
	c.mu.Lock()
	c.queue = append(c.queue, recs...)
	c.staged = recs[len(recs)-1].Seq
	c.mu.Unlock()
	c.work.Signal()
}

// await blocks until seq is durable (per mode), or the pipeline failed
// before reaching it.
func (c *committer) await(seq uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.durable < seq {
		if c.err != nil {
			return errf(ldap.ResultUnavailable, "journal write failed: %v", c.err)
		}
		c.done.Wait()
	}
	return nil
}

// flush waits until everything staged so far is durable. Callers hold the
// segment lock (so nothing new can stage) — compaction and CloseJournal
// use it to quiesce the pipeline.
func (c *committer) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.durable < c.staged {
		if c.err != nil {
			return c.err
		}
		c.done.Wait()
	}
	return c.err
}

// poison marks the pipeline failed (a direct journal write outside the run
// loop hit an error); later writes are rejected pre-mutation.
func (c *committer) poison(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.done.Broadcast()
}

// stop shuts the run goroutine down after a flush. Caller holds the
// segment lock.
func (c *committer) stop() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.work.Signal()
	<-c.stopped
}

// run is the committer goroutine: claim a group, write it, hand it to the
// emitter, wake its writers; repeat.
func (c *committer) run() {
	defer close(c.stopped)
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.work.Wait()
		}
		if len(c.queue) == 0 {
			c.mu.Unlock()
			return
		}
		max := c.maxBatch
		if c.j.Mode == SyncAlways {
			// The contract of always is one durability cycle per record:
			// no batching, so the baseline really is fsync-per-update.
			max = 1
		}
		if c.linger > 0 && len(c.queue) < max && !c.closed && max > 1 {
			// Optional linger: give concurrent writers a window to join
			// this group. Off by default — natural batching (records that
			// staged during the previous group's fsync) adds no latency.
			c.mu.Unlock()
			time.Sleep(c.linger)
			c.mu.Lock()
		}
		// Settle: writers woken by the previous group's broadcast stage
		// staggered (scheduler latency), so the instant queue understates
		// the group that wants to form. While arrivals keep landing and
		// the group is under max, yield one scheduler pass so stragglers
		// join — a microsecond spent here saves their whole fsync. The
		// loop is bounded: it continues only while the queue grew.
		for max > 1 && len(c.queue) < max {
			prev := len(c.queue)
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
			if len(c.queue) == prev {
				break
			}
		}
		n := len(c.queue)
		if n > max {
			n = max
		}
		batch := c.queue[:n:n]
		c.queue = c.queue[n:]
		failed := c.err != nil
		c.mu.Unlock()

		var err error
		if failed {
			// Poisoned: drop the group, fail its writers via the sticky
			// err, and release the group's seqs so the global emission
			// order moves past them instead of stalling on the gap.
			c.em.skipBatch(batch)
			c.done.Broadcast()
			continue
		}
		var nbytes int
		nbytes, err = c.writeGroup(batch)

		if err == nil {
			// Hand the durable group to the emitter BEFORE acking the
			// writers: it is released to subscribers as soon as every
			// earlier seq (possibly from other segments' pipelines) has
			// been, and the writer's ticket waits for exactly that.
			c.em.readyBatch(batch)
		} else {
			c.em.skipBatch(batch)
		}

		c.mu.Lock()
		if err != nil {
			c.err = err
		} else {
			c.durable = batch[n-1].Seq
			c.appends += uint64(n)
			c.batches++
			c.bytes += uint64(nbytes)
			if n > c.maxSeen {
				c.maxSeen = n
			}
			for i, bound := range BatchHistBounds {
				if n <= bound {
					c.hist[i]++
					break
				}
			}
		}
		c.done.Broadcast()
		c.mu.Unlock()
	}
}

// writeGroup marshals the group into the reused buffer (in the journal's
// format) and appends it to the journal with the mode's durability.
func (c *committer) writeGroup(batch []UpdateRecord) (int, error) {
	if c.j.Format == FormatJSON {
		c.buf.Reset()
		for i := range batch {
			if err := c.enc.Encode(&batch[i]); err != nil {
				return 0, err
			}
		}
		if err := c.j.writeGroup(c.buf.Bytes()); err != nil {
			return 0, err
		}
		return c.buf.Len(), nil
	}
	var err error
	c.bin = c.bin[:0]
	for i := range batch {
		if c.bin, err = appendRecord(&c.enc2, c.bin, &batch[i]); err != nil {
			return 0, err
		}
	}
	if err := c.j.writeGroup(c.bin); err != nil {
		return 0, err
	}
	return len(c.bin), nil
}

// journalStats snapshots the pipeline counters.
func (c *committer) journalStats() JournalStats {
	c.mu.Lock()
	s := JournalStats{
		Mode:      c.j.Mode.String(),
		Appends:   c.appends,
		Batches:   c.batches,
		Bytes:     c.bytes,
		MaxBatch:  c.maxSeen,
		BatchHist: c.hist,
	}
	c.mu.Unlock()
	s.Fsyncs = atomic.LoadUint64(&c.j.fsyncs)
	s.CommitNs = atomic.LoadInt64(&c.commitNs)
	return s
}

// commitTicket is what a writer blocks on after releasing the segment
// lock: Wait returns once the staged record is durable (journaled DITs)
// and released to subscribers in global order. The zero ticket (a no-op
// update) waits for nothing.
type commitTicket struct {
	c   *committer
	em  *emitter
	seq uint64
}

// Wait blocks for the ticket's durability and emission notifications.
func (t commitTicket) Wait() error {
	if t.c != nil {
		start := time.Now()
		err := t.c.await(t.seq)
		atomic.AddInt64(&t.c.commitNs, time.Since(start).Nanoseconds())
		if err != nil {
			return err
		}
	}
	if t.em != nil {
		t.em.waitEmitted(t.seq)
	}
	return nil
}

// commitReady rejects writes early when the segment's pipeline cannot
// accept them (closed or failed journal). Called with the segment lock
// held, before mutating.
func (s *segment) commitReady() error {
	if s.commit == nil {
		return nil
	}
	return s.commit.ready()
}

// commitLocked finishes a sequenced in-memory commit on segment s:
// journaled DITs stage the record for the segment's group committer
// (journal write, emitter hand-off, and the writer's wait all happen
// outside the lock); unjournaled DITs hand the record to the emitter
// directly.
func (d *DIT) commitLocked(s *segment, rec UpdateRecord) commitTicket {
	if s.commit != nil {
		s.commit.stage(rec)
		return commitTicket{c: s.commit, em: d.em, seq: rec.Seq}
	}
	d.em.ready(rec)
	return commitTicket{em: d.em, seq: rec.Seq}
}

// journalRenameParts journals a ModifyDN's per-entry decomposition: every
// moved entry contributes a delete record to its old segment's journal and
// an entry record to its new segment's journal, all carrying the rename's
// global seq. Caller holds every segment lock, so flushing the involved
// pipelines quiesces them and the direct appends land in correct per-DN
// order within each file.
func (d *DIT) journalRenameParts(seq uint64, st Stamp, moves []renameMove) error {
	bySeg := make(map[*segment][]UpdateRecord)
	var order []*segment // deterministic write order
	appendRec := func(s *segment, rec UpdateRecord) {
		if _, ok := bySeg[s]; !ok {
			order = append(order, s)
		}
		bySeg[s] = append(bySeg[s], rec)
	}
	for i := range moves {
		m := &moves[i]
		appendRec(d.seg(m.oldKey), UpdateRecord{Seq: seq, Op: "delete", DN: m.oldDN,
			OriginSeq: st.Seq, OriginNode: st.Node})
		nd := m.nd
		appendRec(d.seg(nd.key), UpdateRecord{Seq: seq, Op: "entry", DN: nd.dn.String(),
			Attrs: nd.attrs.Map(), attrsDec: nd.attrs, OriginSeq: st.Seq, OriginNode: st.Node})
	}
	for _, s := range order {
		if err := s.commit.flush(); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var enc2 record.Encoder
	var bin []byte
	for _, s := range order {
		recs := bySeg[s]
		var group []byte
		if s.journal.Format == FormatJSON {
			buf.Reset()
			for i := range recs {
				if err := enc.Encode(&recs[i]); err != nil {
					return err
				}
			}
			group = buf.Bytes()
		} else {
			bin = bin[:0]
			var err error
			for i := range recs {
				if bin, err = appendRecord(&enc2, bin, &recs[i]); err != nil {
					return err
				}
			}
			group = bin
		}
		if err := s.journal.writeGroup(group); err != nil {
			s.commit.poison(err)
			return err
		}
	}
	return nil
}

// AttachJournal replays a legacy single-file journal into the DIT, then
// attaches it and starts the group-commit pipeline so every future
// committed update is appended. It returns the number of records replayed.
// A torn trailing record (crash mid-append) is truncated and tolerated —
// the journal ends at the last complete record, which is exactly the acked
// prefix — but corruption followed by further complete records still
// errors. Only single-segment DITs accept this form; segmented DITs attach
// one journal per segment via AttachJournalSet.
func (d *DIT) AttachJournal(j *Journal) (int, error) {
	if len(d.segs) != 1 {
		return 0, fmt.Errorf("directory: single-file journal on a %d-segment DIT; use AttachJournalSet", len(d.segs))
	}
	s := d.segs[0]
	s.mu.RLock()
	attached := s.journal != nil
	s.mu.RUnlock()
	if attached {
		return 0, fmt.Errorf("directory: journal already attached")
	}

	start := time.Now()
	n, nb, torn, err := d.replayFile(j.path, d.applyRecord)
	if err != nil {
		return n, err
	}
	ns := time.Since(start).Nanoseconds()
	d.replay.Store(&replayStats{Format: j.Format, Workers: 1, Records: uint64(n),
		Bytes: uint64(nb), WallNs: ns, SegmentNs: []int64{ns}})
	s.mu.Lock()
	if s.journal != nil {
		s.mu.Unlock()
		return n, fmt.Errorf("directory: journal already attached")
	}
	s.journal = j
	s.commit = newCommitter(d.em, j)
	if torn {
		d.tornTails.Store(1)
	}
	s.mu.Unlock()
	// Replay runs through the public ops, which emit records carrying
	// replay-minted stamps (restoreStamp then corrects the entries, but not
	// the emitted copies). Those must never be resumable: restart the
	// changelog tail's coverage at the restored seq so pre-restart cursors
	// take the snapshot fallback, which ships the corrected stamps.
	d.resetTailTo(d.seq.Load())
	return n, nil
}

// JournalSetConfig configures AttachJournalSet. Base is the path stem;
// segment i journals to <Base>.seg<i> and the layout manifest lives at
// <Base>.meta. Mode/MaxBatch/Linger/Format apply to every segment's
// pipeline; Workers caps the attach-replay worker pool (0 = GOMAXPROCS).
type JournalSetConfig struct {
	Base     string
	Mode     SyncMode
	MaxBatch int
	Linger   time.Duration
	Format   JournalFormat
	Workers  int
}

func segJournalPath(base string, i int) string { return fmt.Sprintf("%s.seg%d", base, i) }

// journalManifest records the on-disk layout so attach can tell whether
// the existing files match the configured segment count and record format.
// An absent format field means a set written before v2 existed, i.e. JSON.
type journalManifest struct {
	Segments int    `json:"segments"`
	Format   string `json:"format,omitempty"`
	// Entries holds each segment's live entry count at the time the
	// manifest was written (compaction, clean close, attach). It is a
	// presize hint only — attach allocates each empty segment map at this
	// capacity so replay never grows a map — and staleness is harmless.
	Entries []int `json:"entries,omitempty"`
}

// replayStats captures one attach-time replay (see JournalStats).
type replayStats struct {
	Format    JournalFormat
	Workers   int
	Records   uint64
	Bytes     uint64
	WallNs    int64
	SegmentNs []int64
}

// forEachIdx runs fn(i) for every i in [0, n), fanning out over up to
// workers goroutines (inline when workers <= 1).
func forEachIdx(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// AttachJournalSet replays and attaches one journal per segment. It
// returns the total records replayed across files. Three on-disk layouts
// are accepted:
//
//   - Fresh or matching segment files: each file replays relaxed into its
//     segment(s) — linear in live entries after compaction, since a
//     compacted file is exactly one entry record per live entry.
//   - A legacy single-file journal at Base (pre-segmentation data dir):
//     replayed strictly, then folded into segment files via a compaction
//     sweep; the legacy file is removed afterwards. A crash anywhere in
//     the migration is safe: entry upserts make re-folding idempotent.
//   - Segment files written under a different segment count: replayed
//     through the current router (a DN's records are totally ordered
//     within whichever single file held them), then rewritten into the
//     current layout and the stale files removed.
//
// When the on-disk layout matches the configured segment count, the files
// replay CONCURRENTLY on a pool of cfg.Workers goroutines (default
// GOMAXPROCS): each segment's file only ever touches that segment's entry
// map, so the only cross-segment work — the parent/child link pass and the
// global sequence restore — runs after every file has landed. The legacy
// and re-fold layouts keep the sequential path (their records cross
// segments). A set written in the other record format (manifest says so)
// replays normally — the decoder sniffs per record — and is migrated to
// cfg.Format through the same compaction rewrite the layout migrations use.
func (d *DIT) AttachJournalSet(cfg JournalSetConfig) (int, error) {
	for _, s := range d.segs {
		s.mu.RLock()
		attached := s.journal != nil
		s.mu.RUnlock()
		if attached {
			return 0, fmt.Errorf("directory: journal already attached")
		}
	}

	// A crash mid-compaction leaves a .compact temporary; it is garbage
	// (the real journal was never replaced) and must not survive.
	for i := 0; ; i++ {
		path := segJournalPath(cfg.Base, i) + ".compact"
		if err := os.Remove(path); err != nil && i >= len(d.segs) {
			break
		}
	}

	// Read the layout manifest (absence means legacy or fresh).
	manifestPath := cfg.Base + ".meta"
	diskSegs := 0
	diskFormat := FormatJSON // manifests predating v2 carry no format field
	haveManifest := false
	var entriesHint []int
	if b, err := os.ReadFile(manifestPath); err == nil {
		var m journalManifest
		if json.Unmarshal(b, &m) == nil {
			diskSegs = m.Segments
			haveManifest = true
			entriesHint = m.Entries
			if m.Format != "" {
				if f, ferr := ParseJournalFormat(m.Format); ferr == nil {
					diskFormat = f
				}
			}
		}
	}

	total := 0
	migrate := false
	legacy := false
	replayStart := time.Now()
	rst := replayStats{Format: cfg.Format, Workers: 1}

	// Legacy single-file journal: strict replay (one file carries the
	// global order, so the original operation semantics hold exactly).
	if _, err := os.Stat(cfg.Base); err == nil {
		n, nb, torn, err := d.replayFile(cfg.Base, d.applyRecord)
		if err != nil {
			return total, err
		}
		if torn {
			d.tornTails.Add(1)
		}
		total += n
		rst.Records += uint64(n)
		rst.Bytes += uint64(nb)
		migrate = true
		legacy = true
	}

	// A set written under a different segment count is re-folded; one
	// written in the other record format is rewritten in cfg.Format. Both
	// go through the same migrating compaction after attach.
	refold := diskSegs != 0 && diskSegs != len(d.segs)
	if refold || (haveManifest && diskFormat != cfg.Format) {
		migrate = true
	}
	maxSeq := uint64(0)
	applied := 0
	var stale []string

	if refold || legacy {
		// Foreign layouts replay sequentially, in file order: their records
		// route across segments through the current router, and files
		// beyond the configured count (larger previous layout) are folded
		// in and removed after migration.
		scan := len(d.segs)
		if diskSegs > scan {
			scan = diskSegs
		}
		rst.SegmentNs = make([]int64, scan)
		for i := 0; i < scan; i++ {
			path := segJournalPath(cfg.Base, i)
			if _, err := os.Stat(path); err != nil {
				continue
			}
			t0 := time.Now()
			n, ms, nb, torn, err := d.replayRelaxed(path)
			if err != nil {
				return total, err
			}
			if torn {
				d.tornTails.Add(1)
			}
			total += n
			applied += n
			rst.Records += uint64(n)
			rst.Bytes += uint64(nb)
			rst.SegmentNs[i] = time.Since(t0).Nanoseconds()
			if ms > maxSeq {
				maxSeq = ms
			}
			if i >= len(d.segs) {
				stale = append(stale, path)
			}
		}
	} else {
		// Matching layout: every file touches only its own segment's entry
		// map, so the files replay concurrently on the worker pool.
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(d.segs) {
			workers = len(d.segs)
		}
		rst.Workers = workers
		// Presize each empty segment map from the manifest's entry counts:
		// a compacted file upserts exactly that many live entries, and
		// growing a multi-hundred-thousand-key map mid-replay (repeated
		// doubling plus bucket evacuation) is the dominant allocator cost
		// at this population. The hint may be stale; maps still grow.
		for i, s := range d.segs {
			if i < len(entriesHint) && entriesHint[i] > 0 {
				s.mu.Lock()
				if len(s.entries) == 0 {
					s.entries = make(map[string]*node, entriesHint[i])
				}
				s.mu.Unlock()
			}
		}
		type segReplay struct {
			n    int
			max  uint64
			nb   int64
			torn bool
			ns   int64
			err  error
		}
		res := make([]segReplay, len(d.segs))
		forEachIdx(workers, len(d.segs), func(i int) {
			path := segJournalPath(cfg.Base, i)
			if _, err := os.Stat(path); err != nil {
				return
			}
			t0 := time.Now()
			n, ms, nb, torn, err := d.replayRelaxed(path)
			res[i] = segReplay{n: n, max: ms, nb: nb, torn: torn,
				ns: time.Since(t0).Nanoseconds(), err: err}
		})
		rst.SegmentNs = make([]int64, len(d.segs))
		for i := range res {
			if res[i].err != nil {
				return total, res[i].err
			}
			if res[i].torn {
				d.tornTails.Add(1)
			}
			total += res[i].n
			applied += res[i].n
			rst.Records += uint64(res[i].n)
			rst.Bytes += uint64(res[i].nb)
			rst.SegmentNs[i] = res[i].ns
			if res[i].max > maxSeq {
				maxSeq = res[i].max
			}
		}
	}
	d.wireChildren(rst.Workers)
	rst.WallNs = time.Since(replayStart).Nanoseconds()
	d.replay.Store(&rst)

	// Advance the global sequence past everything replayed so future seqs
	// never collide with ones already on disk or streamed to replicas.
	seq := d.seq.Load() + uint64(applied)
	if maxSeq > seq {
		seq = maxSeq
	}
	d.seq.Store(seq)
	d.em.advanceTo(seq)
	// Records restored their own stamps into the clock above; raising it to
	// the commit seq too keeps fresh local writes above anything a
	// pre-replication journal (all-zero stamps) could have produced.
	d.bumpClock(seq)

	// Open and attach every segment's journal.
	opened := make([]*Journal, 0, len(d.segs))
	for i, s := range d.segs {
		j, err := OpenJournal(segJournalPath(cfg.Base, i))
		if err != nil {
			for _, oj := range opened {
				oj.Close()
			}
			return total, err
		}
		j.Mode, j.MaxBatch, j.Linger, j.Format = cfg.Mode, cfg.MaxBatch, cfg.Linger, cfg.Format
		opened = append(opened, j)
		s.mu.Lock()
		s.journal = j
		s.commit = newCommitter(d.em, j)
		s.mu.Unlock()
	}
	d.journalBase, d.journalFormat = cfg.Base, cfg.Format

	if migrate {
		// Fold the foreign layout into the current one: one compaction
		// sweep writes every segment's live state into its own file, after
		// which the legacy/stale files are dead weight.
		if err := d.Compact(); err != nil {
			return total, err
		}
		if err := os.Remove(cfg.Base); err != nil && !os.IsNotExist(err) {
			return total, err
		}
		for _, path := range stale {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return total, err
			}
		}
	}
	for _, s := range d.segs {
		if sz, err := s.journal.size(); err == nil {
			s.sizeAfterCompact = sz
		}
	}

	if err := d.writeManifest(cfg.Base, cfg.Format); err != nil {
		return total, err
	}
	return total, nil
}

// writeManifest persists the layout manifest (tmp+rename so it is never
// torn). Alongside the segment count and record format it records each
// segment's live entry count, the presize hint the next attach uses.
// Refreshed at attach, after every full compaction, and at clean close so
// the hint tracks the population.
func (d *DIT) writeManifest(base string, format JournalFormat) error {
	m := journalManifest{
		Segments: len(d.segs),
		Format:   format.String(),
		Entries:  make([]int, len(d.segs)),
	}
	for i, s := range d.segs {
		s.mu.RLock()
		m.Entries[i] = len(s.entries)
		s.mu.RUnlock()
	}
	mb, _ := json.Marshal(m)
	path := base + ".meta"
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(mb, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dirf, err := os.Open(filepath.Dir(path)); err == nil {
		dirf.Sync()
		dirf.Close()
	}
	return nil
}

// CloseJournal stops background compaction, flushes every segment's commit
// pipeline, stops the committers, closes the journal files, and detaches
// them. Writers that race the close are rejected with unavailable before
// they mutate anything; everything staged before the close is written
// first. A DIT without journals returns nil.
func (d *DIT) CloseJournal() error {
	d.stopAutoCompact()
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	var firstErr error
	for _, s := range d.segs {
		s.mu.Lock()
		if s.journal == nil {
			s.mu.Unlock()
			continue
		}
		flushErr := s.commit.flush()
		s.commit.stop()
		closeErr := s.journal.Close()
		s.journal = nil
		s.commit = nil
		s.mu.Unlock()
		if firstErr == nil {
			if flushErr != nil {
				firstErr = flushErr
			} else {
				firstErr = closeErr
			}
		}
	}
	// A clean close leaves the manifest's presize hint exact for the next
	// attach (entry counts drift between compactions while serving).
	if firstErr == nil && d.journalBase != "" {
		firstErr = d.writeManifest(d.journalBase, d.journalFormat)
	}
	return firstErr
}

// JournalStats snapshots the commit pipelines, aggregated across segments
// (zero when no journal is attached).
func (d *DIT) JournalStats() JournalStats {
	var out JournalStats
	if rs := d.replay.Load(); rs != nil {
		out.Format = rs.Format.String()
		out.ReplayedRecords = rs.Records
		out.ReplayedBytes = rs.Bytes
		out.ReplayNs = rs.WallNs
		out.ReplayWorkers = rs.Workers
		out.SegmentReplayNs = append([]int64(nil), rs.SegmentNs...)
	}
	for _, s := range d.segs {
		s.mu.RLock()
		c := s.commit
		if s.journal != nil && out.Format == "" {
			out.Format = s.journal.Format.String()
		}
		s.mu.RUnlock()
		if c == nil {
			continue
		}
		st := c.journalStats()
		if out.Mode == "" {
			out.Mode = st.Mode
		}
		out.Appends += st.Appends
		out.Batches += st.Batches
		out.Fsyncs += st.Fsyncs
		out.Bytes += st.Bytes
		if st.MaxBatch > out.MaxBatch {
			out.MaxBatch = st.MaxBatch
		}
		for i := range out.BatchHist {
			out.BatchHist[i] += st.BatchHist[i]
		}
		out.CommitNs += st.CommitNs
	}
	out.TornTails = d.tornTails.Load()
	return out
}

// replayFile applies all records from path (missing file = empty journal)
// through apply, reporting the journal bytes consumed by complete records.
// Each record's first byte says what it is — 0xB2 a v2 frame, anything
// else a JSON line — so one file may mix formats (the state between a
// format switch and its migrating compaction). A torn final record — an
// incomplete frame, or unmarshalable bytes with nothing but emptiness
// after them; the signature of a crash mid-append — is truncated from the
// file and reported via torn; a damaged record followed by more data is
// real corruption and errors.
func (d *DIT) replayFile(path string, apply func(UpdateRecord) error) (count int, nbytes int64, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 256*1024)
	var dec record.Decoder
	var wrec record.Record
	var rec UpdateRecord
	var off int64 // byte offset of the record being read
	for {
		first, perr := r.Peek(1)
		if perr == io.EOF {
			return count, off, false, nil
		}
		if perr != nil {
			return count, off, false, perr
		}
		if first[0] == record.Marker {
			n, ferr := dec.ReadRecord(r, &wrec)
			if ferr == record.ErrTorn {
				// Torn tail: drop it so future appends start at a record
				// boundary instead of extending garbage.
				if terr := os.Truncate(path, off); terr != nil {
					return count, off, false, fmt.Errorf("directory: truncating torn journal tail: %w", terr)
				}
				return count, off, true, nil
			}
			if ferr != nil {
				return count, off, false, fmt.Errorf("directory: journal record %d: %w", count+1, ferr)
			}
			rec.setWire(&wrec)
			if aerr := apply(rec); aerr != nil {
				return count, off, false, fmt.Errorf("directory: replaying record %d (%s %q): %w",
					count+1, rec.Op, rec.DN, aerr)
			}
			count++
			off += int64(n)
			continue
		}
		line, rerr := r.ReadBytes('\n')
		lineLen := int64(len(line))
		recb := bytes.TrimSuffix(line, []byte{'\n'})
		if len(bytes.TrimSpace(recb)) > 0 {
			var u UpdateRecord
			if uerr := json.Unmarshal(recb, &u); uerr != nil {
				rest, _ := io.ReadAll(r)
				if len(bytes.TrimSpace(rest)) > 0 {
					return count, off, false, fmt.Errorf("directory: journal record %d: %w", count+1, uerr)
				}
				if terr := os.Truncate(path, off); terr != nil {
					return count, off, false, fmt.Errorf("directory: truncating torn journal tail: %w", terr)
				}
				return count, off, true, nil
			}
			if aerr := apply(u); aerr != nil {
				return count, off, false, fmt.Errorf("directory: replaying record %d (%s %q): %w",
					count+1, u.Op, u.DN, aerr)
			}
			count++
		}
		off += lineLen
		if rerr == io.EOF {
			return count, off, false, nil
		}
		if rerr != nil {
			return count, off, false, rerr
		}
	}
}

// replayRelaxed replays one segment journal. See applyRelaxed for the
// (deliberately weaker) semantics; maxSeq reports the highest commit seq
// seen in the file.
func (d *DIT) replayRelaxed(path string) (count int, maxSeq uint64, nbytes int64, torn bool, err error) {
	count, nbytes, torn, err = d.replayFile(path, func(rec UpdateRecord) error {
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		return d.applyRelaxed(rec)
	})
	return count, maxSeq, nbytes, torn, err
}

// applyRecord replays one record of a legacy single-file journal through
// the public operations — the file carries the global commit order, so
// full LDAP semantics (parent existence, leaf-only delete, subtree
// renames) hold at every prefix.
func (d *DIT) applyRecord(rec UpdateRecord) error {
	name, err := dn.Parse(rec.DN)
	if err != nil {
		return err
	}
	switch rec.Op {
	case "add", "entry":
		if err := d.Add(name, rec.attrsValue()); err != nil {
			return err
		}
		d.restoreStamp(name.Normalize(), rec.Origin())
		return nil
	case "delete":
		st := rec.Origin()
		if err := d.Delete(name); err != nil {
			if !st.IsZero() && CodeOf(err) == ldap.ResultNoSuchObject {
				// A tombstone-only record: a remote delete journaled for an
				// entry this node never held. Restore the tombstone alone.
				d.restoreTombstone(name.Normalize(), st)
				return nil
			}
			return err
		}
		if !st.IsZero() {
			d.restoreTombstone(name.Normalize(), st)
		}
		return nil
	case "modify":
		changes, err := changesFromRecord(rec)
		if err != nil {
			return err
		}
		if err := d.Modify(name, changes); err != nil {
			return err
		}
		d.restoreStamp(name.Normalize(), rec.Origin())
		return nil
	case "modifydn":
		newRDN, err := dn.Parse(rec.NewRDN)
		if err != nil || newRDN.Depth() != 1 {
			return fmt.Errorf("bad newRDN %q", rec.NewRDN)
		}
		if err := d.ModifyDN(name, newRDN.RDN(), rec.DeleteOldRDN); err != nil {
			return err
		}
		d.restoreStamp(name.WithRDN(newRDN.RDN()).Normalize(), rec.Origin())
		return nil
	}
	return fmt.Errorf("unknown journal op %q", rec.Op)
}

// restoreStamp reinstates a replayed record's origin stamp on its entry
// (strict replay applies through the public ops, which mint fresh local
// stamps; without this, a restarted node's entries would lose LWW to
// stale remote state and diverge). No-op for unstamped legacy records.
func (d *DIT) restoreStamp(key string, st Stamp) {
	if st.IsZero() {
		return
	}
	d.bumpClock(st.Seq)
	s := d.seg(key)
	s.mu.Lock()
	if n, ok := s.entries[key]; ok {
		n.stamp = st
	}
	s.mu.Unlock()
}

// restoreTombstone reinstates a replayed delete's tombstone.
func (d *DIT) restoreTombstone(key string, st Stamp) {
	d.bumpClock(st.Seq)
	s := d.seg(key)
	s.mu.Lock()
	s.setTombstone(key, st)
	s.mu.Unlock()
}

// applyRelaxed replays one record of a per-segment journal. A segment file
// sees only its own entries' history — parents may live elsewhere and
// logical modifydn records never appear (renames are decomposed into
// per-entry delete+entry parts at journaling time) — so replay is
// entry-local: add/entry upsert (which also makes migration re-folds
// idempotent), modify and delete apply strictly to the entry (its per-DN
// history within one file is total), and parent/child links are wired in
// a single post-pass after every file has replayed.
func (d *DIT) applyRelaxed(rec UpdateRecord) error {
	name, err := dn.Parse(rec.DN)
	if err != nil {
		return err
	}
	key := rec.normKey // v2 entry frames carry the key; others normalize here
	if key == "" {
		key = name.Normalize()
	}
	s := d.seg(key)
	switch rec.Op {
	case "add", "entry":
		a := rec.attrsValue()
		st := rec.Origin()
		d.bumpClock(st.Seq)
		s.mu.Lock()
		if n, ok := s.entries[key]; ok {
			s.reindexEntry(key, n.attrs, a)
			n.attrs = a
			n.dn = name
			n.stamp = st
		} else {
			s.entries[key] = &node{dn: name, key: key, attrs: a, stamp: st}
			s.indexEntry(key, a)
			d.count.Add(1)
		}
		delete(s.tombstones, key)
		s.mu.Unlock()
		return nil
	case "delete":
		st := rec.Origin()
		d.bumpClock(st.Seq)
		s.mu.Lock()
		defer s.mu.Unlock()
		n, ok := s.entries[key]
		if !ok {
			if !st.IsZero() {
				// Tombstone-only record (a remote delete of an entry this
				// node never held, or compaction's persisted tombstones).
				s.setTombstone(key, st)
				return nil
			}
			return errf(ldap.ResultNoSuchObject, "no entry %q", name)
		}
		delete(s.entries, key)
		s.unindexEntry(key, n.attrs)
		if !st.IsZero() {
			s.setTombstone(key, st)
		}
		d.count.Add(-1)
		return nil
	case "modify":
		changes, err := changesFromRecord(rec)
		if err != nil {
			return err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		n, ok := s.entries[key]
		if !ok {
			return errf(ldap.ResultNoSuchObject, "no entry %q", name)
		}
		work, err := d.applyChanges(name, n.attrs, changes)
		if err != nil {
			return err
		}
		s.reindexEntry(key, n.attrs, work)
		n.attrs = work
		if st := rec.Origin(); !st.IsZero() {
			n.stamp = st
			d.bumpClock(st.Seq)
		}
		return nil
	}
	return fmt.Errorf("unexpected op %q in segment journal", rec.Op)
}

// changesFromRecord decodes a modify record's change list.
func changesFromRecord(rec UpdateRecord) ([]ldap.Change, error) {
	changes := make([]ldap.Change, 0, len(rec.Changes))
	for _, c := range rec.Changes {
		var op ldap.ModOp
		switch c.Op {
		case "add":
			op = ldap.ModAdd
		case "delete":
			op = ldap.ModDelete
		case "replace":
			op = ldap.ModReplace
		default:
			return nil, fmt.Errorf("unknown change op %q", c.Op)
		}
		changes = append(changes, ldap.Change{Op: op,
			Attribute: ldap.Attribute{Type: c.Attr, Values: c.Values}})
	}
	return changes, nil
}

// wireChildren rebuilds every parent's child-link set after relaxed
// replay, which installs entries without cross-segment linking. With
// workers > 1 the rebuild runs as two barrier-separated parallel passes:
// phase A scans each segment, clears its nodes' child sets, and buckets
// every (parent, child) link by the PARENT's segment; phase B hands each
// parent segment exactly its own buckets — no two workers ever touch the
// same node, so the passes need no locking beyond the barrier between
// them (forEachIdx's WaitGroup).
func (d *DIT) wireChildren(workers int) {
	d.lockAll()
	defer d.unlockAll()
	if workers <= 1 || len(d.segs) == 1 {
		for _, s := range d.segs {
			for _, n := range s.entries {
				n.children = nil
			}
		}
		// Consecutive entries overwhelmingly share a parent (the flat tree
		// hangs everything off the suffix), so cache the last parent lookup
		// — one hash+probe per parent run instead of per entry.
		var lastPK string
		var lastP *node
		for _, s := range d.segs {
			for key := range s.entries {
				pk := parentNormKey(key)
				if pk == "" {
					continue
				}
				if pk != lastPK || lastP == nil {
					lastPK, lastP = pk, d.seg(pk).entries[pk]
				}
				if lastP != nil {
					lastP.addChild(key)
				}
			}
		}
		return
	}
	type childLink struct{ parent, child string }
	// links[scanSeg][parentSeg] — each phase-A worker writes only its own
	// row, each phase-B worker reads only its own column.
	links := make([][][]childLink, len(d.segs))
	forEachIdx(workers, len(d.segs), func(i int) {
		ents := d.segs[i].entries
		for _, n := range ents {
			n.children = nil
		}
		row := make([][]childLink, len(d.segs))
		// Same consecutive-parent cache as the sequential path: routing
		// (hash) and same-segment node lookup run once per parent run.
		var lastPK string
		var lastPS int
		var lastP *node // valid only when lastPS == i
		for key := range ents {
			pk := parentNormKey(key)
			if pk == "" {
				continue
			}
			if pk != lastPK {
				lastPK, lastPS, lastP = pk, d.segIndex(pk), nil
				if lastPS == i {
					lastP = ents[pk]
				}
			}
			if lastPS == i {
				// Same-segment link: this worker owns every node in
				// segment i during phase A (children already cleared
				// above), so apply directly instead of bucketing.
				if lastP != nil {
					lastP.addChild(key)
				}
				continue
			}
			row[lastPS] = append(row[lastPS], childLink{parent: pk, child: key})
		}
		links[i] = row
	})
	forEachIdx(workers, len(d.segs), func(ps int) {
		ents := d.segs[ps].entries
		var lastPK string
		var lastP *node
		for _, row := range links {
			for _, l := range row[ps] {
				if l.parent != lastPK || lastP == nil {
					lastPK, lastP = l.parent, ents[l.parent]
				}
				if lastP != nil {
					lastP.addChild(l.child)
				}
			}
		}
	})
}

// parentNormKey returns the parent entry's normalized DN key given an
// entry's normalized key — everything past the first unescaped comma, or
// "" for a depth-1 entry. Normalized keys escape every literal ',' and
// '\' inside attribute values, so the first comma not preceded by a
// backslash escape is exactly the first RDN separator. This is the
// allocation-free equivalent of n.dn.Parent().Normalize(), which the
// wiring post-pass would otherwise pay twice per entry per attach.
func parentNormKey(key string) string {
	for i := 0; i < len(key); i++ {
		switch key[i] {
		case '\\':
			i++ // skip the escaped byte
		case ',':
			return key[i+1:]
		}
	}
	return ""
}
