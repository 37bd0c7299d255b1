package directory

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
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
// Every segment has its own journal file and its own group-commit pipeline
// (one fsync per group per segment; see DESIGN.md §11/§13), named
// <base>.seg<i> and attached together via AttachJournalSet. Segment
// journals replay independently: each file carries a linear per-DN history
// (the router always sends a DN to the same file), so replay is relaxed —
// "entry"/"add" upsert, modify/delete apply strictly per entry, parent/child
// links are wired in one post-pass. A set written under a different segment
// count is replayed and folded into the current layout at attach.
//
// The journal is deliberately simple — one CRC-framed record format
// (internal/record), atomically-renamed snapshots — because the consistency
// story of MetaComm does not depend on it: a directory restored from an
// older journal is just a repository that missed updates, which the Update
// Manager's synchronization facility reconciles. The same stance covers the
// one cross-segment operation: a ModifyDN journals as per-entry delete+entry
// records in the affected segments' files, durable per the sync mode
// before the call returns, but a crash mid-write can persist a subset of
// the rename — an older-state repository that sync reconciles.

// UpdateRecord is one committed update, as written to the journal and
// streamed to replicas. Seq is assigned at commit; replay derives order
// from file position, so compaction's "entry" records (and records
// journaled before sequencing existed) replay identically.
type UpdateRecord struct {
	Seq uint64

	Op string // add | delete | modify | modifydn | entry

	DN string

	Changes []UpdateChange // modify

	NewRDN       string // modifydn
	DeleteOldRDN bool

	// OriginSeq/OriginNode are the origin stamp — the (Lamport-seq,
	// node-id) LWW coordinate of the write (replication.go). Journaled and
	// replicated with every record; zero on records written before
	// replication existed (the stamp encodes as an optional trailing field).
	OriginSeq  uint64
	OriginNode uint32

	// image is the full attribute state the update left behind (nil for
	// deletes), shared with the tree's copy-on-write value and never
	// mutated. It is what an add/entry record journals and replays; on
	// modify/modifydn it is attached at commit time for changelog consumers
	// that need images rather than deltas (see PostImage) and is not
	// journaled — replay reconstructs state, it does not need images.
	image *Attrs

	// normKey, when non-empty, is the entry's normalized DN key, carried by
	// "entry" frames (compaction knows it for free) so relaxed replay skips
	// re-normalizing the DN. Must equal dn.Parse(DN).Normalize().
	normKey string
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

// String returns the mode's name, as JournalStats.Mode reports it.
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

// maxCommitGroup caps how many records one commit group may carry.
// Groups form from whatever is concurrently staged — there is no artificial
// wait — so the cap only bounds worst-case group latency under extreme
// backlog.
const maxCommitGroup = 256

// Journal persists one segment's committed updates. Mode is set before the
// commit pipeline starts, which reads it.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer

	// Mode selects the durability mode (default SyncNone).
	Mode SyncMode

	fsyncs uint64 // atomic
	// records counts the records in the file: replayed at attach, appended
	// since, or written by the last compaction. Changed under mu; loaded
	// atomically by the compaction trigger.
	records atomic.Int64
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

// writeGroup appends one marshaled commit group of n records and makes it
// as durable as Mode requires: flushed for SyncNone, flushed+fsynced
// otherwise. The group's records were marshaled by the committer outside
// any lock.
func (j *Journal) writeGroup(data []byte, n int) error {
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
	j.records.Add(int64(n))
	if j.Mode != SyncNone {
		atomic.AddUint64(&j.fsyncs, 1)
		return j.f.Sync()
	}
	return nil
}

// size flushes buffered output and reports the journal file's current byte
// size (compaction's splice offset).
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

	// Attach-time replay: records applied, journal bytes decoded, total
	// wall time (including the cross-segment link pass), and per-segment-
	// file wall times. Zero until a journal set is attached.
	ReplayedRecords uint64
	ReplayedBytes   uint64
	ReplayNs        int64
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

	// wake is the DIT's compactor: a group that carries the file's record
	// count past a multiple of compactFloor wakes it to check the segment.
	wake chan<- struct{}

	// Marshaling state, reused across groups: records frame into bin with
	// enc's reused payload scratch.
	bin []byte
	enc record.Encoder

	// Stats, guarded by mu except the atomics.
	appends  uint64
	batches  uint64
	bytes    uint64
	maxSeen  int
	hist     [6]uint64
	commitNs int64 // atomic
}

func newCommitter(em *emitter, j *Journal, wake chan<- struct{}) *committer {
	c := &committer{em: em, j: j, stopped: make(chan struct{}), wake: wake}
	c.work.L = &c.mu
	c.done.L = &c.mu
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
// groups as maxCommitGroup allows). Called with the segment lock held,
// which is what guarantees queue order == this segment's commit order ==
// journal file order (global seqs are taken under the same lock, so the
// queue is seq-ascending too).
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
		max := maxCommitGroup
		if c.j.Mode == SyncAlways {
			// The contract of always is one durability cycle per record:
			// no batching, so the baseline really is fsync-per-update.
			max = 1
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
			if now := c.j.records.Load(); now/compactFloor != (now-int64(n))/compactFloor {
				select {
				case c.wake <- struct{}{}:
				default: // a wake-up is already pending
				}
			}
		}
		c.done.Broadcast()
		c.mu.Unlock()
	}
}

// writeGroup frames the group into the reused buffer and appends it to the
// journal with the mode's durability.
func (c *committer) writeGroup(batch []UpdateRecord) (int, error) {
	var err error
	c.bin = c.bin[:0]
	for i := range batch {
		if c.bin, err = appendRecord(&c.enc, c.bin, &batch[i]); err != nil {
			return 0, err
		}
	}
	if err := c.j.writeGroup(c.bin, len(batch)); err != nil {
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
			image: nd.attrs, OriginSeq: st.Seq, OriginNode: st.Node})
	}
	for _, s := range order {
		if err := s.commit.flush(); err != nil {
			return err
		}
	}
	var enc record.Encoder
	var bin []byte
	for _, s := range order {
		bin = bin[:0]
		var err error
		for i := range bySeg[s] {
			if bin, err = appendRecord(&enc, bin, &bySeg[s][i]); err != nil {
				return err
			}
		}
		if err := s.journal.writeGroup(bin, len(bySeg[s])); err != nil {
			s.commit.poison(err)
			return err
		}
	}
	return nil
}

// JournalSetConfig configures AttachJournalSet. Base is the path stem;
// segment i journals to <Base>.seg<i> and the layout manifest lives at
// <Base>.meta. Mode applies to every segment's pipeline.
type JournalSetConfig struct {
	Base string
	Mode SyncMode
}

func segJournalPath(base string, i int) string { return fmt.Sprintf("%s.seg%d", base, i) }

// journalManifest records the on-disk layout so attach can tell whether the
// existing files match the configured segment count. Other keys are
// ignored: builds up to PR 12 also wrote a "format" key (and, finding none,
// rewrite the set once at attach, which is harmless).
type journalManifest struct {
	Segments int `json:"segments"`
	// Entries holds each segment's live entry count at the time the
	// manifest was written (compaction, clean close, attach). It is a
	// presize hint only — attach allocates each empty segment map at this
	// capacity so replay never grows a map — and staleness is harmless.
	Entries []int `json:"entries,omitempty"`
}

// journalLayout reports the segment count the files at base were written
// under (0 = none yet), how many .segN files there are to replay — the
// highest N present, plus one, if that is more — and the manifest's presize
// hint. The manifest is the authority, and one that cannot be used is an
// error, never a guess: taking the configured count instead would replay
// only that many files and serve a fraction of the directory. With no
// manifest — a fresh directory, or a crash before the first attach got to
// write one — the count is what the .segN files present say. Files beyond
// a manifest's count are an unfinished re-fold's (see AttachJournalSet)
// and hold entries no other file may have.
func journalLayout(base string) (segments, files int, entries []int, err error) {
	b, err := os.ReadFile(base + ".meta")
	if err == nil {
		var m journalManifest
		if uerr := json.Unmarshal(b, &m); uerr != nil || m.Segments <= 0 {
			return 0, 0, nil, fmt.Errorf("directory: journal manifest %s.meta is unusable (segments=%d, %v): restore it, or remove it to have the .segN files counted instead",
				base, m.Segments, uerr)
		}
		segments, entries = m.Segments, m.Entries
	} else if !errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil, err
	}
	names, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("directory: listing journal segments: %w", err)
	}
	files = segments
	prefix := filepath.Base(base) + ".seg"
	for _, f := range names {
		if rest, ok := strings.CutPrefix(f.Name(), prefix); ok {
			if i, err := strconv.Atoi(rest); err == nil && i >= files {
				files = i + 1
			}
		}
	}
	if segments == 0 {
		segments = files
	}
	return segments, files, entries, nil
}

// replayStats captures one attach-time replay (see JournalStats).
type replayStats struct {
	Workers   int
	Records   uint64
	Bytes     uint64
	WallNs    int64
	SegmentNs []int64
}

// forEachIdx runs fn(i) for every i in [0, n), fanning out over up to
// workers goroutines (one, taking i in index order, when workers <= 1).
func forEachIdx(workers, n int, fn func(int)) {
	workers = max(1, min(workers, n))
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
// returns the total records replayed across files. Two on-disk layouts are
// accepted (see journalLayout for how the layout is told):
//
//   - Fresh or matching segment files: the files replay CONCURRENTLY, on
//     min(GOMAXPROCS, segments) workers — each file only ever touches its
//     own segment's entry map, so the only cross-segment work, the
//     parent/child link pass and the global sequence restore, runs after
//     every file has landed. Replay is linear in live entries after
//     compaction, since a compacted file is exactly one entry record per
//     live entry.
//   - Segment files written under a different segment count, or left by an
//     unfinished re-fold: replayed one at a time through the current router
//     (a DN's records are totally ordered within whichever single file held
//     them), then re-folded into the current layout — see refold.
//
// A file at Base itself — a journal from before segmentation — is refused.
// A set holding JSON-line records (written before the binary format
// existed) replays normally, the decoder telling the two apart per record,
// and is rewritten in the binary format by the same compaction sweep.
func (d *DIT) AttachJournalSet(cfg JournalSetConfig) (int, error) {
	for _, s := range d.segs {
		s.mu.RLock()
		attached := s.journal != nil
		s.mu.RUnlock()
		if attached {
			return 0, fmt.Errorf("directory: journal already attached")
		}
	}

	// No build since PR 12 reads the single-file layout, and starting an
	// empty directory next to one would hide live data and then diverge
	// from it — so refuse, before anything on disk is touched.
	if _, err := os.Stat(cfg.Base); err == nil {
		return 0, fmt.Errorf("directory: %s is a single-file journal from before segmentation, which this build does not migrate: start once with a build at or before PR 12 (it folds the file into %s.segN), then start this one",
			cfg.Base, cfg.Base)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	diskSegs, diskFiles, entriesHint, err := journalLayout(cfg.Base)
	if err != nil {
		return 0, err
	}
	// Files beyond the configured count (a larger previous layout) are
	// folded in too, and removed after the re-fold.
	nfiles := max(len(d.segs), diskFiles)
	refold := diskSegs != 0 && (diskSegs != len(d.segs) || diskFiles > diskSegs)

	// A crash mid-compaction leaves a .compact temporary; it is garbage
	// (the real journal was never replaced) and must not survive.
	for i := 0; i < nfiles; i++ {
		os.Remove(segJournalPath(cfg.Base, i) + ".compact")
	}

	replayStart := time.Now()
	rst := replayStats{Workers: 1, SegmentNs: make([]int64, nfiles)}
	if !refold {
		rst.Workers = min(runtime.GOMAXPROCS(0), len(d.segs))
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
	}
	res := make([]fileReplay, nfiles)
	forEachIdx(rst.Workers, nfiles, func(i int) {
		res[i] = d.replayFile(segJournalPath(cfg.Base, i))
	})
	migrate := refold
	maxSeq := uint64(0)
	for i := range res {
		if res[i].err != nil {
			return int(rst.Records), res[i].err
		}
		if res[i].torn {
			d.tornTails.Add(1)
		}
		migrate = migrate || res[i].json
		rst.Records += uint64(res[i].records)
		rst.Bytes += uint64(res[i].bytes)
		rst.SegmentNs[i] = res[i].ns
		maxSeq = max(maxSeq, res[i].maxSeq)
	}
	total := int(rst.Records)
	d.wireChildren(rst.Workers)
	rst.WallNs = time.Since(replayStart).Nanoseconds()
	d.replay.Store(&rst)

	// Advance the global sequence past everything replayed so future seqs
	// never collide with ones already on disk or streamed to replicas.
	seq := max(d.seq.Load()+rst.Records, maxSeq)
	d.seq.Store(seq)
	d.em.advanceTo(seq)
	// Records restored their own stamps into the clock above; raising it to
	// the commit seq too keeps fresh local writes above anything a
	// pre-replication journal (all-zero stamps) could have produced.
	d.bumpClock(seq)

	// Open and attach every segment's journal, and start the compactor its
	// committer wakes.
	wake := make(chan struct{}, 1)
	opened := make([]*Journal, 0, len(d.segs))
	for i, s := range d.segs {
		j, err := OpenJournal(segJournalPath(cfg.Base, i))
		if err != nil {
			for _, oj := range opened {
				oj.Close()
			}
			return total, err
		}
		j.Mode = cfg.Mode
		j.records.Store(int64(res[i].records))
		opened = append(opened, j)
		s.mu.Lock()
		s.journal = j
		s.commit = newCommitter(d.em, j, wake)
		s.mu.Unlock()
	}
	d.journalBase, d.compactWake = cfg.Base, wake
	go d.compactor(wake)

	if refold {
		if err := d.refold(diskSegs, nfiles); err != nil {
			return total, err
		}
	} else if migrate {
		// A set holding JSON-line records is rewritten, in place, in the
		// one format this build writes.
		if err := d.Compact(); err != nil {
			return total, err
		}
	}
	return total, d.writeManifest(len(d.segs))
}

// refold rewrites a set replayed from diskSegs segments in nfiles files
// into the current layout. The rewrite is in place, and rewriting a file
// drops the history of every entry that now routes to another file, so
// first every segment's state is appended to its own file as one durable
// group: a crash at any later point leaves each entry's records in files a
// replay reads, and whichever of them replays last, the entry ends in the
// state its appended record holds: nothing writes during an attach, so its
// older history ends there too. Until the surplus files are gone the manifest
// names the smaller layout and the larger one's files lie beyond it, so a
// restart under either count replays them all and re-folds again.
func (d *DIT) refold(diskSegs, nfiles int) error {
	if err := d.writeManifest(min(diskSegs, len(d.segs))); err != nil {
		return err
	}
	for _, s := range d.segs {
		if err := appendState(s, d.seq.Load()); err != nil {
			return err
		}
	}
	// One compaction sweep leaves every file exactly its segment's state,
	// in the one format this build writes; after it the surplus files of a
	// larger previous layout are dead weight.
	if err := d.Compact(); err != nil {
		return err
	}
	for i := len(d.segs); i < nfiles; i++ {
		if err := os.Remove(segJournalPath(d.journalBase, i)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// writeManifest persists the layout manifest naming segments segment files
// (tmp+rename so it is never torn). Naming the current layout, it also
// records each segment's live entry count, the presize hint the next
// attach uses. Refreshed at attach, after every full compaction, and at
// clean close so the hint tracks the population.
func (d *DIT) writeManifest(segments int) error {
	m := journalManifest{Segments: segments}
	if segments == len(d.segs) {
		m.Entries = make([]int, segments)
		for i, s := range d.segs {
			s.mu.RLock()
			m.Entries[i] = len(s.entries)
			s.mu.RUnlock()
		}
	}
	mb, _ := json.Marshal(m)
	path := d.journalBase + ".meta"
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

// CloseJournal waits out any running compaction, flushes every segment's
// commit pipeline, stops the committers, compacts every journal that holds
// more than its segment's live entries and tombstones, closes the journal
// files, detaches them, and ends the background compactor. Writers that
// race the close are rejected with unavailable before they mutate
// anything; everything staged before the close is written first. A DIT
// without journals returns nil.
func (d *DIT) CloseJournal() error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	if d.compactWake != nil {
		// Runs last: every committer is stopped by then, so none can send.
		defer close(d.compactWake)
		d.compactWake = nil
	}
	var firstErr error
	for _, s := range d.segs {
		s.mu.Lock()
		if s.journal == nil {
			s.mu.Unlock()
			continue
		}
		err := s.commit.flush()
		s.commit.stop()
		excess := s.journal.records.Load() > s.rewriteSize()
		s.mu.Unlock()
		// The stopped pipeline rejects writes, so the segment's state is
		// final: rewritten now, the file replays exactly that state.
		if err == nil && excess {
			err = d.compactSegment(s)
		}
		s.mu.Lock()
		if closeErr := s.journal.Close(); err == nil {
			err = closeErr
		}
		s.journal = nil
		s.commit = nil
		s.mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	// A clean close leaves the manifest's presize hint exact for the next
	// attach (entry counts drift between compactions while serving).
	if firstErr == nil && d.journalBase != "" {
		firstErr = d.writeManifest(len(d.segs))
	}
	return firstErr
}

// JournalStats snapshots the commit pipelines, aggregated across segments
// (zero when no journal is attached).
func (d *DIT) JournalStats() JournalStats {
	var out JournalStats
	if rs := d.replay.Load(); rs != nil {
		out.ReplayedRecords = rs.Records
		out.ReplayedBytes = rs.Bytes
		out.ReplayNs = rs.WallNs
		out.SegmentReplayNs = append([]int64(nil), rs.SegmentNs...)
	}
	for _, s := range d.segs {
		s.mu.RLock()
		c := s.commit
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

// fileReplay is what replaying one segment journal file found.
type fileReplay struct {
	records int
	bytes   int64  // consumed by complete records
	maxSeq  uint64 // highest commit seq seen
	torn    bool   // a torn final record was truncated
	json    bool   // the file holds JSON-line records
	ns      int64
	err     error
}

// replayFile applies all records from path (missing file = empty journal)
// through applyRelaxed. Each record's first byte says what it is — 0xB2 a
// binary frame, anything else a JSON line — so one file may mix the two
// (a JSON-era set appended to by this build before its migrating compaction
// finished). A torn final record — an incomplete frame, or undecodable
// bytes with nothing but emptiness after them; the signature of a crash
// mid-append — is truncated from the file and reported via torn; a damaged
// record followed by more data is real corruption and errors.
func (d *DIT) replayFile(path string) (fr fileReplay) {
	start := time.Now()
	defer func() { fr.ns = time.Since(start).Nanoseconds() }()
	f, err := os.Open(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			fr.err = err
		}
		return fr
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 256*1024)
	var dec record.Decoder
	var wrec record.Record
	var rec UpdateRecord
	for {
		first, err := r.Peek(1)
		if err != nil {
			if err != io.EOF {
				fr.err = err
			}
			return fr
		}
		var n int
		if first[0] == record.Marker {
			if n, err = dec.ReadRecord(r, &wrec); err == nil {
				rec.setWire(&wrec)
			}
		} else {
			fr.json = true
			n, err = readJSONRecord(r, &rec)
		}
		if err == record.ErrTorn {
			// Drop the torn tail so future appends start at a record
			// boundary instead of extending garbage.
			if terr := os.Truncate(path, fr.bytes); terr != nil {
				fr.err = fmt.Errorf("directory: truncating torn journal tail: %w", terr)
			}
			fr.torn = fr.err == nil
			return fr
		}
		if err != nil {
			fr.err = fmt.Errorf("directory: journal record %d: %w", fr.records+1, err)
			return fr
		}
		fr.bytes += int64(n)
		if rec.Op == "" {
			continue // blank line between JSON records
		}
		if err := d.applyRelaxed(rec); err != nil {
			fr.err = fmt.Errorf("directory: replaying record %d (%s %q): %w", fr.records+1, rec.Op, rec.DN, err)
			return fr
		}
		fr.records++
		fr.maxSeq = max(fr.maxSeq, rec.Seq)
	}
}

// readJSONRecord decodes one newline-delimited JSON record into rec and
// returns the line's length. No build writes this encoding any more — the
// decode is kept so that a set written before the binary format existed
// still attaches, once, and is rewritten. A blank line leaves rec.Op empty;
// an undecodable line with only whitespace after it is record.ErrTorn.
func readJSONRecord(r *bufio.Reader, rec *UpdateRecord) (int, error) {
	line, err := r.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return 0, err
	}
	*rec = UpdateRecord{}
	if len(bytes.TrimSpace(line)) == 0 {
		return len(line), nil
	}
	var j struct {
		Seq        uint64              `json:"seq"`
		Op         string              `json:"op"`
		DN         string              `json:"dn"`
		Attrs      map[string][]string `json:"attrs"`
		Changes    []UpdateChange      `json:"changes"`
		OriginSeq  uint64              `json:"oseq"`
		OriginNode uint32              `json:"onode"`
	}
	if err := json.Unmarshal(line, &j); err != nil {
		if rest, _ := io.ReadAll(r); len(bytes.TrimSpace(rest)) == 0 {
			return 0, record.ErrTorn
		}
		return 0, err
	}
	if j.Op == "" {
		return 0, fmt.Errorf("JSON record without an op")
	}
	*rec = UpdateRecord{Seq: j.Seq, Op: j.Op, DN: j.DN, Changes: j.Changes,
		OriginSeq: j.OriginSeq, OriginNode: j.OriginNode}
	if j.Op == "add" || j.Op == "entry" {
		rec.image = AttrsFrom(j.Attrs)
	}
	return len(line), nil
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
		a := rec.image
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
// replay, which installs entries without cross-segment linking. The
// rebuild runs as two barrier-separated passes over the segments, each
// fanned out over workers: phase A scans each segment, clears its nodes'
// child sets, and buckets every (parent, child) link by the PARENT's
// segment; phase B hands each parent segment exactly its own buckets — no
// two workers ever touch the same node, so the passes need no locking
// beyond the barrier between them (forEachIdx's WaitGroup).
func (d *DIT) wireChildren(workers int) {
	d.lockAll()
	defer d.unlockAll()
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
		// Consecutive entries overwhelmingly share a parent (the flat tree
		// hangs everything off the suffix), so routing (hash) and
		// same-segment node lookup run once per parent run, not per entry.
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
