package directory

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"metacomm/internal/record"
)

// Incremental, online compaction. A journal grows with every update; a
// million-entry directory restarted after months of traffic would replay
// history instead of state. Compaction rewrites a journal as one "entry"
// record per live entry, making replay linear in live entries.
//
// The old implementation held the whole directory locked for the rewrite —
// a stop-the-world pause proportional to population. The segmented DIT
// compacts ONE SEGMENT AT A TIME, and each segment compaction touches its
// segment lock only long enough to snapshot (DN, *Attrs) headers
// copy-on-write:
//
//	phase 1 (segment lock): quiesce the pipeline, record the journal's
//	        size as the splice offset, collect entry headers. No I/O.
//	phase 2 (no locks):     write the snapshot to <journal>.compact.
//	        Writers proceed normally; their records land after the
//	        recorded offset.
//	phase 3 (journal mutex): splice journal[offset:] — every record that
//	        committed during phase 2 — onto the temp file, fsync, rename
//	        over the journal, reopen. Writers to the segment block only
//	        on the physical append for the splice's duration, which is
//	        proportional to the delta, not the population.
//
// Crash safety: the journal file itself is only replaced by the atomic
// rename, after the temp file is fsynced. A crash before the rename leaves
// the original journal untouched plus a dead .compact temp that attach
// removes; a crash after it leaves the compacted journal, whose replay is
// state-equivalent. Acked writes survive either way.
//
// Compaction is not scheduled: a segment is rewritten while serving once
// its file is overgrown (see overgrown), by the DIT's one background
// compactor, and at CloseJournal whenever its file holds anything beyond
// its state.

// compactHook, when set (crash-injection tests), runs at the named stage
// of a segment compaction; returning an error aborts exactly as an I/O
// failure at that point would. Stages: "tmp-written" (snapshot written,
// nothing spliced or renamed), "mid-splice" (delta records copied to the
// temp file, original journal still in place), "pre-rename" (temp file
// fsynced and closed, original journal still the live file — the last
// instant a crash loses only the temp).
var compactHook func(stage string, seg int) error

// CompactionStats is a point-in-time snapshot of background/foreground
// compaction activity.
type CompactionStats struct {
	// Runs counts completed segment compactions.
	Runs uint64
	// SplicedBytes totals the live-traffic bytes spliced onto rewritten
	// journals (phase 3 work); SnapshotEntries totals entries written into
	// compacted snapshots (phase 2 work).
	SplicedBytes    uint64
	SnapshotEntries uint64
	// LastNs is the wall time of the most recent segment compaction.
	LastNs int64
}

// CompactionStats reports compaction counters.
func (d *DIT) CompactionStats() CompactionStats {
	return CompactionStats{
		Runs:            d.compactRuns.Load(),
		SplicedBytes:    d.compactSpliced.Load(),
		SnapshotEntries: d.compactEntries.Load(),
		LastNs:          d.compactLastNs.Load(),
	}
}

// Compact rewrites every segment's journal to hold exactly the live state,
// one segment at a time — the directory stays online throughout (see the
// file comment above; there is no global pause). Serialized with
// background compaction and CloseJournal.
func (d *DIT) Compact() error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	for _, s := range d.segs {
		if err := d.compactSegment(s); err != nil {
			return err
		}
	}
	// Refresh the manifest's entry-count hint — after a full sweep every
	// file is exactly one record per live entry, so the counts are exact.
	if d.journalBase != "" {
		return d.writeManifest(len(d.segs))
	}
	return nil
}

// snapshot collects the headers of s's live state — every entry, then every
// tombstone — and how many of them are entries. Caller holds s.mu.
func (s *segment) snapshot() (snap []snapEnt, live int) {
	snap = make([]snapEnt, 0, len(s.entries)+len(s.tombstones))
	for k, n := range s.entries {
		snap = append(snap, snapEnt{dn: n.dn, key: k, attrs: n.attrs, stamp: n.stamp})
	}
	// Tombstones are state too (as stamped delete records) — without them a
	// restarted node would forget its deletes and let stale remote upserts
	// resurrect entries.
	for k, ts := range s.tombstones {
		snap = append(snap, snapEnt{key: k, stamp: ts})
	}
	return snap, len(s.entries)
}

// writeSnapshot frames snap to w, every record carrying seq: replay restores
// the commit seq from the highest one on disk, and a snapshot must not hide
// how far the sequence had got. Whatever the file held before — JSON-line
// records included — the snapshot is written as binary frames.
func writeSnapshot(w io.Writer, snap []snapEnt, seq uint64) error {
	var enc record.Encoder
	var bin []byte
	var rec record.Record
	for i := range snap {
		snap[i].record(&rec)
		rec.Seq = seq
		var err error
		if bin, err = enc.AppendRecord(bin[:0], &rec); err != nil {
			return err
		}
		if _, err := w.Write(bin); err != nil {
			return err
		}
	}
	return nil
}

// appendState appends s's live state, as of commit seq, to its journal as
// one group, as durable as the journal's mode makes any group — the first
// half of a re-fold. Nothing else writes to the journal during an attach.
func appendState(s *segment, seq uint64) error {
	s.mu.RLock()
	snap, _ := s.snapshot()
	s.mu.RUnlock()
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, snap, seq); err != nil {
		return err
	}
	return s.journal.writeGroup(buf.Bytes(), len(snap))
}

// compactSegment rewrites one segment's journal online. Caller holds
// d.compactMu (one compaction at a time).
func (d *DIT) compactSegment(s *segment) error {
	start := time.Now()

	// Phase 1 — under the segment write lock: quiesce this segment's
	// pipeline so every acked record is physically in the file, record the
	// file size as the splice offset, and snapshot entry headers. The
	// attribute values are copy-on-write (an installed *Attrs is never
	// mutated), so the snapshot is a slice of (DN, key, pointer) triples.
	s.mu.Lock()
	j := s.journal
	if j == nil {
		s.mu.Unlock()
		return fmt.Errorf("directory: no journal attached")
	}
	if err := s.commit.flush(); err != nil {
		s.mu.Unlock()
		return err
	}
	off, err := j.size()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// The snapshot holds every write of this segment up to the global
	// commit seq (seqs are taken under the segment lock), so its records
	// carry that seq.
	cut, before := d.seq.Load(), j.records.Load()
	snap, live := s.snapshot()
	s.mu.Unlock()

	// Parents before children within the segment, tombstones last — replay
	// does not need it (relaxed replay is entry-local), but humans reading
	// a journal do.
	sort.Slice(snap, func(i, j int) bool {
		if ti, tj := snap[i].attrs == nil, snap[j].attrs == nil; ti != tj {
			return tj
		}
		if di, dj := snap[i].dn.Depth(), snap[j].dn.Depth(); di != dj {
			return di < dj
		}
		return snap[i].key < snap[j].key
	})

	// Phase 2 — no locks held: write the snapshot to the temp file.
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // on the failure paths; a no-op after the Close below
	w := bufio.NewWriterSize(f, 256<<10)
	if err := writeSnapshot(w, snap, cut); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if compactHook != nil {
		if err := compactHook("tmp-written", s.id); err != nil {
			return err
		}
	}

	// Phase 3 — under the journal mutex only: append journal[off:] (every
	// record committed since phase 1) to the temp file, then atomically
	// swap it in. Writers keep mutating the segment and staging records;
	// only the committer's physical append waits here.
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("directory: journal closed")
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	src, err := os.Open(j.path)
	if err != nil {
		return err
	}
	defer src.Close()
	if _, err := src.Seek(off, io.SeekStart); err != nil {
		return err
	}
	spliced, err := io.Copy(w, src)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		return err
	}
	if compactHook != nil {
		if err := compactHook("mid-splice", s.id); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if compactHook != nil {
		if err := compactHook("pre-rename", s.id); err != nil {
			return err
		}
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return err
	}
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = nf
	j.w = bufio.NewWriter(nf)
	// The file is the snapshot plus the records spliced from past phase 1.
	j.records.Store(int64(len(snap)) + j.records.Load() - before)
	if dirf, derr := os.Open(filepath.Dir(j.path)); derr == nil {
		dirf.Sync()
		dirf.Close()
	}

	d.compactRuns.Add(1)
	d.compactSpliced.Add(uint64(spliced))
	d.compactEntries.Add(uint64(live))
	d.compactLastNs.Store(time.Since(start).Nanoseconds())
	return nil
}

// compactFloor is the serving trigger's step: a committer wakes the
// compactor each time its file's record count passes a multiple of it, and
// no file under it is rewritten while serving — small segments are not
// rewritten for a handful of records.
const compactFloor = 1024

// overgrown reports whether a journal file of records records is worth
// rewriting while serving, given that the rewrite would write rewrite
// records (the segment's live entries plus tombstones): it holds at least
// compactFloor and at least twice that. Checked at every multiple of
// compactFloor, a file therefore holds fewer than 2×rewrite + compactFloor
// records once the compactor has caught up (unless tombstone pruning shrank
// the state since the last check). A fresh rewrite holds exactly rewrite
// records, so compaction never retriggers itself, and a journal that is one
// record per entry — any seeded population — is never rewritten.
func overgrown(records, rewrite int64) bool {
	return records >= compactFloor && records >= 2*rewrite
}

// rewriteSize is how many records compacting s would write. Caller holds
// s.mu.
func (s *segment) rewriteSize() int64 { return int64(len(s.entries) + len(s.tombstones)) }

// compactor rewrites every overgrown segment each time a committer wakes
// it, until the wake channel is closed.
func (d *DIT) compactor(wake <-chan struct{}) {
	// retry[i] is the record count below which segment i, whose last
	// rewrite failed, is not tried again: every wake-up, other segments'
	// included, would retry an O(live) snapshot otherwise.
	retry := make([]int64, len(d.segs))
	for range wake {
		d.compactMu.Lock()
		for i, s := range d.segs {
			s.mu.RLock()
			j, rewrite := s.journal, s.rewriteSize()
			s.mu.RUnlock()
			if j == nil || !overgrown(j.records.Load(), rewrite) || j.records.Load() < retry[i] {
				continue
			}
			// A failure that cost the journal its file poisons the pipeline
			// and surfaces to writers; any other leaves the file as it was,
			// to be retried once it has grown by another compactFloor.
			retry[i] = 0
			if err := d.compactSegment(s); err != nil {
				retry[i] = j.records.Load() + compactFloor
			}
		}
		d.compactMu.Unlock()
	}
}
