package directory

import (
	"bufio"
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
	// Runs counts completed segment compactions; Skips counts auto-compact
	// ticks that found too little growth to bother.
	Runs  uint64
	Skips uint64
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
		Skips:           d.compactSkips.Load(),
		SplicedBytes:    d.compactSpliced.Load(),
		SnapshotEntries: d.compactEntries.Load(),
		LastNs:          d.compactLastNs.Load(),
	}
}

// Compact rewrites every segment's journal to hold exactly the live state,
// one segment at a time — the directory stays online throughout (see the
// package comment above; there is no global pause). Serialized with
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
		return d.writeManifest()
	}
	return nil
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
	var off int64
	off, err := j.size()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	snap := make([]snapEnt, 0, len(s.entries))
	for k, n := range s.entries {
		snap = append(snap, snapEnt{dn: n.dn, key: k, attrs: n.attrs, stamp: n.stamp})
	}
	// Tombstones survive compaction too (as trailing stamped delete
	// records) — without them a restarted node would forget its deletes
	// and let stale remote upserts resurrect entries.
	live := len(snap)
	for k, ts := range s.tombstones {
		snap = append(snap, snapEnt{key: k, stamp: ts})
	}
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
	w := bufio.NewWriterSize(f, 256<<10)
	// The rewrite is also how a set of JSON-line records becomes binary:
	// whatever the file held, the snapshot is written as frames.
	var enc record.Encoder
	var bin []byte
	var rec record.Record
	for i := range snap {
		snap[i].record(&rec)
		bin, err = enc.AppendRecord(bin[:0], &rec)
		if err != nil {
			f.Close()
			return err
		}
		if _, err := w.Write(bin); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if compactHook != nil {
		if err := compactHook("tmp-written", s.id); err != nil {
			f.Close()
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
		f.Close()
		return fmt.Errorf("directory: journal closed")
	}
	if err := j.w.Flush(); err != nil {
		f.Close()
		return err
	}
	src, err := os.Open(j.path)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := src.Seek(off, io.SeekStart); err != nil {
		src.Close()
		f.Close()
		return err
	}
	spliced, err := io.Copy(w, src)
	src.Close()
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	if compactHook != nil {
		if err := compactHook("mid-splice", s.id); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
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
	if dirf, derr := os.Open(filepath.Dir(j.path)); derr == nil {
		dirf.Sync()
		dirf.Close()
	}
	if st, serr := nf.Stat(); serr == nil {
		s.sizeAfterCompact = st.Size()
	}

	d.compactRuns.Add(1)
	d.compactSpliced.Add(uint64(spliced))
	d.compactEntries.Add(uint64(live))
	d.compactLastNs.Store(time.Since(start).Nanoseconds())
	return nil
}

// autoCompactMinGrowth is how many bytes a segment's journal must have
// grown since its last compaction before the background sweep bothers
// rewriting it.
const autoCompactMinGrowth = 256 << 10

// StartAutoCompact starts the background compactor: every interval it
// visits one segment (round-robin) and compacts it if its journal grew by
// at least autoCompactMinGrowth since last time. One goroutine, one
// segment per tick — compaction cost is spread evenly instead of arriving
// as one big pause. No-op if already running or interval <= 0.
func (d *DIT) StartAutoCompact(interval time.Duration) {
	if interval <= 0 {
		return
	}
	d.autoMu.Lock()
	defer d.autoMu.Unlock()
	if d.autoStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	d.autoStop, d.autoDone = stop, done
	go d.autoCompactLoop(interval, stop, done)
}

func (d *DIT) autoCompactLoop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		d.compactMu.Lock()
		s := d.segs[d.autoNext%len(d.segs)]
		d.autoNext++
		s.mu.RLock()
		j := s.journal
		s.mu.RUnlock()
		grown := false
		if j != nil {
			if sz, err := j.size(); err == nil && sz-s.sizeAfterCompact >= autoCompactMinGrowth {
				grown = true
			}
		}
		if grown {
			// An I/O failure here poisons the pipeline and surfaces to
			// writers; the sweep itself just moves on.
			if d.compactSegment(s) == nil && d.journalBase != "" {
				_ = d.writeManifest()
			}
		} else {
			d.compactSkips.Add(1)
		}
		d.compactMu.Unlock()
	}
}

// stopAutoCompact stops the background compactor and waits for it to
// finish its current sweep. Idempotent.
func (d *DIT) stopAutoCompact() {
	d.autoMu.Lock()
	stop, done := d.autoStop, d.autoDone
	d.autoStop, d.autoDone = nil, nil
	d.autoMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
