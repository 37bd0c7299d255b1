package directory

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
)

// segmentedDIT builds an n-segment DIT journaled at base (group commit).
func segmentedDIT(t *testing.T, base string, n int) *DIT {
	t.Helper()
	d := NewSegmented(nil, n)
	if _, err := d.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncGroup}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.CloseJournal() })
	return d
}

// reopenSet replays the journal set into a fresh n-segment DIT.
func reopenSet(t *testing.T, base string, n int) *DIT {
	t.Helper()
	d := NewSegmented(nil, n)
	if _, err := d.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncGroup}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.CloseJournal() })
	return d
}

// seedOrg populates a two-level tree wide enough to land entries in every
// segment of an 8-way DIT.
func seedOrg(t *testing.T, d *DIT, people int) {
	t.Helper()
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})
	for i := 0; i < people; i++ {
		mustAddP(t, d, fmt.Sprintf("cn=p%d,o=Lucent", i), map[string][]string{
			"objectClass": {"person"}, "cn": {fmt.Sprintf("p%d", i)},
			"telephoneNumber": {fmt.Sprintf("555-%04d", i)}})
	}
}

func TestSegmentedBasicOps(t *testing.T) {
	d := NewSegmented(nil, 8)
	seedOrg(t, d, 64)
	if d.Len() != 65 {
		t.Fatalf("Len = %d, want 65", d.Len())
	}
	st := d.Stats()
	if st.Segments != 8 || st.Entries != 65 {
		t.Fatalf("stats = %+v", st)
	}
	spread := 0
	for _, n := range st.SegmentEntries {
		if n > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("entries not spread across segments: %v", st.SegmentEntries)
	}

	if err := d.Modify(dn.MustParse("cn=p3,o=Lucent"), []ldap.Change{
		{Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"9"}}}}); err != nil {
		t.Fatal(err)
	}
	e, err := d.Get(dn.MustParse("cn=p3,o=Lucent"))
	if err != nil || e.Attrs.First("roomNumber") != "9" {
		t.Fatalf("get after modify: %v %v", err, e.Attrs.Map())
	}
	if err := d.Delete(dn.MustParse("cn=p4,o=Lucent")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Search(dn.MustParse("o=Lucent"), ldap.ScopeSingleLevel, nil, 0)
	if err != nil || len(got) != 63 {
		t.Fatalf("one-level search: %v, %d entries (want 63)", err, len(got))
	}
	// Rename crossing segments: the whole subtree re-routes to new keys.
	mustAddP(t, d, "ou=Eng,o=Lucent", map[string][]string{"ou": {"Eng"}})
	mustAddP(t, d, "cn=sub,ou=Eng,o=Lucent", map[string][]string{"cn": {"sub"}})
	if err := d.ModifyDN(dn.MustParse("ou=Eng,o=Lucent"), dn.RDN{{Attr: "ou", Value: "Engineering"}}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(dn.MustParse("cn=sub,ou=Engineering,o=Lucent")); err != nil {
		t.Fatalf("subtree entry after rename: %v", err)
	}
	if _, err := d.Get(dn.MustParse("ou=Eng,o=Lucent")); err == nil {
		t.Fatal("old DN still resolves after rename")
	}
}

// TestSegmentedJournalReplay replays a set as a crash leaves it, as written
// and compacted: the tree comes back, the commit seq does not go backwards,
// and a cursor taken before the restart resumes with every record committed
// since — or is refused — never silently skipping writes.
func TestSegmentedJournalReplay(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) { segmentedJournalReplay(t, compact) })
	}
}

func segmentedJournalReplay(t *testing.T, compact bool) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 8)
	seedOrg(t, d, 40)
	if err := d.Modify(dn.MustParse("cn=p1,o=Lucent"), []ldap.Change{
		{Op: ldap.ModAdd, Attribute: ldap.Attribute{Type: "mail", Values: []string{"p1@x"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(dn.MustParse("cn=p2,o=Lucent")); err != nil {
		t.Fatal(err)
	}
	mustAddP(t, d, "ou=Eng,o=Lucent", map[string][]string{"ou": {"Eng"}})
	mustAddP(t, d, "cn=dev,ou=Eng,o=Lucent", map[string][]string{"cn": {"dev"}})
	if err := d.ModifyDN(dn.MustParse("ou=Eng,o=Lucent"), dn.RDN{{Attr: "ou", Value: "R&D"}}, true); err != nil {
		t.Fatal(err)
	}
	// History well beyond the live state, so a compacted set is far shorter
	// than the sequence it ends.
	for i := 0; i < 200; i++ {
		modifyRoom(t, d, "cn=p3,o=Lucent", i)
	}
	if compact {
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	cursor := d.Seq()

	restored := reopenSet(t, base, 8)
	sameState(t, d, restored)
	if restored.Seq() < cursor {
		t.Fatalf("restored seq %d < live seq %d", restored.Seq(), cursor)
	}
	// The restored tree must be structurally sound: children links let the
	// renamed subtree entry be deleted leaf-first.
	if err := restored.Delete(dn.MustParse("ou=R&D,o=Lucent")); err == nil {
		t.Fatal("deleted non-leaf after replay: children links missing")
	}
	if err := restored.Delete(dn.MustParse("cn=dev,ou=R&D,o=Lucent")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		modifyRoom(t, restored, "cn=p3,o=Lucent", i)
	}
	if backlog, _, cancel, ok := restored.SubscribeFrom(cursor, 0); ok {
		cancel()
		if want := restored.Seq() - cursor; uint64(len(backlog)) != want {
			t.Fatalf("resume from pre-restart cursor %d: %d records, want %d", cursor, len(backlog), want)
		}
	}
}

// modifyRoom replaces name's roomNumber with a value derived from i.
func modifyRoom(t *testing.T, d *DIT, name string, i int) {
	t.Helper()
	if err := d.Modify(dn.MustParse(name), []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{fmt.Sprintf("R-%d", i)}}}}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentCountChangeReplay(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 8)
	seedOrg(t, d, 30)
	d.CloseJournal()

	// Shrink: 8 -> 3. The higher-numbered files must be folded in and gone.
	d3 := reopenSet(t, base, 3)
	sameState(t, d, d3)
	for i := 3; i < 8; i++ {
		if _, err := os.Stat(segJournalPath(base, i)); err == nil {
			t.Errorf("stale segment file %d survived migration", i)
		}
	}
	mustAddP(t, d3, "cn=extra,o=Lucent", map[string][]string{"cn": {"extra"}})
	d3.CloseJournal()

	// Grow: 3 -> 5.
	d5 := reopenSet(t, base, 5)
	if d5.Len() != d.Len()+1 {
		t.Fatalf("after regrow Len = %d, want %d", d5.Len(), d.Len()+1)
	}
	if _, err := d5.Get(dn.MustParse("cn=extra,o=Lucent")); err != nil {
		t.Fatal(err)
	}
}

// sixteenToEight writes 201 entries under 16 segments, damages the manifest
// as told, and reattaches under 8: every entry must come back (re-folded,
// the surplus files gone) or the attach must fail — never a quiet subset.
func sixteenToEight(t *testing.T, damage func(manifest string)) (*DIT, *DIT, string, error) {
	t.Helper()
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 16)
	seedOrg(t, d, 200)
	d.CloseJournal()
	damage(base + ".meta")
	d8 := NewSegmented(nil, 8)
	_, err := d8.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncGroup})
	t.Cleanup(func() { d8.CloseJournal() })
	return d, d8, base, err
}

func TestMissingManifestCountsSegmentFiles(t *testing.T) {
	d, d8, base, err := sixteenToEight(t, func(m string) { os.Remove(m) })
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, d, d8)
	for i := 8; i < 16; i++ {
		if _, err := os.Stat(segJournalPath(base, i)); err == nil {
			t.Errorf("stale segment file %d survived the re-fold", i)
		}
	}
	d8.CloseJournal()
	sameState(t, d, reopenSet(t, base, 8))
}

func TestCorruptManifestRefused(t *testing.T) {
	_, d8, base, err := sixteenToEight(t, func(m string) { os.WriteFile(m, []byte("{\"segments\":1"), 0o644) })
	if err == nil || !strings.Contains(err.Error(), base+".meta") {
		t.Fatalf("attach over an unparseable manifest: err = %v, serving %d entries", err, d8.Len())
	}
	if _, err := os.Stat(segJournalPath(base, 15)); err != nil {
		t.Fatalf("refused attach removed a segment file: %v", err)
	}
}

// TestRefoldLeftoversRemoved: a crash between a re-fold's compaction sweep
// and its removal of the surplus files leaves .seg8–.seg15 beside an
// 8-segment manifest. The restart must fold them in and remove them: kept
// past more writes, they would turn stale, and a later re-fold would replay
// them over current state.
func TestRefoldLeftoversRemoved(t *testing.T) {
	surplus := map[int][]byte{}
	_, refolded, base, err := sixteenToEight(t, func(m string) {
		for i := 8; i < 16; i++ {
			b, err := os.ReadFile(segJournalPath(strings.TrimSuffix(m, ".meta"), i))
			if err != nil {
				t.Fatal(err)
			}
			surplus[i] = b
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	refolded.CloseJournal()
	for i, b := range surplus {
		if err := os.WriteFile(segJournalPath(base, i), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d8 := reopenSet(t, base, 8)
	sameState(t, refolded, d8)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("cn=p%d,o=Lucent", i)
		if i%2 == 0 {
			if err := d8.Delete(dn.MustParse(name)); err != nil {
				t.Fatal(err)
			}
		} else {
			modifyRoom(t, d8, name, i)
		}
	}
	if err := d8.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	sameState(t, d8, reopenSet(t, base, 16))
}

// TestRefoldCrash copies the journal set as a crash in a re-fold leaves it
// — at every segment rewrite's last instant before its rename, and after the
// sweep with the surplus files not yet removed and the manifest not yet
// naming the new count — and requires each copy to attach with every entry,
// under the old segment count and under the new. A re-fold rewrites files in
// place, so no rewrite may drop the only copy of an entry that now routes to
// another file.
func TestRefoldCrash(t *testing.T) {
	for _, c := range [][2]int{{8, 16}, {16, 8}, {8, 3}} {
		t.Run(fmt.Sprintf("%d-to-%d", c[0], c[1]), func(t *testing.T) { refoldCrash(t, c[0], c[1]) })
	}
}

func refoldCrash(t *testing.T, from, to int) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, from)
	seedOrg(t, d, 200)
	for i := 0; i < 200; i += 4 {
		if err := d.Delete(dn.MustParse(fmt.Sprintf("cn=p%d,o=Lucent", i))); err != nil {
			t.Fatal(err)
		}
		modifyRoom(t, d, fmt.Sprintf("cn=p%d,o=Lucent", i+1), i)
	}
	if err := d.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	before := copySet(t, base)

	var crashes []string
	compactHook = func(stage string, seg int) error {
		if stage == "pre-rename" {
			crashes = append(crashes, copySet(t, base))
		}
		return nil
	}
	defer func() { compactHook = nil }()
	sameState(t, d, reopenSet(t, base, to))
	compactHook = nil
	if len(crashes) < to {
		t.Fatalf("the re-fold rewrote %d segments, want %d", len(crashes), to)
	}

	swept := copySet(t, base)
	for i := to; i < from; i++ {
		b, err := os.ReadFile(segJournalPath(before, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segJournalPath(swept, i), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(swept+".meta", []byte(fmt.Sprintf("{\"segments\":%d}\n", min(from, to))), 0o644); err != nil {
		t.Fatal(err)
	}

	for i, crash := range append(crashes, swept) {
		for _, n := range []int{from, to} {
			t.Run(fmt.Sprintf("crash%d-under%d", i, n), func(t *testing.T) {
				restart := copySet(t, crash)
				sameState(t, d, reopenSet(t, restart, n))
				checkRouted(t, restart, n)
			})
		}
	}
}

// checkRouted asserts every record of the n-segment set at base lies in the
// file its DN routes to, which is what lets an attach replay the files
// concurrently: a copy left in another file would race the entry's later
// history there.
func checkRouted(t *testing.T, base string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		probe := NewSegmented(nil, n)
		if fr := probe.replayFile(segJournalPath(base, i)); fr.err != nil {
			t.Fatal(fr.err)
		}
		for j, s := range probe.segs {
			if j != i && len(s.entries)+len(s.tombstones) > 0 {
				t.Fatalf("segment file %d holds records of segment %d", i, j)
			}
		}
	}
}

// TestMissingManifestMatchingCount: a crash before the first manifest write
// leaves segment files and no manifest; the same configuration must attach.
func TestMissingManifestMatchingCount(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 4)
	seedOrg(t, d, 30)
	d.CloseJournal()
	if err := os.Remove(base + ".meta"); err != nil {
		t.Fatal(err)
	}
	restored := reopenSet(t, base, 4)
	sameState(t, d, restored)
	if cs := restored.CompactionStats(); cs.Runs != 0 {
		t.Fatalf("matching layout was re-folded: %d compaction runs", cs.Runs)
	}
}

// TestSegmentedChangelogTotalOrder drives concurrent writers across segments
// and asserts subscribers observe one gap-free ascending seq stream even
// though per-segment pipelines complete out of order.
func TestSegmentedChangelogTotalOrder(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 8)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})

	snap, seq, changes, cancel := d.SnapshotAndSubscribeSeq(8192)
	defer cancel()
	if len(snap) != 1 || seq != d.Seq() {
		t.Fatalf("snapshot %d entries at seq %d (dit seq %d)", len(snap), seq, d.Seq())
	}

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("cn=w%d-%d,o=Lucent", w, i)
				if err := d.Add(dn.MustParse(name), AttrsFrom(map[string][]string{"cn": {name}})); err != nil {
					t.Errorf("add %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	want := seq
	for i := 0; i < writers*perWriter; i++ {
		select {
		case rec := <-changes:
			want++
			if rec.Seq != want {
				t.Fatalf("changelog gap: got seq %d, want %d", rec.Seq, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("changelog stalled after %d records", i)
		}
	}
}

func TestRangeStreamsEveryEntry(t *testing.T) {
	d := NewSegmented(nil, 8)
	seedOrg(t, d, 50)
	seen := map[string]bool{}
	d.Range(func(e Entry) bool {
		seen[e.DN.Normalize()] = true
		return true
	})
	if len(seen) != 51 {
		t.Fatalf("Range visited %d entries, want 51", len(seen))
	}
	n := 0
	d.Range(func(Entry) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d, want 10", n)
	}
}

// TestIncrementalCompactUnderLoad runs compaction sweeps against concurrent
// writers and asserts no write is ever rejected and no acked write is lost.
func TestIncrementalCompactUnderLoad(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 4)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})

	stop := make(chan struct{})
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("cn=c%d-%d,o=Lucent", w, i)
				if err := d.Add(dn.MustParse(name), AttrsFrom(map[string][]string{"cn": {name}})); err != nil {
					rejected.Add(1)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 6; i++ {
		if err := d.Compact(); err != nil {
			t.Errorf("compact sweep %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if rejected.Load() != 0 {
		t.Fatalf("%d writes rejected during online compaction", rejected.Load())
	}
	if d.CompactionStats().Runs == 0 {
		t.Fatal("no compaction runs recorded")
	}
	d.CloseJournal()
	restored := reopenSet(t, base, 4)
	sameState(t, d, restored)
}

// compactCrash aborts one segment compaction at the given stage — started
// by Compact, by the serving trigger, and by CloseJournal — keeps writing
// acked updates, and asserts replay restores every one of them.
func compactCrash(t *testing.T, stage string) {
	for _, trigger := range []string{"Compact", "serving", "close"} {
		t.Run(trigger, func(t *testing.T) { compactCrashBy(t, stage, trigger) })
	}
}

func compactCrashBy(t *testing.T, stage, trigger string) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 2)
	seedOrg(t, d, 20)

	// Hook calls are serialized by compactMu; fired is closed on the first.
	fired := make(chan struct{})
	injected := false
	compactHook = func(s string, seg int) error {
		if s == stage && !injected {
			injected = true
			close(fired)
			return fmt.Errorf("injected crash at %s", s)
		}
		return nil
	}
	defer func() { compactHook = nil }()

	switch trigger {
	case "Compact":
		if err := d.Compact(); err == nil {
			t.Fatal("compact did not surface the injected crash")
		}
		// The aborted rewrite leaves a .compact temp behind, like a real crash.
		tmps := 0
		for i := 0; i < 2; i++ {
			if _, err := os.Stat(segJournalPath(base, i) + ".compact"); err == nil {
				tmps++
			}
		}
		if tmps == 0 {
			t.Fatal("no .compact temp left after aborted compaction")
		}
	case "serving":
		for i := 0; i < compactFloor+32; i++ {
			modifyRoom(t, d, "cn=p5,o=Lucent", i)
		}
		select {
		case <-fired:
		case <-time.After(10 * time.Second):
			t.Fatal("an overgrown journal never woke the compactor")
		}
	}

	// The directory keeps serving acked writes after the failed compaction.
	mustAddP(t, d, "cn=after-crash,o=Lucent", map[string][]string{"cn": {"after-crash"}})
	modifyRoom(t, d, "cn=p5,o=Lucent", 7)
	if err := d.CloseJournal(); trigger == "close" && err == nil {
		t.Fatal("CloseJournal did not surface the injected crash")
	}
	compactHook = nil
	select {
	case <-fired:
	default:
		t.Fatal("hook never fired")
	}

	restored := reopenSet(t, base, 2)
	sameState(t, d, restored)
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(segJournalPath(base, i) + ".compact"); err == nil {
			t.Errorf("stale .compact temp for segment %d survived attach", i)
		}
	}
}

func TestCompactCrashAtTmpWritten(t *testing.T) { compactCrash(t, "tmp-written") }
func TestCompactCrashMidSplice(t *testing.T)    { compactCrash(t, "mid-splice") }

// TestAutoCompactLifecycle: AttachJournalSet starts the compactor, history
// past the threshold wakes it, CloseJournal stops it (twice is harmless),
// and a detached DIT's writes wake nothing.
func TestAutoCompactLifecycle(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 2)
	seedOrg(t, d, 10)
	renamed := make(chan struct{}, 1)
	compactHook = func(stage string, seg int) error {
		if stage == "pre-rename" {
			select {
			case renamed <- struct{}{}:
			default:
			}
		}
		return nil
	}
	defer func() { compactHook = nil }()
	if d.CompactionStats().Runs != 0 {
		t.Fatal("a seeded journal was compacted")
	}
	for i := 0; i < compactFloor+32; i++ {
		modifyRoom(t, d, "cn=p1,o=Lucent", i)
	}
	select {
	case <-renamed:
	case <-time.After(10 * time.Second):
		t.Fatal("an overgrown journal never woke the compactor")
	}
	for i := 0; i < 2; i++ {
		if err := d.CloseJournal(); err != nil {
			t.Fatal(err)
		}
	}
	runs := d.CompactionStats().Runs
	for i := 0; i < compactFloor+32; i++ {
		modifyRoom(t, d, "cn=p1,o=Lucent", i)
	}
	if got := d.CompactionStats().Runs; got != runs {
		t.Fatalf("%d compactions after CloseJournal", got-runs)
	}
}

// TestServingCompactionFailureBacksOff: a rewrite that keeps failing is
// tried again once per compactFloor records its file gains, not on every
// wake-up the other segment's traffic causes.
func TestServingCompactionFailureBacksOff(t *testing.T) {
	d := segmentedDIT(t, filepath.Join(t.TempDir(), "dir.journal"), 2)
	seedOrg(t, d, 10)
	var tries [2]atomic.Int64
	compactHook = func(stage string, seg int) error {
		if stage != "tmp-written" {
			return nil
		}
		tries[seg].Add(1)
		return fmt.Errorf("injected failure")
	}
	defer func() { compactHook = nil }()
	var names [2]string
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("cn=p%d,o=Lucent", i)
		names[d.segIndex(dn.MustParse(name).Normalize())] = name
	}
	const rounds = 4 * compactFloor
	for i := 0; i < rounds; i++ {
		modifyRoom(t, d, names[0], i)
		modifyRoom(t, d, names[1], i)
	}
	// Between the compactor's passes, and with no failures left to inject.
	d.compactMu.Lock()
	compactHook = nil
	d.compactMu.Unlock()
	for seg := range tries {
		if n := tries[seg].Load(); n == 0 || n > rounds/compactFloor+1 {
			t.Fatalf("segment %d: %d rewrites tried for %d records", seg, n, rounds)
		}
	}
}

// TestJournalBoundedByState writes twenty times the population in modifies
// and never calls Compact: every file stays under the serving trigger's
// bound, and after a clean close the set replays exactly one record per
// live entry and tombstone.
func TestJournalBoundedByState(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := NewSegmented(nil, 8)
	if _, err := d.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncNone}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.CloseJournal() })
	const people, modifies, writers = 2000, 40000, 8
	seedOrg(t, d, people-1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < modifies; i += writers {
				if err := d.Modify(dn.MustParse(fmt.Sprintf("cn=p%d,o=Lucent", i%(people-1))), []ldap.Change{{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{fmt.Sprint(i)}}}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d.CompactionStats().Runs == 0 {
		t.Fatal("no compaction ran")
	}
	// The compactor runs behind the committers; wait for it to catch up.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < len(d.segs); {
		s := d.segs[i]
		s.mu.RLock()
		rewrite := s.rewriteSize()
		s.mu.RUnlock()
		b, err := os.ReadFile(segJournalPath(base, i))
		if err != nil {
			t.Fatal(err)
		}
		if n := int64(len(v2Frames(t, b))); n < 2*rewrite+compactFloor {
			i++
		} else if time.Now().After(deadline) {
			t.Fatalf("segment %d holds %d records for %d entries and tombstones", i, n, rewrite)
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if err := d.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	var state int64
	for _, s := range d.segs {
		state += s.rewriteSize()
	}
	restored := reopenSet(t, base, 8)
	if got := restored.JournalStats().ReplayedRecords; int64(got) != state {
		t.Fatalf("replayed %d records for %d entries and tombstones", got, state)
	}
	if restored.Fingerprint() != d.Fingerprint() {
		t.Fatal("fingerprint changed across the close")
	}
}

func TestSnapshotRangeExactCut(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 8)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("cn=bg%d,o=Lucent", i)
			if err := d.Add(dn.MustParse(name), AttrsFrom(map[string][]string{"cn": {name}})); err != nil {
				t.Errorf("bg add: %v", err)
				return
			}
		}
	}()

	time.Sleep(10 * time.Millisecond)
	var streamed int
	seq, changes, cancel := d.SnapshotRangeAndSubscribeSeq(8192, func(Entry) bool {
		streamed++
		return true
	})
	defer cancel()
	close(stop)
	wg.Wait()

	// Exact cut: streamed entries = 1 root + (seq - renames…) adds; every
	// op here is an add, so streamed == seq at the cut. The first change
	// carries seq+1 and the stream is gap-free.
	if uint64(streamed) != seq {
		t.Fatalf("streamed %d entries at cut seq %d", streamed, seq)
	}
	want := seq
	remaining := d.Seq() - seq
	for i := uint64(0); i < remaining; i++ {
		select {
		case rec := <-changes:
			want++
			if rec.Seq != want {
				t.Fatalf("stream gap: got %d want %d", rec.Seq, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("stream stalled")
		}
	}
}
