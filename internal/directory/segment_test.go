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

func TestSegmentedJournalReplay(t *testing.T) {
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

	restored := reopenSet(t, base, 8)
	sameState(t, d, restored)
	if restored.Seq() < d.Seq() {
		t.Fatalf("restored seq %d < live seq %d", restored.Seq(), d.Seq())
	}
	// The restored tree must be structurally sound: children links let the
	// renamed subtree entry be deleted leaf-first.
	if err := restored.Delete(dn.MustParse("ou=R&D,o=Lucent")); err == nil {
		t.Fatal("deleted non-leaf after replay: children links missing")
	}
	if err := restored.Delete(dn.MustParse("cn=dev,ou=R&D,o=Lucent")); err != nil {
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

// compactCrash aborts one segment compaction at the given stage, keeps
// writing acked updates, and asserts replay restores every one of them.
func compactCrash(t *testing.T, stage string) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 2)
	seedOrg(t, d, 20)

	injected := false
	compactHook = func(s string, seg int) error {
		if s == stage && !injected {
			injected = true
			return fmt.Errorf("injected crash at %s", s)
		}
		return nil
	}
	defer func() { compactHook = nil }()

	if err := d.Compact(); err == nil {
		t.Fatal("compact did not surface the injected crash")
	}
	if !injected {
		t.Fatal("hook never fired")
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

	// The directory keeps serving acked writes after the failed compaction.
	mustAddP(t, d, "cn=after-crash,o=Lucent", map[string][]string{"cn": {"after-crash"}})
	if err := d.Modify(dn.MustParse("cn=p5,o=Lucent"), []ldap.Change{
		{Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"7"}}}}); err != nil {
		t.Fatal(err)
	}
	d.CloseJournal()

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

func TestAutoCompactLifecycle(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 2)
	seedOrg(t, d, 10)
	d.StartAutoCompact(time.Millisecond)
	d.StartAutoCompact(time.Millisecond) // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for d.CompactionStats().Skips < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d.CompactionStats().Skips < 3 {
		t.Fatal("auto-compactor never ticked")
	}
	d.stopAutoCompact()
	d.stopAutoCompact() // idempotent
	// CloseJournal after stop must not hang.
	if err := d.CloseJournal(); err != nil {
		t.Fatal(err)
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
