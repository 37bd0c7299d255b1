package directory

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/record"
)

// journaledDIT returns a one-segment DIT journaled at base — the set's only
// file is segJournalPath(base, 0) — replaying whatever is already there.
func journaledDIT(t testing.TB, base string, mode SyncMode) *DIT {
	t.Helper()
	d := NewSegmented(nil, 1)
	if _, err := d.AttachJournalSet(JournalSetConfig{Base: base, Mode: mode}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.CloseJournal() })
	return d
}

// reopen replays the journal into a fresh DIT.
func reopen(t *testing.T, base string) *DIT { return journaledDIT(t, base, SyncNone) }

// sameState compares two DITs entry by entry.
func sameState(t *testing.T, a, b *DIT) {
	t.Helper()
	ea, eb := a.All(), b.All()
	if len(ea) != len(eb) {
		t.Fatalf("entry counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if !ea[i].DN.Equal(eb[i].DN) {
			t.Fatalf("DN %d: %s vs %s", i, ea[i].DN, eb[i].DN)
		}
		if !ea[i].Attrs.Equal(eb[i].Attrs) {
			t.Fatalf("attrs of %s differ:\n%v\nvs\n%v", ea[i].DN, ea[i].Attrs.Map(), eb[i].Attrs.Map())
		}
	}
}

func TestJournalReplayRestoresState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dir.journal")
	d := journaledDIT(t, path, SyncNone)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})
	mustAddP(t, d, "cn=A,o=Lucent", map[string][]string{"objectClass": {"person"}, "cn": {"A"}})
	mustAddP(t, d, "cn=B,o=Lucent", map[string][]string{"objectClass": {"person"}, "cn": {"B"}})
	if err := d.Modify(dn.MustParse("cn=A,o=Lucent"), []ldap.Change{
		{Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"1"}}},
		{Op: ldap.ModAdd, Attribute: ldap.Attribute{Type: "mail", Values: []string{"a@x"}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(dn.MustParse("cn=B,o=Lucent")); err != nil {
		t.Fatal(err)
	}
	if err := d.ModifyDN(dn.MustParse("cn=A,o=Lucent"), dn.RDN{{Attr: "cn", Value: "A Prime"}}, true); err != nil {
		t.Fatal(err)
	}

	restored := reopen(t, path)
	sameState(t, d, restored)
	e, err := restored.Get(dn.MustParse("cn=A Prime,o=Lucent"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Attrs.First("roomNumber") != "1" || e.Attrs.First("mail") != "a@x" {
		t.Errorf("restored attrs = %v", e.Attrs.Map())
	}
}

func mustAddP(t *testing.T, d *DIT, name string, attrs map[string][]string) {
	t.Helper()
	if err := d.Add(dn.MustParse(name), AttrsFrom(attrs)); err != nil {
		t.Fatalf("add %s: %v", name, err)
	}
}

func TestJournalFailedUpdatesNotRecorded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dir.journal")
	d := journaledDIT(t, path, SyncNone)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})
	// Failing operations must leave no trace.
	d.Add(dn.MustParse("cn=x,o=Ghost"), AttrsFrom(map[string][]string{"cn": {"x"}}))
	d.Delete(dn.MustParse("cn=missing,o=Lucent"))
	d.Modify(dn.MustParse("cn=missing,o=Lucent"), []ldap.Change{
		{Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: "x", Values: []string{"y"}}}})

	restored := reopen(t, path)
	sameState(t, d, restored)
	if restored.Len() != 1 {
		t.Errorf("restored %d entries, want 1", restored.Len())
	}
}

func TestCompactPreservesStateAndShrinks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dir.journal")
	d := journaledDIT(t, path, SyncNone)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})
	name := dn.MustParse("cn=Busy,o=Lucent")
	mustAddP(t, d, "cn=Busy,o=Lucent", map[string][]string{"objectClass": {"person"}, "cn": {"Busy"}})
	for i := 0; i < 100; i++ {
		if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
			Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{fmt.Sprintf("R-%d", i)}}}}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.Stat(segJournalPath(path, 0))
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(segJournalPath(path, 0))
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink: %d -> %d", before.Size(), after.Size())
	}
	// State survives compaction AND further updates after it.
	if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"FINAL"}}}}); err != nil {
		t.Fatal(err)
	}
	restored := reopen(t, path)
	sameState(t, d, restored)
	e, _ := restored.Get(name)
	if e.Attrs.First("roomNumber") != "FINAL" {
		t.Errorf("post-compaction update lost: %q", e.Attrs.First("roomNumber"))
	}
}

func TestJournalDoubleAttachRejected(t *testing.T) {
	dir := t.TempDir()
	d := journaledDIT(t, filepath.Join(dir, "a.journal"), SyncNone)
	if _, err := d.AttachJournalSet(JournalSetConfig{Base: filepath.Join(dir, "b.journal")}); err == nil {
		t.Error("second journal attached")
	}
}

func TestJournalCorruptMidFileSurfaces(t *testing.T) {
	// A garbage record FOLLOWED by more records is real corruption, not a
	// torn tail, and must abort startup. The lines are JSON, the encoding
	// replay still reads (TestV2CorruptMidFileSurfaces is the binary twin).
	path := filepath.Join(t.TempDir(), "dir.journal")
	content := "{\"op\":\"add\",\"dn\":\"o=X\",\"attrs\":{\"o\":[\"X\"]}}\n" +
		"not-json\n" +
		"{\"op\":\"add\",\"dn\":\"cn=a,o=X\",\"attrs\":{\"cn\":[\"a\"]}}\n"
	if err := os.WriteFile(segJournalPath(path, 0), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	d := NewSegmented(nil, 1)
	if _, err := d.AttachJournalSet(JournalSetConfig{Base: path}); err == nil {
		d.CloseJournal()
		t.Error("corrupt journal replayed cleanly")
	}
}

// TestJournalGroupCommitBatches proves group formation: concurrent writers
// commit in groups larger than one, with far fewer groups than records.
// This is the scripts/check.sh group-commit smoke.
func TestJournalGroupCommitBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dir.journal")
	d := journaledDIT(t, path, SyncGroup)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})
	const writers, each = 3, 40
	for i := 0; i < writers; i++ {
		mustAddP(t, d, fmt.Sprintf("cn=W%d,o=Lucent", i),
			map[string][]string{"objectClass": {"person"}, "cn": {fmt.Sprintf("W%d", i)}})
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := dn.MustParse(fmt.Sprintf("cn=W%d,o=Lucent", i))
			for k := 0; k < each; k++ {
				if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber",
						Values: []string{fmt.Sprintf("R-%d-%d", i, k)}}}}); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := d.JournalStats()
	if st.MaxBatch <= 1 {
		t.Errorf("no group commit observed: MaxBatch = %d", st.MaxBatch)
	}
	if st.Batches >= st.Appends {
		t.Errorf("batches (%d) not fewer than appends (%d)", st.Batches, st.Appends)
	}
	if st.Mode != "group" {
		t.Errorf("stats mode = %q", st.Mode)
	}
	// Durability-equivalence: the journal replays to the identical state.
	if err := d.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	sameState(t, d, reopen(t, path))
}

// TestGroupCommitCrashRecovery is the write-ahead-safety proof for group
// commit: every ACKED write (the call returned) survives a simulated crash
// — the journal file as-is, no clean close, plus a torn tail from a write
// that was in flight — while unacked tails may be lost but never corrupt
// replay.
func TestGroupCommitCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dir.journal")
	d := journaledDIT(t, path, SyncGroup)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})
	const writers, each = 8, 50
	type acked struct {
		mu   sync.Mutex
		last map[int]string // writer -> last acked roomNumber value
	}
	ack := acked{last: map[int]string{}}
	for i := 0; i < writers; i++ {
		mustAddP(t, d, fmt.Sprintf("cn=W%d,o=Lucent", i),
			map[string][]string{"objectClass": {"person"}, "cn": {fmt.Sprintf("W%d", i)}})
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := dn.MustParse(fmt.Sprintf("cn=W%d,o=Lucent", i))
			for k := 0; k < each; k++ {
				v := fmt.Sprintf("%d", k)
				if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{v}}}}); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
				// The call returned: this value is acked (durable).
				ack.mu.Lock()
				ack.last[i] = v
				ack.mu.Unlock()
			}
		}(i)
	}

	// Crash MID-FLIGHT: snapshot what has been acked so far, THEN copy the
	// journal bytes as they are on disk — no close, no flush — and append
	// a torn half-record as if one more write was in the middle of its
	// group. Anything acked before the copy must be in the copy.
	time.Sleep(2 * time.Millisecond)
	ack.mu.Lock()
	ackedAtCrash := make(map[int]string, len(ack.last))
	for k, v := range ack.last {
		ackedAtCrash[k] = v
	}
	ack.mu.Unlock()
	data, err := os.ReadFile(segJournalPath(path, 0))
	if err != nil {
		t.Fatal(err)
	}
	var enc record.Encoder
	inFlight, err := appendRecord(&enc, nil, &UpdateRecord{Seq: 99999, Op: "modify", DN: "cn=W0,o=Lucent",
		Changes: []UpdateChange{{Op: "replace", Attr: "roomNumber", Values: []string{"lost"}}}})
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.journal")
	data = append(data, inFlight[:len(inFlight)/2]...)
	if err := os.WriteFile(segJournalPath(crashed, 0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	restored := reopen(t, crashed)
	if st := restored.JournalStats(); st.TornTails != 1 {
		t.Errorf("TornTails = %d, want 1", st.TornTails)
	}
	for i, want := range ackedAtCrash {
		e, err := restored.Get(dn.MustParse(fmt.Sprintf("cn=W%d,o=Lucent", i)))
		if err != nil {
			t.Fatalf("acked entry W%d lost: %v", i, err)
		}
		// Each writer's values ascend, so the restored value must be at
		// least the one acked before the crash copy (later unacked writes
		// may also have made it — fine; going backwards would mean an
		// acked write was lost).
		got := e.Attrs.First("roomNumber")
		gotK, err1 := strconv.Atoi(got)
		wantK, err2 := strconv.Atoi(want)
		if err1 != nil || err2 != nil || gotK < wantK {
			t.Errorf("W%d: acked write lost: restored roomNumber %q < acked %q", i, got, want)
		}
	}

	// And the post-crash journal on the ORIGINAL path replays the complete
	// final state once all writers finished.
	if err := d.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	full := reopen(t, path)
	sameState(t, d, full)
}

// TestJournalRandomOpsProperty drives a random operation sequence and
// verifies replay equivalence — the crash-recovery property.
func TestJournalRandomOpsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	path := filepath.Join(t.TempDir(), "dir.journal")
	d := journaledDIT(t, path, SyncNone)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})

	live := map[int]bool{}
	nameOf := func(i int) dn.DN { return dn.MustParse(fmt.Sprintf("cn=P%03d,o=Lucent", i)) }
	for step := 0; step < 500; step++ {
		i := rng.Intn(40)
		switch rng.Intn(4) {
		case 0: // add
			err := d.Add(nameOf(i), AttrsFrom(map[string][]string{
				"objectClass": {"person"}, "cn": {fmt.Sprintf("P%03d", i)}}))
			if err == nil {
				live[i] = true
			}
		case 1: // delete
			if d.Delete(nameOf(i)) == nil {
				delete(live, i)
			}
		case 2: // modify
			d.Modify(nameOf(i), []ldap.Change{{Op: ldap.ModReplace,
				Attribute: ldap.Attribute{Type: "roomNumber",
					Values: []string{fmt.Sprintf("R-%d", step)}}}})
		case 3: // occasional compaction mid-stream
			if step%97 == 0 {
				if err := d.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	restored := reopen(t, path)
	sameState(t, d, restored)
	if restored.Len() != len(live)+1 {
		t.Errorf("restored %d entries, want %d", restored.Len(), len(live)+1)
	}
}

// BenchmarkJournalAblation measures what the write-ahead journal costs the
// update path (buffered and fsync-per-write variants vs in-memory).
func BenchmarkJournalAblation(b *testing.B) {
	run := func(b *testing.B, journaled, syncEvery bool) {
		d := New(nil)
		if journaled {
			mode := SyncNone
			if syncEvery {
				mode = SyncAlways
			}
			d = journaledDIT(b, filepath.Join(b.TempDir(), "bench.journal"), mode)
		}
		if err := d.Add(dn.MustParse("o=Lucent"), AttrsFrom(map[string][]string{
			"objectClass": {"organization"}})); err != nil {
			b.Fatal(err)
		}
		name := dn.MustParse("cn=Bench,o=Lucent")
		if err := d.Add(name, AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"Bench"}})); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
				Attribute: ldap.Attribute{Type: "roomNumber",
					Values: []string{fmt.Sprintf("R-%d", i)}}}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("InMemory", func(b *testing.B) { run(b, false, false) })
	b.Run("Journaled", func(b *testing.B) { run(b, true, false) })
	b.Run("JournaledFsync", func(b *testing.B) { run(b, true, true) })
}
