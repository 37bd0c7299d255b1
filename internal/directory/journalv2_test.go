package directory

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/record"
)

// v2TestRecords is one record of every op shape the journal can carry.
func v2TestRecords() []UpdateRecord {
	return []UpdateRecord{
		{Op: "add", Seq: 1, DN: "cn=A,o=Lucent", image: AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"A"}, "telephoneNumber": {"555-0001", "555-0002"}})},
		{Op: "entry", Seq: 42, DN: "o=Lucent", normKey: "o=lucent", image: AttrsFrom(map[string][]string{
			"objectClass": {"organization"}})},
		{Op: "delete", Seq: 7, DN: "cn=B,o=Lucent"},
		{Op: "modify", Seq: 9, DN: "cn=A,o=Lucent", Changes: []UpdateChange{
			{Op: "add", Attr: "mail", Values: []string{"a@x"}},
			{Op: "delete", Attr: "roomNumber"},
			{Op: "replace", Attr: "cn", Values: []string{"A", "Alice"}}}},
		{Op: "modifydn", Seq: 11, DN: "cn=A,o=Lucent", NewRDN: "cn=Alice", DeleteOldRDN: true},
		{Op: "add", Seq: 1 << 40, DN: "", image: NewAttrs()},
	}
}

// sameRecord compares a decoded record against the original.
func sameRecord(t *testing.T, want, got *UpdateRecord) {
	t.Helper()
	if got.Op != want.Op || got.Seq != want.Seq || got.DN != want.DN ||
		got.normKey != want.normKey ||
		got.NewRDN != want.NewRDN || got.DeleteOldRDN != want.DeleteOldRDN {
		t.Fatalf("decoded header differs:\n%+v\nvs\n%+v", got, want)
	}
	if !reflect.DeepEqual(got.Changes, want.Changes) {
		t.Fatalf("decoded changes differ:\n%+v\nvs\n%+v", got.Changes, want.Changes)
	}
	if want.Op == "add" || want.Op == "entry" {
		if !got.image.Equal(want.image) {
			t.Fatalf("decoded attrs of %s differ:\n%v\nvs\n%v",
				want.DN, got.image.Map(), want.image.Map())
		}
	}
}

// TestV2RecordRoundTrip drives every op shape through the UpdateRecord
// adapter and the shared codec (whose own tests live in internal/record).
func TestV2RecordRoundTrip(t *testing.T) {
	var enc record.Encoder
	var buf []byte
	recs := v2TestRecords()
	for i := range recs {
		var err error
		buf, err = appendRecord(&enc, buf, &recs[i])
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	var dec record.Decoder
	total := 0
	for i := range recs {
		var w record.Record
		n, err := dec.ReadRecord(r, &w)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		total += n
		var got UpdateRecord
		got.setWire(&w)
		sameRecord(t, &recs[i], &got)
	}
	if total != len(buf) {
		t.Fatalf("frames consumed %d bytes of %d", total, len(buf))
	}
}

// TestV2JournalOnDisk asserts a journal set writes v2 frames and reports its
// replay through JournalStats.
func TestV2JournalOnDisk(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 4)
	seedOrg(t, d, 32)
	// A seed-only journal is already one record per entry: closing it, and
	// attaching and closing it again, leaves every file byte-identical.
	seeded := readSegs(t, base, 4)
	d.CloseJournal()
	for i, b := range readSegs(t, base, 4) {
		if len(b) > 0 && b[0] != record.Marker {
			t.Fatalf("segment %d does not start with the v2 marker: %x", i, b[0])
		}
		if !bytes.Equal(b, seeded[i]) {
			t.Fatalf("segment %d rewritten by CloseJournal", i)
		}
	}
	restored := reopenSet(t, base, 4)
	sameState(t, d, restored)
	st := restored.JournalStats()
	if st.ReplayedRecords != 33 || st.ReplayedBytes == 0 ||
		st.ReplayNs <= 0 || len(st.SegmentReplayNs) != 4 {
		t.Fatalf("replay stats = %+v", st)
	}
	restored.CloseJournal()
	if !reflect.DeepEqual(readSegs(t, base, 4), seeded) {
		t.Fatal("a reattach and close rewrote the seeded journal")
	}
}

// readSegs returns the contents of the n segment files at base.
func readSegs(t *testing.T, base string, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		b, err := os.ReadFile(segJournalPath(base, i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestV2TornTailTolerated cuts the final frame short at several lengths —
// every prefix of a frame is a possible crash shape — and requires replay to
// truncate the tear, count it, and keep every complete record.
func TestV2TornTailTolerated(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 1)
	seedOrg(t, d, 10)
	d.CloseJournal()

	seg0 := segJournalPath(base, 0)
	whole, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	// Encode one more frame and append only part of it.
	var enc record.Encoder
	extra, err := appendRecord(&enc, nil, &UpdateRecord{Op: "add", Seq: 999,
		DN: "cn=torn,o=Lucent", image: AttrsFrom(map[string][]string{"cn": {"torn"}})})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 2, len(extra) / 2, len(extra) - 1} {
		if err := os.WriteFile(seg0, append(append([]byte(nil), whole...), extra[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		restored := reopenSet(t, base, 1)
		sameState(t, d, restored)
		if got := restored.JournalStats().TornTails; got != 1 {
			t.Fatalf("cut %d: TornTails = %d, want 1", cut, got)
		}
		// The tear is physically gone: appends resume at a record boundary.
		mustAddP(t, restored, "cn=after,o=Lucent", map[string][]string{"cn": {"after"}})
		restored.CloseJournal()
		again := reopenSet(t, base, 1)
		if _, err := again.Get(dn.MustParse("cn=after,o=Lucent")); err != nil {
			t.Fatalf("cut %d: append after tear lost: %v", cut, err)
		}
		again.CloseJournal()
		if err := os.WriteFile(seg0, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// v2Frames splits a v2 journal file into individual frames.
func v2Frames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for off := 0; off < len(b); {
		if b[off] != record.Marker {
			t.Fatalf("offset %d: not a frame marker: %x", off, b[off])
		}
		plen, vn := binary.Uvarint(b[off+1:])
		end := off + 1 + vn + int(plen) + 4
		if vn <= 0 || end > len(b) {
			t.Fatalf("offset %d: bad frame", off)
		}
		frames = append(frames, b[off:end])
		off = end
	}
	return frames
}

// TestV2CorruptMidFileSurfaces damages a complete frame — mid-file and at
// the tail — and requires attach to fail loudly rather than silently
// truncate: a complete frame with a bad checksum is corruption, not a tear.
func TestV2CorruptMidFileSurfaces(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 1)
	seedOrg(t, d, 10)
	d.CloseJournal()

	seg0 := segJournalPath(base, 0)
	whole, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	frames := v2Frames(t, whole)
	if len(frames) < 3 {
		t.Fatalf("only %d frames", len(frames))
	}
	for _, fi := range []int{1, len(frames) - 1} {
		mut := append([]byte(nil), whole...)
		// Flip a payload byte of frame fi (skip marker + length prefix).
		off := 0
		for i := 0; i < fi; i++ {
			off += len(frames[i])
		}
		_, vn := binary.Uvarint(mut[off+1:])
		mut[off+1+vn] ^= 0x40
		if err := os.WriteFile(seg0, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		bad := NewSegmented(nil, 1)
		if _, err := bad.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncGroup}); err == nil {
			bad.CloseJournal()
			t.Fatalf("corrupt frame %d of %d replayed without error", fi, len(frames))
		}
		after, err := os.ReadFile(seg0)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(mut) {
			t.Fatalf("corrupt journal was truncated: %d -> %d bytes", len(mut), len(after))
		}
		if err := os.WriteFile(seg0, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The checked-in JSON-era journal sets under testdata/ were written by the
// last build that had a JSON writer (PR 12): 4 segments, 33 records — adds,
// modifies with every change op, a delete, a leaf and a subtree rename as
// per-entry delete+entry parts, a remote upsert, and the tombstone-only
// stamped delete of cn=ghost — under a manifest that still carries
// "format":"json". json-set-torn is the same set with a crash's half-written
// line at the end of segment 2. That build restores both to this state.
const (
	jsonSetSegments    = 4
	jsonSetRecords     = 33
	jsonSetEntries     = 17
	jsonSetFingerprint = "eed6e574eb4428373227bfd96ab3120e65e1e790605e89d5f6e0379ddc26a849"
)

// copyJSONSet copies testdata/<name> into a temp dir and returns its base.
func copyJSONSet(t *testing.T, name string) string {
	t.Helper()
	return copySet(t, filepath.Join("testdata", name, "dir.journal"))
}

// copySet copies every file of the journal set at base — segment files,
// manifest, compaction temporaries — into a fresh directory and returns the
// copy's base: the set exactly as a crash at this instant would leave it.
func copySet(t *testing.T, base string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Dir(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasPrefix(f.Name(), filepath.Base(base)) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(filepath.Dir(base), f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, filepath.Base(base))
}

// checkJSONSetState asserts d holds exactly what the JSON set's writer held,
// including the tombstone (which Fingerprint leaves out): an upsert of
// cn=ghost older than its delete must still lose.
func checkJSONSetState(t *testing.T, d *DIT) {
	t.Helper()
	if got := d.Fingerprint(); got != jsonSetFingerprint || d.Len() != jsonSetEntries {
		t.Fatalf("fingerprint %s (%d entries), want %s (%d)", got, d.Len(), jsonSetFingerprint, jsonSetEntries)
	}
	res, err := d.ApplyRemote(dn.MustParse("cn=ghost,o=Lucent"),
		AttrsFrom(map[string][]string{"cn": {"ghost"}}), Stamp{Seq: 8999, Node: 7}, false)
	if err != nil || res.Applied {
		t.Fatalf("stale upsert over the replayed tombstone: applied=%v err=%v", res.Applied, err)
	}
}

// checkV2Set asserts every segment file at base starts with the v2 marker
// and the manifest carries no format key.
func checkV2Set(t *testing.T, base string, segments int) {
	t.Helper()
	for i := 0; i < segments; i++ {
		b, err := os.ReadFile(segJournalPath(base, i))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 || b[0] != record.Marker {
			t.Fatalf("segment %d not rewritten as v2", i)
		}
	}
	mb, err := os.ReadFile(base + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(mb, &m); err != nil || m["segments"] != float64(segments) || m["format"] != nil {
		t.Fatalf("manifest after migration: %s (%v)", mb, err)
	}
}

// TestLegacyJSONJournalMigratesToV2 is the check.sh migration smoke: a
// journal set written in JSON attaches, is rewritten in place as v2, and a
// second attach replays pure v2 with identical contents.
func TestLegacyJSONJournalMigratesToV2(t *testing.T) {
	base := copyJSONSet(t, "json-set")
	migrated := reopenSet(t, base, jsonSetSegments)
	if st := migrated.JournalStats(); st.ReplayedRecords != jsonSetRecords {
		t.Fatalf("replayed %d records, want %d", st.ReplayedRecords, jsonSetRecords)
	}
	checkJSONSetState(t, migrated)
	mustAddP(t, migrated, "cn=post-migration,o=Lucent", map[string][]string{"cn": {"post-migration"}})
	migrated.CloseJournal()
	checkV2Set(t, base, jsonSetSegments)

	again := reopenSet(t, base, jsonSetSegments)
	sameState(t, migrated, again)
	if err := again.Delete(dn.MustParse("cn=post-migration,o=Lucent")); err != nil {
		t.Fatal(err)
	}
	checkJSONSetState(t, again)
	// One record per live entry and per tombstone, plus the add: the second
	// attach found nothing to migrate, so nothing was compacted away yet.
	if cs := again.CompactionStats(); cs.Runs != 0 {
		t.Fatalf("second attach compacted %d segments: still migrating a v2 set", cs.Runs)
	}
}

// TestLegacyJSONTornTailTolerated: the JSON decode keeps the torn-tail rule
// (TestV2TornTailTolerated is the binary twin) — the half-written final line
// is truncated and counted, every complete record applies.
func TestLegacyJSONTornTailTolerated(t *testing.T) {
	base := copyJSONSet(t, "json-set-torn")
	d := reopenSet(t, base, jsonSetSegments)
	if st := d.JournalStats(); st.TornTails != 1 || st.ReplayedRecords != jsonSetRecords {
		t.Fatalf("TornTails = %d, records = %d; want 1, %d", st.TornTails, st.ReplayedRecords, jsonSetRecords)
	}
	checkJSONSetState(t, d)
}

// TestV2MixedFormatFileReplays appends a v2 frame to a JSON segment file —
// the state a crash leaves when this build has appended new records but the
// migrating compaction has not rewritten the file yet — and requires replay
// to apply both.
func TestV2MixedFormatFileReplays(t *testing.T) {
	base := copyJSONSet(t, "json-set")
	name := dn.MustParse("cn=binary,o=Lucent")
	var enc record.Encoder
	frame, err := appendRecord(&enc, nil, &UpdateRecord{Op: "add", Seq: 9999, DN: name.String(),
		image: AttrsFrom(map[string][]string{"cn": {"binary"}}), OriginSeq: 9999, OriginNode: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segJournalPath(base, NewSegmented(nil, jsonSetSegments).segIndex(name.Normalize())),
		os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	restored := reopenSet(t, base, jsonSetSegments)
	if _, err := restored.Get(name); err != nil {
		t.Fatalf("v2 record after JSON records lost: %v", err)
	}
	if err := restored.Delete(name); err != nil {
		t.Fatal(err)
	}
	checkJSONSetState(t, restored)
}

// migrationCrash kills the JSON→v2 migrating compaction at the given stage,
// and the compaction CloseJournal then starts on the half-migrated set at
// the same stage, and asserts the next attach still restores every acked
// write and removes the temps — the migration must be re-runnable from any
// crash point.
func migrationCrash(t *testing.T, stage string) {
	base := copyJSONSet(t, "json-set")
	fired := 0
	compactHook = func(s string, seg int) error {
		if s == stage {
			fired++
			return fmt.Errorf("injected crash at %s", s)
		}
		return nil
	}
	defer func() { compactHook = nil }()
	crashed := NewSegmented(nil, jsonSetSegments)
	if _, err := crashed.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncGroup}); err == nil {
		t.Fatal("migrating attach did not surface the injected crash")
	}
	if err := crashed.CloseJournal(); err == nil || fired < 2 {
		t.Fatalf("close of the half-migrated set: err = %v after %d injected crashes", err, fired)
	}
	compactHook = nil

	restored := reopenSet(t, base, jsonSetSegments)
	checkJSONSetState(t, restored)
	for i := 0; i < jsonSetSegments; i++ {
		if _, err := os.Stat(segJournalPath(base, i) + ".compact"); err == nil {
			t.Errorf("stale .compact temp for segment %d survived attach", i)
		}
	}
	// The completed migration leaves a pure-v2 set.
	mustAddP(t, restored, "cn=post,o=Lucent", map[string][]string{"cn": {"post"}})
	restored.CloseJournal()
	checkV2Set(t, base, jsonSetSegments)
	final := reopenSet(t, base, jsonSetSegments)
	if _, err := final.Get(dn.MustParse("cn=post,o=Lucent")); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationCrashAtTmpWritten(t *testing.T) { migrationCrash(t, "tmp-written") }
func TestMigrationCrashMidSplice(t *testing.T)    { migrationCrash(t, "mid-splice") }
func TestMigrationCrashPreRename(t *testing.T)    { migrationCrash(t, "pre-rename") }

// TestSingleFileJournalRefused: a file at Base is a pre-segmentation
// journal. Attach must say so — naming the file and the remedy — and must
// not touch the data dir: ignoring the file would start an empty directory
// over live data.
func TestSingleFileJournalRefused(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "dir.journal")
	content := []byte("{\"op\":\"add\",\"dn\":\"o=X\",\"attrs\":{\"o\":[\"X\"]}}\n")
	if err := os.WriteFile(base, content, 0o644); err != nil {
		t.Fatal(err)
	}
	d := NewSegmented(nil, 4)
	_, err := d.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncGroup})
	if err == nil {
		d.CloseJournal()
		t.Fatal("single-file journal attached")
	}
	if msg := err.Error(); !strings.Contains(msg, base) || !strings.Contains(msg, "at or before PR 12") {
		t.Fatalf("refusal does not name the file and the remedy: %v", err)
	}
	files, _ := os.ReadDir(dir)
	after, _ := os.ReadFile(base)
	if len(files) != 1 || !bytes.Equal(after, content) {
		t.Fatalf("refused attach touched the data dir: %d files, journal %q", len(files), after)
	}
	if d.Len() != 0 {
		t.Fatalf("refused attach applied %d entries", d.Len())
	}
}

// TestParallelAttachReplay exercises the worker-pool attach (the -race run
// of this package drives the concurrent path) and checks the post-pass
// rebuilt cross-segment child links.
func TestParallelAttachReplay(t *testing.T) {
	// Attach sizes its pool from GOMAXPROCS; force a real pool on any runner.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 8)
	seedOrg(t, d, 120)
	mustAddP(t, d, "ou=Eng,o=Lucent", map[string][]string{"ou": {"Eng"}})
	for i := 0; i < 40; i++ {
		mustAddP(t, d, fmt.Sprintf("cn=e%d,ou=Eng,o=Lucent", i),
			map[string][]string{"cn": {fmt.Sprintf("e%d", i)}})
	}
	if err := d.Delete(dn.MustParse("cn=p7,o=Lucent")); err != nil {
		t.Fatal(err)
	}
	d.CloseJournal()

	restored := reopenSet(t, base, 8)
	sameState(t, d, restored)
	if w := restored.replay.Load().Workers; w != 4 {
		t.Fatalf("replay workers = %d, want 4", w)
	}
	if st := restored.JournalStats(); len(st.SegmentReplayNs) != 8 {
		t.Fatalf("SegmentReplayNs has %d entries, want 8", len(st.SegmentReplayNs))
	}
	// Child links must be rebuilt: a populated subtree refuses deletion.
	if err := restored.Delete(dn.MustParse("ou=Eng,o=Lucent")); err == nil {
		t.Fatal("deleted non-leaf after parallel replay: children links missing")
	}
	// Indexes built after a parallel attach reuse the pool (enableIndexes
	// worker path) and must serve exact results.
	restored.EnableIndexes("telephoneNumber")
	got, err := restored.Search(dn.MustParse("o=Lucent"), ldap.ScopeWholeSubtree,
		&ldap.Filter{Kind: ldap.FilterEquality, Attr: "telephoneNumber", Value: "555-0005"}, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("indexed search after parallel attach: %v, %d results", err, len(got))
	}
}

// TestParentNormKey pins the zero-allocation parent-key derivation used by
// the child-wiring post-pass against the definitional form, across escaped
// commas, escaped backslashes, multi-AVA RDNs, and depth-1/root names.
func TestParentNormKey(t *testing.T) {
	for _, raw := range []string{
		"o=Lucent",
		"cn=A,o=Lucent",
		"cn=u0000001,ou=R&D,o=Lucent",
		`cn=Doe\, John,o=Lucent`,
		`cn=back\\slash,ou=x\,y,o=Lucent`,
		"cn=A+sn=B,ou=Mixed+l=NJ,o=Lucent",
		`cn=\,lead,o=Lucent`,
		`cn=trail\\,o=Lucent`,
	} {
		name, err := dn.Parse(raw)
		if err != nil {
			t.Fatalf("parse %q: %v", raw, err)
		}
		key := name.Normalize()
		want := name.Parent().Normalize()
		if got := parentNormKey(key); got != want {
			t.Errorf("parentNormKey(%q) = %q, want %q", key, got, want)
		}
	}
	if got := parentNormKey(""); got != "" {
		t.Errorf("parentNormKey of root = %q, want empty", got)
	}
}
