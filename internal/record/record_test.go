package record

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func fields(kv ...[]string) []Field {
	out := make([]Field, 0, len(kv))
	for _, f := range kv {
		out = append(out, Field{Key: Lower(f[0]), Display: f[0], Vals: f[1:]})
	}
	return out
}

// testRecords is one record of every op shape the codec can carry.
func testRecords() []Record {
	return []Record{
		{Op: "add", Seq: 1, DN: "cn=A,o=Lucent", Fields: fields(
			[]string{"objectClass", "person"}, []string{"cn", "A"},
			[]string{"telephoneNumber", "555-0001", "555-0002"})},
		{Op: "entry", Seq: 42, DN: "o=Lucent", NormKey: "o=lucent", Fields: fields(
			[]string{"objectClass", "organization"})},
		{Op: "delete", Seq: 7, DN: "cn=B,o=Lucent"},
		{Op: "modify", Seq: 9, DN: "cn=A,o=Lucent", Changes: []Change{
			{Op: "add", Attr: "mail", Values: []string{"a@x"}},
			{Op: "delete", Attr: "roomNumber"},
			{Op: "replace", Attr: "cn", Values: []string{"A", "Alice"}}}},
		{Op: "modifydn", Seq: 11, DN: "cn=A,o=Lucent", NewRDN: "cn=Alice", DeleteOldRDN: true},
		{Op: "add", Seq: 1 << 40, DN: "", Fields: []Field{}},
		{Op: "delete", Seq: 3, DN: "cn=gone,o=lucent", OriginSeq: 77, OriginNode: 2},
	}
}

func sortedByName(fs []Field) []Field {
	out := append([]Field(nil), fs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Display < out[j].Display })
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	var enc Encoder
	var buf []byte
	recs := testRecords()
	for i := range recs {
		var err error
		if buf, err = enc.AppendRecord(buf, &recs[i]); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	var dec Decoder
	total := 0
	for i := range recs {
		if !FrameBuffered(r) && r.Buffered() > 0 {
			t.Fatalf("record %d: complete frame in the buffer not reported", i)
		}
		var got Record
		n, err := dec.ReadRecord(r, &got)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		total += n
		if !reflect.DeepEqual(got, recs[i]) {
			t.Fatalf("record %d differs:\n%+v\nvs\n%+v", i, got, recs[i])
		}
	}
	if total != len(buf) {
		t.Fatalf("frames consumed %d bytes of %d", total, len(buf))
	}
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("trailing bytes after last frame")
	}
	if _, _, err := dec.ReadFrame(r); err != ErrTorn {
		t.Fatalf("read at EOF = %v, want ErrTorn", err)
	}
}

// TestCorruptFrameRejected flips every single byte of an encoded frame in
// turn and requires decode to fail each time — the marker check, the CRC,
// or the frame structure around it must catch any one-byte corruption.
func TestCorruptFrameRejected(t *testing.T) {
	var enc Encoder
	rec := testRecords()[0]
	frame, err := enc.AppendRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		var got Record
		var dec Decoder
		if _, derr := dec.ReadRecord(bufio.NewReader(bytes.NewReader(mut)), &got); derr == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

// TestTornFrameClassified cuts a frame at every length: each proper prefix
// is a tear (what a crash mid-append or a dropped connection leaves), never
// corruption, and FrameBuffered never claims it is complete.
func TestTornFrameClassified(t *testing.T) {
	var enc Encoder
	rec := testRecords()[1]
	frame, err := enc.AppendRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		r := bufio.NewReader(bytes.NewReader(frame[:cut]))
		r.Peek(1) // fill the buffer
		if FrameBuffered(r) {
			t.Fatalf("cut %d: incomplete frame reported as buffered", cut)
		}
		var dec Decoder
		var got Record
		if _, err := dec.ReadRecord(r, &got); err != ErrTorn {
			t.Fatalf("cut %d: err = %v, want ErrTorn", cut, err)
		}
	}
}

// TestSeedCorpusDecodes is the on-disk compatibility proof: the frames the
// journal wrote before the codec moved into this package (the checked-in
// fuzz corpus, byte for byte) still decode to the records they were made
// from, and re-encode to the same bytes.
func TestSeedCorpusDecodes(t *testing.T) {
	recs := testRecords()
	for i := range recs[:6] {
		name := filepath.Join("testdata", "fuzz", "FuzzJournalV2Record", fmt.Sprintf("seed-%s-%d", recs[i].Op, i))
		body, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.SplitN(string(body), "\n", 3)[1], "[]byte("), ")")
		raw, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var dec Decoder
		var got Record
		n, err := dec.ReadRecord(bufio.NewReader(strings.NewReader(raw)), &got)
		if err != nil || n != len(raw) {
			t.Fatalf("%s: decoded %d of %d bytes: %v", name, n, len(raw), err)
		}
		// The corpus was written from attribute maps, so field order is
		// whatever the map gave that day.
		want := recs[i]
		onDisk := got.Fields
		got.Fields, want.Fields = sortedByName(got.Fields), sortedByName(want.Fields)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decodes to\n%+v\nwant\n%+v", name, got, want)
		}
		got.Fields = onDisk
		var enc Encoder
		again, err := enc.AppendRecord(nil, &got)
		if err != nil || string(again) != raw {
			t.Fatalf("%s does not re-encode to the same bytes (%v)", name, err)
		}
	}
}

func TestInternSharesNames(t *testing.T) {
	before := InternedNames()
	a := Intern("recordTestOnlyName")
	b := Intern(strings.Clone("recordTestOnlyName"))
	if InternedNames() != before+1 {
		t.Fatalf("table grew by %d, want 1", InternedNames()-before)
	}
	if a != b || Lower("objectClass") != "objectclass" || Lower("cn") != "cn" {
		t.Fatal("intern/lower results differ")
	}
}
