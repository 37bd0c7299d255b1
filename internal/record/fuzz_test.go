package record

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalV2Record throws arbitrary bytes at the frame decoder. The
// decoder runs on every cold start against whatever a crash left on disk
// and on every replication link against whatever the network delivers, so
// it must never panic, never over-allocate from a corrupt length or count,
// and classify damage correctly: anything that decodes must round-trip
// through the encoder, and any single-byte corruption of a valid frame must
// be rejected (the CRC covers the whole payload). The checked-in corpus
// under testdata/fuzz was written by the journal before the codec moved
// here; that it replays unmodified is the on-disk compatibility proof.
func FuzzJournalV2Record(f *testing.F) {
	var enc Encoder
	recs := testRecords()
	for i := range recs {
		frame, err := enc.AppendRecord(nil, &recs[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{Marker})
	f.Add([]byte{Marker, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoder
		var rec Record
		n, err := dec.ReadRecord(bufio.NewReader(bytes.NewReader(data)), &rec)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("frame consumed %d of %d bytes", n, len(data))
		}
		// Round trip: re-encoding the decoded record must produce a frame
		// that decodes back to the same record.
		var enc Encoder
		frame, err := enc.AppendRecord(nil, &rec)
		if err != nil {
			t.Fatalf("re-encode of decoded record failed: %v\nrecord: %+v", err, rec)
		}
		var rec2 Record
		if _, err := dec.ReadRecord(bufio.NewReader(bytes.NewReader(frame)), &rec2); err != nil {
			t.Fatalf("re-decode failed: %v\nframe: %x", err, frame)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", rec, rec2)
		}
		// Corrupt-frame rejection: flip one payload byte of the re-encoded
		// frame; the checksum must catch it.
		if len(frame) > 7 {
			mut := append([]byte(nil), frame...)
			mut[len(mut)/2] ^= 0x40
			var rec3 Record
			if _, err := dec.ReadRecord(bufio.NewReader(bytes.NewReader(mut)), &rec3); err == nil {
				t.Fatalf("single-byte corruption went undetected\nframe: %x", frame)
			}
		}
	})
}

// TestWriteV2FuzzSeedCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzJournalV2Record. Skipped unless WRITE_FUZZ_CORPUS is
// set; run it after changing the frame format so the corpus stays
// representative.
func TestWriteV2FuzzSeedCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalV2Record")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var enc Encoder
	recs := testRecords()
	for i := range recs {
		frame, err := enc.AppendRecord(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
		name := filepath.Join(dir, fmt.Sprintf("seed-%s-%d", recs[i].Op, i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range map[string][]byte{
		"seed-empty":      {},
		"seed-marker":     {Marker},
		"seed-huge-len":   {Marker, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"seed-not-binary": []byte(`{"op":"add","dn":"o=Lucent"}` + "\n"),
	} {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
