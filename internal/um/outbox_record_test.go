package um

// In-package tests of the outbox's hot-path check and its journal payload
// codec.

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"metacomm/internal/filter"
	"metacomm/internal/lexpress"
	"metacomm/internal/record"
)

// TestOutboxHealthyCheckAllocs: with the device's breaker closed and its
// outbox empty — every fan-out of a healthy system — the outbox check
// costs no allocation: no DN normalization, no lock.
func TestOutboxHealthyCheckAllocs(t *testing.T) {
	d := &deviceOutbox{breaker: filter.NewBreaker(outboxBreakerThreshold, outboxBaseBackoff, outboxMaxBackoff)}
	tu := &lexpress.TargetUpdate{Target: "pbx", Op: lexpress.OpModify, Key: "2-9000"}
	allocs := testing.AllocsPerRun(1000, func() {
		if d.deferUpdate("cn=John Doe,o=Lucent", tu) {
			t.Fatal("healthy device deferred an update")
		}
	})
	if allocs != 0 {
		t.Errorf("healthy outbox check: %.1f allocs, want 0", allocs)
	}
}

// testOutboxRecords are update payloads covering every field: nil and
// empty images, multi-valued attributes, conditional and key-changing
// updates.
func testOutboxRecords() []*outboxRecord {
	rec := func(kv ...string) lexpress.Record {
		r := lexpress.NewRecord()
		for i := 0; i < len(kv); i += 2 {
			r[kv[i]] = append(r[kv[i]], kv[i+1])
		}
		return r
	}
	return []*outboxRecord{
		{seq: 1, dn: "cn=john doe,o=lucent", tu: &lexpress.TargetUpdate{
			Target: "pbx", Op: lexpress.OpAdd, Key: "2-9000",
			New: rec("extension", "2-9000", "name", "John Doe", "room", "5A-1")}},
		{seq: 2, dn: "cn=john doe,o=lucent", tu: &lexpress.TargetUpdate{
			Target: "msgplat", Op: lexpress.OpModify, Conditional: true, Key: "9001", OldKey: "9000",
			Old: rec("mailbox", "9000"), New: rec("mailbox", "9001", "cos", "a", "cos", "b"),
			Owned: []string{"mailboxId"}}},
		{seq: 300, dn: "cn=gone,o=lucent", tu: &lexpress.TargetUpdate{
			Target: "pbx", Op: lexpress.OpDelete, Key: "2-9002", Old: lexpress.NewRecord()}},
	}
}

// FuzzOutboxRecord throws arbitrary bytes at the outbox journal's payload
// decoder, both as one payload and as a journal of frames. It must never
// panic or over-allocate, and anything that decodes must round-trip
// through the encoder. The checked-in corpus under testdata/fuzz holds a
// journal written by TestOutboxCrashRestartDrainsJournal.
func FuzzOutboxRecord(f *testing.F) {
	var journal []byte
	for _, rec := range testOutboxRecords() {
		p := appendOutboxUpdate(nil, rec)
		f.Add(p)
		journal = record.AppendFrame(journal, p)
	}
	journal = record.AppendFrame(journal, appendOutboxAck(nil, 2))
	f.Add(appendOutboxAck(nil, 2))
	f.Add(journal)
	f.Add([]byte{})
	f.Add([]byte{outboxTagUpdate, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data)
		var fr record.Reader
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			p, _, err := fr.ReadFrame(r)
			if err != nil {
				return
			}
			roundTrip(t, p)
		}
	})
}

// roundTrip decodes p and, when it decodes, checks that re-encoding gives a
// payload that decodes to the same thing.
func roundTrip(t *testing.T, p []byte) {
	rec, seq, err := decodeOutboxPayload(p)
	if err != nil {
		return
	}
	var again []byte
	if rec == nil {
		again = appendOutboxAck(nil, seq)
	} else {
		again = appendOutboxUpdate(nil, rec)
	}
	rec2, seq2, err := decodeOutboxPayload(again)
	if err != nil {
		t.Fatalf("re-decode failed: %v\npayload: %x", err, again)
	}
	if seq2 != seq || !reflect.DeepEqual(rec, rec2) {
		t.Fatalf("round trip diverged:\npayload    %x\nre-encoded %x", p, again)
	}
}

// TestOutboxRecordRoundTrip pins the codec on the test records without the
// fuzzer: every field survives, and the seq and dn the queue keys on too.
func TestOutboxRecordRoundTrip(t *testing.T) {
	for _, want := range testOutboxRecords() {
		got, seq, err := decodeOutboxPayload(appendOutboxUpdate(nil, want))
		if err != nil {
			t.Fatal(err)
		}
		if seq != want.seq || !reflect.DeepEqual(got, want) {
			t.Errorf("decoded %+v %+v, want %+v %+v", got, got.tu, want, want.tu)
		}
	}
	got, seq, err := decodeOutboxPayload(appendOutboxAck(nil, 77))
	if err != nil || got != nil || seq != 77 {
		t.Errorf("ack decoded as %v, %d, %v", got, seq, err)
	}
}
