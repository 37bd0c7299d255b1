package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"log"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/record"
)

// streamDIT is a fresh consumer tree holding only the suffix.
func streamDIT(t testing.TB) *directory.DIT {
	t.Helper()
	d := directory.New(nil)
	d.SetNodeID(9)
	org := directory.NewAttrs()
	org.Put("objectClass", "organization")
	if err := d.Add(dn.MustParse("o=Lucent"), org); err != nil {
		t.Fatal(err)
	}
	return d
}

func testLink(d *directory.DIT) *link {
	return newLink("unused", 9, d, nil, nil)
}

// personFrame is the entry frame for cn=<name>,o=Lucent stamped seq/node 1.
func personFrame(t testing.TB, name string, seq uint64) []byte {
	t.Helper()
	var enc record.Encoder
	rec := record.Record{Op: "entry", DN: "cn=" + name + ",o=Lucent", OriginSeq: seq, OriginNode: 1,
		Fields: []record.Field{{Display: "objectClass", Vals: []string{"person"}}, {Display: "cn", Vals: []string{name}}}}
	frame, err := enc.AppendRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func has(d *directory.DIT, name string) bool {
	_, err := d.Get(dn.MustParse("cn=" + name + ",o=Lucent"))
	return err == nil
}

func consume(l *link, stream []byte) error {
	return l.consume(bufio.NewReader(bytes.NewReader(stream)))
}

// TestCorruptFrameAppliesNothingFromItsBatch: records that arrived together
// are one batch; a checksum failure inside it ends the session with the
// damaged frame and everything after it unapplied and the cursor unmoved.
func TestCorruptFrameAppliesNothingFromItsBatch(t *testing.T) {
	bad := personFrame(t, "Bad", 3)
	bad[len(bad)/2] ^= 0x10
	var stream []byte
	stream = appendControl(stream, tagSnapshotBegin, 40)
	stream = append(stream, personFrame(t, "Good", 2)...)
	stream = append(stream, bad...)
	stream = append(stream, personFrame(t, "After", 4)...)
	stream = appendControl(stream, tagSnapshotEnd, 40, 3)

	d := streamDIT(t)
	l := testLink(d)
	err := consume(l, stream)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("consume = %v, want a checksum error", err)
	}
	if has(d, "Bad") || has(d, "After") {
		t.Fatal("a record at or after the corrupt frame was applied")
	}
	if l.cursor.Load() != 0 || l.connected.Load() {
		t.Fatalf("cursor %d, connected %v after an aborted snapshot", l.cursor.Load(), l.connected.Load())
	}

	// The same stream undamaged applies all three and lands the cursor.
	copy(stream[bytes.Index(stream, bad):], personFrame(t, "Bad", 3))
	if err := consume(l, stream); err != io.EOF && !errors.Is(err, record.ErrTorn) {
		t.Fatalf("clean stream ended with %v", err)
	}
	if !has(d, "Good") || !has(d, "Bad") || !has(d, "After") || l.cursor.Load() != 40 {
		t.Fatalf("clean snapshot incomplete, cursor %d", l.cursor.Load())
	}
}

// TestChangeGroupIsNeverSplit: a rename travels as delete+upsert under one
// change frame. A connection that dies between the two must leave neither
// applied and the cursor where it was, so the resume re-fetches both.
func TestChangeGroupIsNeverSplit(t *testing.T) {
	d := streamDIT(t)
	l := testLink(d)
	var enc record.Encoder
	del, err := enc.AppendRecord(nil, &record.Record{Op: "delete", DN: "cn=Old,o=Lucent", OriginSeq: 8, OriginNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	stream = appendControl(stream, tagResume, 5)
	stream = appendControl(stream, tagChange, 6, 1)
	stream = append(stream, personFrame(t, "Old", 7)...)
	stream = appendControl(stream, tagChange, 7, 2)
	stream = append(stream, del...)
	cut := len(stream)
	stream = append(stream, personFrame(t, "New", 8)...)

	if err := consume(l, stream[:cut]); err == nil {
		t.Fatal("truncated stream consumed without error")
	}
	if l.cursor.Load() != 6 && l.cursor.Load() != 0 {
		t.Fatalf("cursor %d after a torn change group, want at most 6", l.cursor.Load())
	}
	if has(d, "New") || (l.cursor.Load() == 6) != has(d, "Old") {
		t.Fatalf("torn group partly applied: Old=%v New=%v cursor=%d", has(d, "Old"), has(d, "New"), l.cursor.Load())
	}

	consume(l, stream)
	if has(d, "Old") || !has(d, "New") || l.cursor.Load() != 7 {
		t.Fatalf("whole group: Old=%v New=%v cursor=%d, want the rename applied at 7", has(d, "Old"), has(d, "New"), l.cursor.Load())
	}
	if l.applied.Load() < 3 || l.structural.Load() != 0 {
		t.Fatalf("applied %d, structural %d", l.applied.Load(), l.structural.Load())
	}

	// Protocol violations end the session instead of being guessed at.
	for name, bad := range map[string][]byte{
		"record outside a group": append(appendControl(nil, tagResume, 7), personFrame(t, "Stray", 9)...),
		"control inside a group": appendControl(appendControl(appendControl(nil, tagResume, 7), tagChange, 8, 2), tagChange, 9, 1),
		"snapshot short a record": append(appendControl(nil, tagSnapshotBegin, 9),
			appendControl(personFrame(t, "Lone", 9), tagSnapshotEnd, 9, 2)...),
		"empty group": appendControl(appendControl(nil, tagResume, 7), tagChange, 8, 0),
	} {
		if err := consume(testLink(streamDIT(t)), bad); err == nil || err == io.EOF || errors.Is(err, record.ErrTorn) {
			t.Errorf("%s: consume = %v, want a protocol error", name, err)
		}
	}
}

// readRefusal reads the publisher's single answer and requires it to be a
// refusal naming the publisher's version and peerVersion, then EOF.
func readRefusal(t *testing.T, nc net.Conn, peerVersion uint64) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	var fr record.Reader
	p, _, err := fr.ReadFrame(br)
	if err != nil {
		t.Fatalf("no refusal frame: %v", err)
	}
	tag, v, err := parseControl(p)
	if err != nil || tag != tagRefuse || v[0] != wireVersion || v[1] != peerVersion {
		t.Fatalf("answer = tag %#x %v (%v), want refuse(%d, %d)", tag, v, err, wireVersion, peerVersion)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("publisher kept the connection open after refusing: %v", err)
	}
}

// TestPublisherRefusesOtherVersions: an old newline-JSON consumer and a
// consumer from the future both get one refusal frame and a closed
// connection, not silence and not a stream they cannot read.
func TestPublisherRefusesOtherVersions(t *testing.T) {
	pub := NewPublisher(streamDIT(t))
	addr, err := pub.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for name, hello := range map[string][]byte{
		"json":   []byte(`{"type":"hello","node":3,"cursor":17}` + "\n"),
		"future": appendControl(nil, tagHello, wireVersion+1, 3, 17),
	} {
		nc, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(hello); err != nil {
			t.Fatal(err)
		}
		peer := uint64(0)
		if name == "future" {
			peer = wireVersion + 1
		}
		readRefusal(t, nc, peer)
		nc.Close()
	}
	if st := pub.Stats(); st.Resumes+st.Snapshots != 0 {
		t.Fatalf("a refused consumer was served: %+v", st)
	}
}

// TestLinkBacksOffFromOtherVersions: against a publisher that refuses it
// (or answers in another protocol altogether) a link says so once and
// backs off exponentially instead of redialling every 100 ms.
func TestLinkBacksOffFromOtherVersions(t *testing.T) {
	for name, answer := range map[string][]byte{
		"refused": appendControl(nil, tagRefuse, wireVersion+1, wireVersion),
		"json":    []byte(`{"type":"resume","seq":0}` + "\n"),
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			var dials atomic.Int32
			go func() {
				for {
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					dials.Add(1)
					var fr record.Reader
					fr.ReadFrame(bufio.NewReader(nc)) // the hello
					nc.Write(answer)
					nc.Close()
				}
			}()
			var logged bytes.Buffer
			logger := log.New(&logged, "", 0)
			l := newLink(ln.Addr().String(), 1, streamDIT(t), nil, nil)
			l.start(logger)
			// Flat 100 ms redials would make ~15 attempts in 1.5 s; doubling
			// from 200 ms makes 4 (at 0, 0.2, 0.6 and 1.4 s).
			time.Sleep(1500 * time.Millisecond)
			l.stopAndWait()
			if n := dials.Load(); n < 2 || n > 5 {
				t.Fatalf("%d dials in 1.5 s, want exponential backoff (about 4)", n)
			}
			if got := strings.Count(logged.String(), "wire version mismatch"); got != 1 {
				t.Fatalf("mismatch logged %d times, want once:\n%s", got, logged.String())
			}
		})
	}
}

// FuzzReplicaStream feeds arbitrary bytes to the link as a publisher's side
// of a session: it must never panic, and it must never apply a record whose
// frame failed its checksum — counted here by an independent walk of the
// frames that stops at the first damaged one.
func FuzzReplicaStream(f *testing.F) {
	var snap, live []byte
	snap = appendControl(snap, tagSnapshotBegin, 12)
	snap = append(snap, personFrame(f, "A", 2)...)
	snap = append(snap, personFrame(f, "B", 3)...)
	snap = appendControl(snap, tagSnapshotEnd, 12, 2)
	live = appendControl(live, tagResume, 12)
	live = appendControl(live, tagChange, 13, 1)
	live = append(live, personFrame(f, "C", 4)...)
	f.Add(snap)
	f.Add(live)
	f.Add(append(append([]byte(nil), snap...), live[len(appendControl(nil, tagResume, 12)):]...))
	f.Add(appendControl(nil, tagRefuse, 3, 2))
	f.Add([]byte(`{"type":"resume","seq":1}` + "\n"))
	f.Add([]byte{record.Marker, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := streamDIT(t)
		l := testLink(d)
		if err := consume(l, data); err == nil {
			t.Fatal("consume returned without an error on a finite stream")
		}
		// Records inside frames whose checksum holds, up to the first frame
		// that is damaged, torn or not a frame at all.
		sound := uint64(0)
		for rest := data; len(rest) > 0 && rest[0] == record.Marker; {
			plen, vn := binary.Uvarint(rest[1:])
			if vn <= 0 || plen > uint64(len(rest)) || uint64(len(rest)) < 1+uint64(vn)+plen+4 {
				break
			}
			payload := rest[1+vn : 1+vn+int(plen)]
			sum := binary.LittleEndian.Uint32(rest[1+vn+int(plen):])
			if crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) != sum {
				break
			}
			if len(payload) > 0 && payload[0] < record.ControlBase {
				sound++
			}
			rest = rest[1+vn+int(plen)+4:]
		}
		if got := l.applied.Load() + l.noops.Load() + l.structural.Load(); got > sound {
			t.Fatalf("link resolved %d records, only %d arrived in sound frames", got, sound)
		}
		if uint64(d.Len()) > 1+sound {
			t.Fatalf("tree holds %d entries from %d sound records", d.Len(), sound)
		}
	})
}
