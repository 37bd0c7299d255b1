package ber

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// corpusInputs loads every checked-in fuzz input for FuzzDecode, so the
// differential tests cover exactly the adversarial shapes fuzzing has found.
func corpusInputs(t *testing.T) [][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	var out [][]byte
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") {
				continue
			}
			q := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
			s, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("%s: unquote %s: %v", ent.Name(), q, err)
			}
			out = append(out, []byte(s))
		}
	}
	if len(out) == 0 {
		t.Fatal("empty corpus")
	}
	return out
}

// sampleMessages returns realistic wire messages (the shapes the LDAP layer
// actually produces) plus edge encodings.
func sampleMessages() [][]byte {
	deep := NewSequence()
	cur := deep
	for i := 0; i < 20; i++ {
		next := NewSequence(NewInteger(int64(i)))
		cur.Append(next)
		cur = next
	}
	msgs := []*Element{
		// modify-request shape
		NewSequence(NewInteger(7), ApplicationConstructed(6,
			NewOctetString("cn=Bench Person 0001,o=Lucent"),
			NewSequence(NewSequence(NewEnumerated(2), NewSequence(
				NewOctetString("roomNumber"), NewSet(NewOctetString("W-1041"))))))),
		// search-entry shape
		NewSequence(NewInteger(3), ApplicationConstructed(4,
			NewOctetString("cn=Bench Person 0001,o=Lucent"),
			NewSequence(
				NewSequence(NewOctetString("objectClass"), NewSet(NewOctetString("mcPerson"), NewOctetString("definityUser"))),
				NewSequence(NewOctetString("cn"), NewSet(NewOctetString("Bench Person 0001")))))),
		NewNull(),
		NewBoolean(true),
		Tagged(ClassContext, 31, NewOctetString("high tag")), // high-tag-number form
		NewBytes(bytes.Repeat([]byte{0xAB}, 300)),            // long-form length
		deep,
		NewSequence(), // empty constructed
	}
	var out [][]byte
	for _, m := range msgs {
		out = append(out, m.Encode())
	}
	return out
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestDecoderDifferential pins the zero-copy arena decoder byte-identical to
// the canonical Decode over the checked-in fuzz corpus and realistic message
// shapes: same tree, same consumed count, same error.
func TestDecoderDifferential(t *testing.T) {
	inputs := append(corpusInputs(t), sampleMessages()...)
	var d Decoder
	for i, in := range inputs {
		want, wantN, wantErr := Decode(in)
		got, gotN, gotErr := d.Decode(in)
		if !sameError(wantErr, gotErr) {
			t.Fatalf("input %d (%x): error mismatch: Decode=%v Decoder=%v", i, in, wantErr, gotErr)
		}
		if gotN != wantN {
			t.Fatalf("input %d (%x): consumed %d, want %d", i, in, gotN, wantN)
		}
		if wantErr == nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("input %d (%x): tree mismatch:\nDecode:  %v\nDecoder: %v", i, in, want, got)
		}
	}
}

// TestReaderDifferential pins Reader.ReadElement against the allocating
// readElementRef over the same inputs, framed as streams.
func TestReaderDifferential(t *testing.T) {
	inputs := append(corpusInputs(t), sampleMessages()...)
	rd := NewReader(bytes.NewReader(nil))
	for i, in := range inputs {
		want, wantErr := readElementRef(bytes.NewReader(in))
		src := bytes.NewReader(in)
		rd.Reset(src)
		got, gotErr := rd.ReadElement()
		if !sameError(wantErr, gotErr) {
			t.Fatalf("input %d (%x): error mismatch: readElementRef=%v Reader=%v", i, in, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("input %d (%x): tree mismatch:\nreadElementRef: %v\nReader:         %v", i, in, want, got)
		}
	}
}

// readElementRef is the reference stream reader Reader is checked against:
// the original allocating implementation, kept here because nothing outside
// the tests reads elements this way any more. It reads the identifier and
// length octets byte-at-a-time, then the content in full; the result owns
// its memory, and the message is bounded by DefaultMaxMessageSize.
func readElementRef(r io.Reader) (*Element, error) {
	header := make([]byte, 0, 8)
	one := make([]byte, 1)

	readByte := func() (byte, error) {
		if _, err := io.ReadFull(r, one); err != nil {
			return 0, err
		}
		header = append(header, one[0])
		return one[0], nil
	}

	ident, err := readByte()
	if err != nil {
		return nil, err
	}
	if ident&0x1F == 0x1F {
		for {
			c, err := readByte()
			if err != nil {
				return nil, err
			}
			if c&0x80 == 0 {
				break
			}
			if len(header) > 6 {
				return nil, errors.New("ber: tag number too large")
			}
		}
	}
	lb, err := readByte()
	if err != nil {
		return nil, err
	}
	length := 0
	if lb < 0x80 {
		length = int(lb)
	} else {
		n := int(lb & 0x7F)
		if n == 0 || n > 4 {
			return nil, fmt.Errorf("ber: unsupported length form %#x", lb)
		}
		for i := 0; i < n; i++ {
			c, err := readByte()
			if err != nil {
				return nil, err
			}
			length = length<<8 | int(c)
		}
	}
	if total := len(header) + length; total > DefaultMaxMessageSize {
		return nil, fmt.Errorf("%w: %d bytes over limit %d", ErrTooLarge, total, DefaultMaxMessageSize)
	}
	if length > MaxElementSize {
		return nil, fmt.Errorf("ber: element of %d bytes exceeds limit", length)
	}
	buf := make([]byte, len(header)+length)
	copy(buf, header)
	if _, err := io.ReadFull(r, buf[len(header):]); err != nil {
		return nil, err
	}
	e, _, err := Decode(buf)
	return e, err
}

// TestReaderBorrowedAliasing pins the ownership rule: trees from one
// ReadElement are overwritten by the next, and Clone detaches them.
func TestReaderBorrowedAliasing(t *testing.T) {
	msg1 := NewSequence(NewInteger(1), NewOctetString("first message value")).Encode()
	msg2 := NewSequence(NewInteger(2), NewOctetString("SECOND OVERWRITES!!")).Encode()
	rd := NewReader(bytes.NewReader(append(append([]byte(nil), msg1...), msg2...)))

	e1, err := rd.ReadElement()
	if err != nil {
		t.Fatal(err)
	}
	retained := e1.Clone()              // the copy-on-retain rule
	borrowedVal := e1.Children[1].Value // aliases rd.buf
	snapshot := string(e1.Children[1].Value)

	if _, err := rd.ReadElement(); err != nil {
		t.Fatal(err)
	}
	// The borrowed slice aliases the reused read buffer, so it must now show
	// msg2's bytes — proof the buffer really is reused, and why retention
	// without Clone is a bug.
	if string(borrowedVal) == snapshot {
		t.Fatalf("read buffer was not reused; borrowed value still %q", borrowedVal)
	}
	// The clone is unaffected.
	if got := string(retained.Children[1].Value); got != snapshot {
		t.Fatalf("cloned value changed: %q, want %q", got, snapshot)
	}
}

// TestReaderAllocs is the decode-path allocation regression: steady-state
// wire reads allocate nothing, and in any case no more than half of what the
// allocating reference decoder (readElementRef) pays on the same message.
func TestReaderAllocs(t *testing.T) {
	msg := sampleMessages()[0] // modify-request shape
	src := bytes.NewReader(msg)
	rd := NewReader(src)

	newAllocs := testing.AllocsPerRun(200, func() {
		src.Reset(msg)
		rd.Reset(src)
		if _, err := rd.ReadElement(); err != nil {
			t.Fatal(err)
		}
	})
	oldAllocs := testing.AllocsPerRun(200, func() {
		src.Reset(msg)
		if _, err := readElementRef(src); err != nil {
			t.Fatal(err)
		}
	})
	if newAllocs > 0 {
		t.Errorf("Reader.ReadElement allocates %.1f per message, want 0", newAllocs)
	}
	if newAllocs > oldAllocs/2 {
		t.Errorf("Reader.ReadElement allocates %.1f per message, want <= half of legacy %.1f", newAllocs, oldAllocs)
	}
	t.Logf("allocs/msg: reader=%.1f legacy=%.1f", newAllocs, oldAllocs)
}

// TestReaderMaxMessageSize: an oversized declared length fails with
// ErrTooLarge before any content allocation or read.
func TestReaderMaxMessageSize(t *testing.T) {
	// SEQUENCE with a declared 1 MB body, but only a few bytes behind it.
	huge := []byte{0x30, 0x83, 0x10, 0x00, 0x00, 0x01, 0x02, 0x03}
	rd := NewReader(bytes.NewReader(huge))
	rd.SetMaxMessageSize(1024)
	_, err := rd.ReadElement()
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	// Without SetMaxMessageSize the default bound applies.
	over := []byte{0x30, 0x84, 0x01, 0x00, 0x00, 0x01} // 16 MB + 1... declared
	if _, err := NewReader(bytes.NewReader(over)).ReadElement(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("default bound: got %v, want ErrTooLarge", err)
	}
	// Within bounds still works.
	ok := NewOctetString("fits").Encode()
	rd2 := NewReader(bytes.NewReader(ok))
	rd2.SetMaxMessageSize(64)
	if _, err := rd2.ReadElement(); err != nil {
		t.Fatalf("in-bounds read failed: %v", err)
	}
}

// TestMessageBuffered drives the flush-coalescing predicate: complete
// pipelined messages report true, partial ones false, malformed or
// oversized pending bytes true (so the reader surfaces the error instead of
// stalling behind a skipped flush).
func TestMessageBuffered(t *testing.T) {
	msg1 := NewSequence(NewInteger(1), NewOctetString("one")).Encode()
	msg2 := NewSequence(NewInteger(2), NewOctetString("two")).Encode()

	// Nothing read yet: nothing buffered.
	rd := NewReader(bytes.NewReader(append(append([]byte(nil), msg1...), msg2...)))
	if rd.MessageBuffered() {
		t.Fatal("fresh reader claims a buffered message")
	}
	// After reading msg1, msg2 is fully buffered.
	if _, err := rd.ReadElement(); err != nil {
		t.Fatal(err)
	}
	if !rd.MessageBuffered() {
		t.Fatal("complete pipelined message not detected")
	}
	if _, err := rd.ReadElement(); err != nil {
		t.Fatal(err)
	}
	if rd.MessageBuffered() {
		t.Fatal("drained reader claims a buffered message")
	}

	// Partial second message: not complete, must report false so the server
	// flushes before blocking.
	partial := append(append([]byte(nil), msg1...), msg2[:3]...)
	rd = NewReader(bytes.NewReader(partial))
	if _, err := rd.ReadElement(); err != nil {
		t.Fatal(err)
	}
	if rd.MessageBuffered() {
		t.Fatal("partial message reported as complete")
	}

	// Oversized pending message: report true so the read errors promptly.
	over := []byte{0x30, 0x84, 0x00, 0x50, 0x00, 0x00}
	rd = NewReader(bytes.NewReader(append(append([]byte(nil), msg1...), over...)))
	rd.SetMaxMessageSize(1024)
	if _, err := rd.ReadElement(); err != nil {
		t.Fatal(err)
	}
	if !rd.MessageBuffered() {
		t.Fatal("oversized pending message should report buffered (error path)")
	}
	if _, err := rd.ReadElement(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

// TestReaderStream re-runs the legacy stream test shape against Reader: two
// elements back-to-back, then EOF.
func TestReaderStream(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(NewOctetString("hello").Encode())
	buf.Write(NewInteger(42).Encode())
	rd := NewReader(&buf)
	e1, err := rd.ReadElement()
	if err != nil {
		t.Fatal(err)
	}
	if e1.Str() != "hello" {
		t.Fatalf("first element %q", e1.Str())
	}
	e2, err := rd.ReadElement()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e2.Int(); v != 42 {
		t.Fatalf("second element %d", v)
	}
	if _, err := rd.ReadElement(); err != io.EOF {
		t.Fatalf("got %v at end of stream, want io.EOF", err)
	}
}
