package ber

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestIntegerRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1 << 20, -(1 << 20), math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		e := NewInteger(v)
		dec, err := DecodeFull(e.Encode())
		if err != nil {
			t.Fatalf("decode %d: %v", v, err)
		}
		got, err := dec.Int()
		if err != nil {
			t.Fatalf("Int() for %d: %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d: got %d", v, got)
		}
	}
}

func TestIntegerMinimalEncoding(t *testing.T) {
	cases := map[int64]int{
		0:       1,
		127:     1,
		128:     2, // needs a leading 0x00
		-128:    1,
		-129:    2,
		1 << 15: 3,
	}
	for v, wantLen := range cases {
		if got := len(NewInteger(v).Value); got != wantLen {
			t.Errorf("integer %d: content length %d, want %d", v, got, wantLen)
		}
	}
}

func TestIntegerProperty(t *testing.T) {
	f := func(v int64) bool {
		dec, err := DecodeFull(NewInteger(v).Encode())
		if err != nil {
			return false
		}
		got, err := dec.Int()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOctetStringRoundTripProperty(t *testing.T) {
	f := func(s []byte) bool {
		dec, err := DecodeFull(NewBytes(s).Encode())
		if err != nil {
			return false
		}
		return bytes.Equal(dec.Value, s) && dec.Is(ClassUniversal, TagOctetString)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolean(t *testing.T) {
	for _, v := range []bool{true, false} {
		dec, err := DecodeFull(NewBoolean(v).Encode())
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Bool()
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("bool %v round-tripped to %v", v, got)
		}
	}
}

func TestSequenceNesting(t *testing.T) {
	seq := NewSequence(
		NewInteger(42),
		NewOctetString("cn=John Doe, o=Marketing, o=Lucent"),
		NewSequence(NewBoolean(true), NewEnumerated(3)),
	)
	dec, err := DecodeFull(seq.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Children) != 3 {
		t.Fatalf("got %d children, want 3", len(dec.Children))
	}
	inner, err := dec.Child(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.Children) != 2 {
		t.Fatalf("inner children = %d, want 2", len(inner.Children))
	}
	en, err := inner.Children[1].Int()
	if err != nil || en != 3 {
		t.Errorf("enumerated = %d, %v", en, err)
	}
}

func TestTaggedPreservesContent(t *testing.T) {
	orig := NewOctetString("telephoneNumber")
	tagged := Tagged(ClassContext, 7, orig)
	dec, err := DecodeFull(tagged.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Is(ClassContext, 7) {
		t.Fatalf("tag = %v/%d", dec.Class, dec.Tag)
	}
	if dec.Str() != "telephoneNumber" {
		t.Errorf("content = %q", dec.Str())
	}
	if orig.Class != ClassUniversal {
		t.Error("Tagged mutated its argument")
	}
}

func TestHighTagNumbers(t *testing.T) {
	for _, tag := range []uint32{30, 31, 127, 128, 16383, 1 << 20} {
		e := &Element{Class: ClassApplication, Tag: tag, Value: []byte("x")}
		dec, err := DecodeFull(e.Encode())
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if dec.Tag != tag {
			t.Errorf("tag %d decoded as %d", tag, dec.Tag)
		}
	}
}

func TestLongFormLength(t *testing.T) {
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i)
	}
	dec, err := DecodeFull(NewBytes(big).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Value, big) {
		t.Error("long-form content mismatch")
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := NewSequence(NewInteger(1), NewOctetString("abcdef")).Encode()
	for i := 1; i < len(full); i++ {
		if _, _, err := Decode(full[:i]); err == nil {
			t.Errorf("decoding %d-byte prefix succeeded", i)
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	b := append(NewInteger(5).Encode(), 0x00)
	if _, err := DecodeFull(b); err == nil {
		t.Error("DecodeFull accepted trailing bytes")
	}
}

func TestDecodeRejectsIndefiniteLength(t *testing.T) {
	// 0x30 0x80 ... is an indefinite-length SEQUENCE (not valid in LDAP).
	if _, _, err := Decode([]byte{0x30, 0x80, 0x00, 0x00}); err == nil {
		t.Error("indefinite length accepted")
	}
}

func TestDecodeRejectsHugeElement(t *testing.T) {
	// Claims 2^31-ish content length.
	b := []byte{0x04, 0x84, 0x7F, 0xFF, 0xFF, 0xFF}
	if _, _, err := Decode(b); err == nil {
		t.Error("oversized element accepted")
	}
}

func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		// Must not panic; errors are fine.
		Decode(b)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadElementFromStream(t *testing.T) {
	var buf bytes.Buffer
	first := NewSequence(NewInteger(1), NewOctetString("one"))
	second := NewSequence(NewInteger(2), NewOctetString("two"))
	buf.Write(first.Encode())
	buf.Write(second.Encode())
	rd := NewReader(&buf)

	e1, err := rd.ReadElement()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := e1.Children[0].Int(); v != 1 {
		t.Errorf("first message id = %d", v)
	}
	e2, err := rd.ReadElement()
	if err != nil {
		t.Fatal(err)
	}
	if e2.Children[1].Str() != "two" {
		t.Errorf("second payload = %q", e2.Children[1].Str())
	}
	if _, err := rd.ReadElement(); err == nil {
		t.Error("expected EOF on empty stream")
	}
}

func TestReadElementLongForm(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 1000)
	var buf bytes.Buffer
	buf.Write(NewBytes(payload).Encode())
	e, err := NewReader(&buf).ReadElement()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Value, payload) {
		t.Error("long-form stream read mismatch")
	}
}

func TestChildOutOfRange(t *testing.T) {
	seq := NewSequence(NewNull())
	if _, err := seq.Child(1); err == nil {
		t.Error("Child(1) on 1-element sequence succeeded")
	}
	if _, err := seq.Child(-1); err == nil {
		t.Error("Child(-1) succeeded")
	}
}

func TestBoolRejectsBadEncodings(t *testing.T) {
	e := &Element{Class: ClassUniversal, Tag: TagBoolean, Value: []byte{1, 2}}
	if _, err := e.Bool(); err == nil {
		t.Error("two-byte boolean accepted")
	}
}

func TestIntRejectsEmptyAndOversized(t *testing.T) {
	e := &Element{Class: ClassUniversal, Tag: TagInteger}
	if _, err := e.Int(); err == nil {
		t.Error("empty integer accepted")
	}
	e.Value = make([]byte, 9)
	if _, err := e.Int(); err == nil {
		t.Error("9-byte integer accepted")
	}
}

func BenchmarkEncodeSearchRequestShape(b *testing.B) {
	e := NewSequence(
		NewInteger(7),
		ApplicationConstructed(3,
			NewOctetString("o=Lucent"),
			NewEnumerated(2),
			NewEnumerated(0),
			NewInteger(0),
			NewInteger(0),
			NewBoolean(false),
			ContextConstructed(3, NewOctetString("cn"), NewOctetString("John Doe")),
		),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Encode()
	}
}

func BenchmarkDecodeSearchRequestShape(b *testing.B) {
	enc := NewSequence(
		NewInteger(7),
		ApplicationConstructed(3,
			NewOctetString("o=Lucent"),
			NewEnumerated(2),
			NewEnumerated(0),
			NewInteger(0),
			NewInteger(0),
			NewBoolean(false),
			ContextConstructed(3, NewOctetString("cn"), NewOctetString("John Doe")),
		),
	).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFull(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendMatchesTree checks the append primitives against the element
// tree encoder: content lengths on each side of the one-, two- and
// three-octet length forms, nested constructed elements whose lengths cross
// them too, integers of every width and high tag numbers.
func TestAppendMatchesTree(t *testing.T) {
	ints := []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for _, n := range []int{0, 1, 126, 127, 128, 129, 255, 256, 257, 65535, 65536, 65537} {
		s := string(bytes.Repeat([]byte{'x'}, n))
		for _, tag := range []uint32{5, 30, 31, 200, 1 << 20} {
			for _, v := range ints {
				tree := NewSequence(
					NewOctetString(s),
					NewInteger(v),
					NewBoolean(n%2 == 0),
					ApplicationConstructed(tag,
						ContextPrimitive(tag, []byte(s)),
						NewSet(NewEnumerated(v)),
						NewSequence()),
					Tagged(ClassApplication, tag, NewInteger(v)),
				)
				buf, seq := BeginConstructed([]byte("prefix"), ClassUniversal, TagSequence)
				buf = AppendOctetString(buf, s)
				buf = AppendInt(buf, ClassUniversal, TagInteger, v)
				buf = AppendBoolean(buf, n%2 == 0)
				buf, app := BeginConstructed(buf, ClassApplication, tag)
				buf = AppendString(buf, ClassContext, tag, s)
				buf, set := BeginConstructed(buf, ClassUniversal, TagSet)
				buf = AppendInt(buf, ClassUniversal, TagEnumerated, v)
				buf = EndConstructed(buf, set)
				buf = AppendHeader(buf, ClassUniversal, TagSequence, true, 0)
				buf = EndConstructed(buf, app)
				buf = AppendInt(buf, ClassApplication, tag, v)
				buf = EndConstructed(buf, seq)
				if want := append([]byte("prefix"), tree.Encode()...); !bytes.Equal(buf, want) {
					t.Fatalf("length %d, tag %d, int %d: append primitives differ from the tree encoding", n, tag, v)
				}
			}
		}
	}
}
