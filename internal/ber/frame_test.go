package ber

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
)

func TestFrameSizeBasic(t *testing.T) {
	enc := NewSequence(NewInteger(7), NewOctetString("hello")).Encode()

	// Every strict prefix of the header reports "need more bytes"; once the
	// header is in, the full frame size comes back even before the content.
	for i := 0; i < len(enc); i++ {
		size, ok, err := FrameSize(enc[:i], 0)
		if err != nil {
			t.Fatalf("prefix %d: unexpected error %v", i, err)
		}
		if i < 2 { // identifier + short-form length
			if ok {
				t.Fatalf("prefix %d: want ok=false, got size %d", i, size)
			}
			continue
		}
		if !ok || size != len(enc) {
			t.Fatalf("prefix %d: got (%d,%v), want (%d,true)", i, size, ok, len(enc))
		}
	}
	// Trailing bytes beyond the first frame are ignored.
	size, ok, err := FrameSize(append(append([]byte{}, enc...), enc...), 0)
	if err != nil || !ok || size != len(enc) {
		t.Fatalf("two frames: got (%d,%v,%v), want (%d,true,nil)", size, ok, err, len(enc))
	}
}

func TestFrameSizeLongForm(t *testing.T) {
	enc := NewOctetString(string(bytes.Repeat([]byte{'x'}, 300))).Encode() // 0x04 0x82 0x01 0x2C ...
	size, ok, err := FrameSize(enc, 0)
	if err != nil || !ok || size != len(enc) {
		t.Fatalf("got (%d,%v,%v), want (%d,true,nil)", size, ok, err, len(enc))
	}
	// Header truncated mid long-form length: need more bytes, no error.
	if _, ok, err := FrameSize(enc[:3], 0); ok || err != nil {
		t.Fatalf("truncated long form: got ok=%v err=%v, want false,nil", ok, err)
	}
}

func TestFrameSizeOversize(t *testing.T) {
	// The oversize probe used by the wire tests: SEQUENCE declaring 16 MB.
	hdr := []byte{0x30, 0x84, 0x01, 0x00, 0x00, 0x00}
	_, _, err := FrameSize(hdr, 1<<16)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	// The same declared length under a permissive max is a legal header.
	size, ok, err := FrameSize(hdr, 32<<20)
	if err != nil || !ok || size != 6+(1<<24) {
		t.Fatalf("got (%d,%v,%v), want (%d,true,nil)", size, ok, err, 6+(1<<24))
	}
}

func TestFrameSizeMalformed(t *testing.T) {
	if _, _, err := FrameSize([]byte{0x30, 0x85, 0, 0, 0, 0, 0}, 0); err == nil {
		t.Fatal("5-octet length form: want error")
	}
	if _, _, err := FrameSize([]byte{0x30, 0x80}, 0); err == nil {
		t.Fatal("indefinite length: want error")
	}
	if _, _, err := FrameSize([]byte{0x1F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 0); err == nil {
		t.Fatal("tag continuation past 25 bits: want error")
	}
}

// FrameSize and Reader.MessageBuffered must agree: whenever FrameSize sees a
// complete frame (or a header the reader would refuse), a Reader holding the
// same bytes must report a message buffered, and vice versa — the server's
// flush decisions and raw-frame readers such as the load generator's idle
// connections must not disagree on where a message ends.
func TestFrameSizeMatchesMessageBuffered(t *testing.T) {
	enc := NewSequence(NewInteger(3), NewOctetString("abcdef")).Encode()
	cases := [][]byte{
		enc, enc[:1], enc[:2], enc[:5],
		append(append([]byte{}, enc...), enc[:3]...),
		{0x30, 0x85, 0, 0, 0, 0, 0},          // bad length form
		{0x30, 0x84, 0x01, 0x00, 0x00, 0x00}, // oversize vs small max
	}
	const max = 1 << 16
	for i, in := range cases {
		size, ok, err := FrameSize(in, max)
		complete := err != nil || (ok && size <= len(in))
		rd := NewReader(bufio.NewReaderSize(bytes.NewReader(in), 4096))
		rd.SetMaxMessageSize(max)
		// Prime the bufio reader so everything available is buffered.
		if len(in) > 0 {
			_, _ = rd.br.Peek(len(in))
		}
		if got := rd.MessageBuffered(); got != complete {
			t.Errorf("case %d (% x): FrameSize says complete=%v, MessageBuffered says %v",
				i, in, complete, got)
		}
	}
}
