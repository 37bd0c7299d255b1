package ber

import (
	"errors"
	"fmt"
)

// FrameSize parses the identifier and length octets of the BER element at
// the front of b and returns the total encoded size (header + content
// octets) of that element. It is the slice-based twin of
// Reader.MessageBuffered: code that accumulates raw socket bytes (the load
// generator's idle connections) uses it to find complete frames without a
// streaming reader.
//
//	size, ok, err := FrameSize(buf, max)
//
// ok is false when b is too short to hold the header (read more bytes and
// retry); err is non-nil for malformed headers or a declared total above
// max (wrapping ErrTooLarge), applying exactly the checks — in the same
// order, with the same messages — that Reader.ReadElement applies, so the
// two ingest paths cannot disagree on which inputs are refused. max <= 0
// means DefaultMaxMessageSize. Note ok=true only says the header is
// complete and legal: b may still hold fewer than size content bytes.
func FrameSize(b []byte, max int) (size int, ok bool, err error) {
	if max <= 0 {
		max = DefaultMaxMessageSize
	}
	if len(b) == 0 {
		return 0, false, nil
	}
	off := 1
	if b[0]&0x1F == 0x1F {
		for {
			if off >= len(b) {
				return 0, false, nil
			}
			c := b[off]
			off++
			if c&0x80 == 0 {
				break
			}
			// Matches ReadElement: identifier plus six continuation octets is
			// already past any tag the decoder accepts (25 bits).
			if off > 6 {
				return 0, false, errors.New("ber: tag number too large")
			}
		}
	}
	if off >= len(b) {
		return 0, false, nil
	}
	lb := b[off]
	off++
	length := 0
	if lb < 0x80 {
		length = int(lb)
	} else {
		n := int(lb & 0x7F)
		if n == 0 || n > 4 {
			return 0, false, fmt.Errorf("ber: unsupported length form %#x", lb)
		}
		if off+n > len(b) {
			return 0, false, nil
		}
		for i := 0; i < n; i++ {
			length = length<<8 | int(b[off+i])
		}
		off += n
	}
	if total := off + length; total > max {
		return 0, false, fmt.Errorf("%w: %d bytes over limit %d", ErrTooLarge, total, max)
	}
	if length > MaxElementSize {
		return 0, false, fmt.Errorf("ber: element of %d bytes exceeds limit", length)
	}
	return off + length, true, nil
}
