// Package record is MetaComm's one binary codec for update records: the
// CRC frame, the op-tagged record payload inside it, and the per-stream
// attribute-name cache. The directory journal, compaction and the
// replication stream all write and read exactly these bytes, so a record
// costs the same to decode on a cold start as on a joining peer; the Update
// Manager's device outbox journals its own payloads in the same frames, so
// there is one torn-tail rule and one corruption rule in the repository.
//
// Frame layout (all integers little-endian, lengths uvarint):
//
//	0xB2                     frame marker; also the format sniff
//	uvarint payloadLen       bytes between here and the checksum
//	payload                  first byte is the tag that says what it is
//	uint32 CRC32-C           Castagnoli checksum of payload
//
// Payload tags below ControlBase are update records (record.go). A stream
// built on the frame defines its own control payloads at or above it
// (internal/replica: hello, resume, snapshot-begin/-end, change, refuse;
// internal/um's outbox journal: update, ack) and decodes them with the
// exported string, string-list and Cursor primitives.
//
// The marker makes every frame self-describing, so one journal file may
// hold JSON lines followed by frames (a journal appended to after a format
// switch, before the migrating compaction rewrote it). 0xB2 never begins a
// JSON record and '{' never begins a frame.
//
// Damage: a final frame cut short — EOF inside the length, payload or
// checksum — is a tear (ErrTorn): a journal truncates it and carries on
// (DESIGN.md §11), a network stream treats it as a dropped connection. A
// complete frame whose checksum or structure is wrong is corruption and is
// an error wherever it sits. Tears only ever shorten a file, so
// "incomplete" is the only shape a crash leaves.
package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// Marker begins every frame. Deliberately outside ASCII and never the
	// first byte of a JSON record.
	Marker = 0xB2

	// MaxPayload bounds a frame's declared payload so a corrupt length
	// cannot drive an allocation; far above any real entry.
	MaxPayload = 64 << 20

	// ControlBase is the first payload tag that is not an update record.
	ControlBase = 0x40
)

// ErrTorn classifies an incomplete final frame.
var ErrTorn = errors.New("record: torn frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, Marker)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// Reader reads frames from a buffered stream, reusing one payload buffer
// across frames.
type Reader struct {
	payload []byte
}

// ReadFrame reads one frame from r (whose next byte is the marker) and
// returns its checksum-verified payload and the frame's total byte length.
// The payload aliases the reader's buffer and is valid until the next call.
// An incomplete frame returns ErrTorn; a complete frame that fails its
// checksum is corruption and returns a descriptive error.
func (fr *Reader) ReadFrame(r *bufio.Reader) ([]byte, int, error) {
	if b, err := r.ReadByte(); err != nil {
		return nil, 0, ErrTorn
	} else if b != Marker {
		return nil, 1, fmt.Errorf("not a frame: first byte %#02x", b)
	}
	n := 1
	plen, vn, err := readUvarint(r)
	n += vn
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, n, ErrTorn
		}
		return nil, n, err
	}
	if plen > MaxPayload {
		return nil, n, fmt.Errorf("frame payload %d bytes exceeds limit", plen)
	}
	if uint64(cap(fr.payload)) < plen {
		fr.payload = make([]byte, plen)
	}
	p := fr.payload[:plen]
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, n, ErrTorn
	}
	n += int(plen)
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, n, ErrTorn
	}
	n += 4
	if got, want := crc32.Checksum(p, crcTable), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return nil, n, fmt.Errorf("frame checksum mismatch (crc32c %08x, frame says %08x)", got, want)
	}
	return p, n, nil
}

// FrameBuffered reports whether r already holds one complete frame, so that
// reading it cannot block. A stream consumer uses it to take everything
// that has arrived as one batch.
func FrameBuffered(r *bufio.Reader) bool {
	have := r.Buffered()
	if have < 1+1+4 {
		return false
	}
	head := 1 + binary.MaxVarintLen64
	if head > have {
		head = have
	}
	b, _ := r.Peek(head)
	plen, vn := binary.Uvarint(b[1:])
	return vn > 0 && plen <= MaxPayload && uint64(have) >= uint64(1+vn+4)+plen
}

// readUvarint is binary.ReadUvarint with a consumed-byte count, so replay
// can track file offsets for torn-tail truncation.
func readUvarint(r *bufio.Reader) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, i, err
		}
		if i == binary.MaxVarintLen64 {
			return 0, i + 1, errors.New("uvarint overflows 64 bits")
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, i + 1, errors.New("uvarint overflows 64 bits")
			}
			return x | uint64(b)<<s, i + 1, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// Cursor walks a payload during decode with bounds checking: a read past
// the end is an error, never a panic.
type Cursor struct {
	b   []byte
	off int
}

// NewCursor starts a cursor at the first byte of p.
func NewCursor(p []byte) Cursor { return Cursor{b: p} }

var errTruncated = errors.New("payload truncated")

// Rem is the number of unread payload bytes.
func (c *Cursor) Rem() int { return len(c.b) - c.off }

// Byte reads one byte.
func (c *Cursor) Byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, errTruncated
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

// Uvarint reads one unsigned varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	c.off += n
	return v, nil
}

// Count reads an element count and rejects counts that could not fit in the
// remaining payload (each element costs at least min bytes), so a corrupt
// count cannot drive a huge allocation.
func (c *Cursor) Count(min int) (int, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.Rem()/min) {
		return 0, fmt.Errorf("count %d exceeds remaining payload", v)
	}
	return int(v), nil
}

// Str reads one AppendString field.
func (c *Cursor) Str() (string, error) {
	b, err := c.StrBytes()
	return string(b), err
}

// StrBytes returns the next string's bytes without copying; the slice
// aliases the payload buffer and is only valid until the next frame.
func (c *Cursor) StrBytes() ([]byte, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.Rem()) {
		return nil, errTruncated
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

// Values reads one AppendValues list. An empty list reads as nil.
func (c *Cursor) Values() ([]string, error) {
	n, err := c.Count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil // round-trip fidelity: absent and empty both encode as 0
	}
	vals := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v, err := c.Str()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}
