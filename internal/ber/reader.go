package ber

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// This file is the zero-copy wire-decode path. The original stream reader
// (readElementRef in reader_test.go, now only the tests' reference)
// allocated a fresh header slice, a one-byte scratch buffer and a full
// message buffer per message, and Decode allocated every *Element node and
// every Children slice separately — around two dozen allocations for an
// ordinary modify request, multiplied by every message on every connection.
// Reader replaces all of that with per-connection reused storage:
//
//   - header octets are parsed through bufio's ReadByte, so nothing hits the
//     underlying conn byte-at-a-time and no scratch slices exist;
//   - content is read into one message buffer that is reused across
//     messages;
//   - the Element tree is carved out of an arena (one []Element slab and one
//     []*Element child-pointer slab, both reused across messages), and
//     primitive Values are sub-slices of the message buffer.
//
// The price is an ownership rule: everything ReadElement (and Decoder.
// Decode) returns is BORROWED — valid only until the next call on the same
// Reader/Decoder. Callers that retain anything beyond that point (changelog
// records, cache entries, outbox journal lines) must copy first. In this
// codebase the copy happens at the ldap message boundary: ldap.DecodeMessage
// converts every wire octet it keeps into an owned string (or explicitly
// clones the few raw []byte fields), so nothing above the ldap package ever
// sees borrowed memory. The aliasing tests in reader_test.go pin that rule.

// DefaultMaxMessageSize bounds a single wire message (identifier + length +
// content octets) unless the caller overrides it. A few MB comfortably fits
// any legitimate LDAP operation while keeping a hostile peer from making the
// server allocate MaxElementSize per connection.
const DefaultMaxMessageSize = 4 << 20

// ErrTooLarge reports a wire message whose declared length exceeds the
// reader's configured maximum. Servers should answer with a protocol error
// and drop the connection rather than allocate.
var ErrTooLarge = errors.New("ber: message exceeds maximum size")

// maxRetained bounds the buffer and arena capacity a Reader keeps across
// messages, so one unusually large (but legal) message cannot pin memory for
// the connection's lifetime.
const (
	maxRetainedBuf   = 1 << 20
	maxRetainedElems = 1 << 14
)

// arena holds the storage one decoded element tree is carved from. Both
// slabs are sized exactly per message (a cheap header-only counting pass
// runs first), so pointers into them stay valid while the tree is in use and
// the whole arena is reused for the next message.
type arena struct {
	elems []Element
	ptrs  []*Element
	ei    int // next free Element
	pi    int // next free child-pointer slot
}

// reset prepares the arena for a tree of n elements. Trees handed out from
// earlier resets are overwritten — the borrowed-memory contract.
func (a *arena) reset(n int) {
	if cap(a.elems) < n {
		a.elems = make([]Element, n)
	}
	a.elems = a.elems[:cap(a.elems)]
	if cap(a.ptrs) < n {
		a.ptrs = make([]*Element, n)
	}
	a.ptrs = a.ptrs[:cap(a.ptrs)]
	a.ei, a.pi = 0, 0
}

// trim drops oversized slabs so a single huge message does not pin memory.
func (a *arena) trim() {
	if cap(a.elems) > maxRetainedElems {
		a.elems = nil
	}
	if cap(a.ptrs) > maxRetainedElems {
		a.ptrs = nil
	}
}

func (a *arena) newElement() *Element {
	e := &a.elems[a.ei]
	a.ei++
	return e
}

// childSlice reserves a contiguous slice of n child-pointer slots. The
// caller fills it while recursing; reservation happens before recursion so
// a parent's children stay contiguous even though grandchildren are carved
// in between.
func (a *arena) childSlice(n int) []*Element {
	s := a.ptrs[a.pi : a.pi+n : a.pi+n]
	a.pi += n
	return s
}

// Decoder decodes BER elements zero-copy: primitive Values alias the input
// buffer and the Element tree lives in an arena reused across Decode calls.
// The returned tree is only valid until the next Decode on the same Decoder;
// retain with Element data only after copying. The zero value is ready to
// use. Not safe for concurrent use.
type Decoder struct {
	a arena
}

// Decode parses a single element from the front of b, returning the element
// and the number of bytes consumed. It is byte-for-byte equivalent to the
// package-level Decode (the differential test pins this over the fuzz
// corpora) but performs zero allocations at steady state.
func (d *Decoder) Decode(b []byte) (*Element, int, error) {
	n, err := countElements(b, 0)
	if err != nil {
		// Delegate malformed input to the canonical decoder so the two
		// paths cannot disagree on which error a given input produces.
		return decode(b, 0)
	}
	d.a.reset(n)
	e, consumed := decodeArena(b, &d.a)
	return e, consumed, nil
}

// countElements walks b's element headers (skipping primitive content) and
// returns the total node count of the first element. It applies exactly the
// checks decode applies, in the same order, so an input passes either both
// passes or neither.
func countElements(b []byte, depth int) (int, error) {
	n, _, err := countOne(b, depth)
	return n, err
}

func countOne(b []byte, depth int) (nodes, consumed int, err error) {
	if depth > maxDepth {
		return 0, 0, errors.New("ber: nesting too deep")
	}
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	ident := b[0]
	constructed := ident&0x20 != 0
	off := 1
	if ident&0x1F == 0x1F {
		tag := uint32(0)
		for {
			if off >= len(b) {
				return 0, 0, ErrTruncated
			}
			if tag > (1<<25)-1 {
				return 0, 0, errors.New("ber: tag number too large")
			}
			c := b[off]
			off++
			tag = tag<<7 | uint32(c&0x7F)
			if c&0x80 == 0 {
				break
			}
		}
	}
	length, ln, err := decodeLength(b[off:])
	if err != nil {
		return 0, 0, err
	}
	off += ln
	if length > MaxElementSize {
		return 0, 0, fmt.Errorf("ber: element of %d bytes exceeds limit", length)
	}
	if off+length > len(b) {
		return 0, 0, ErrTruncated
	}
	nodes = 1
	if constructed {
		for rest := b[off : off+length]; len(rest) > 0; {
			cn, cc, err := countOne(rest, depth+1)
			if err != nil {
				return 0, 0, err
			}
			nodes += cn
			rest = rest[cc:]
		}
	}
	return nodes, off + length, nil
}

// decodeArena mirrors decode but allocates nothing: nodes come from the
// arena and Values alias b. countElements validated b already, so this pass
// cannot fail.
func decodeArena(b []byte, a *arena) (*Element, int) {
	ident := b[0]
	class := Class(ident & 0xC0)
	constructed := ident&0x20 != 0
	tag := uint32(ident & 0x1F)
	off := 1
	if tag == 0x1F {
		tag = 0
		for {
			c := b[off]
			off++
			tag = tag<<7 | uint32(c&0x7F)
			if c&0x80 == 0 {
				break
			}
		}
	}
	length, n, _ := decodeLength(b[off:])
	off += n
	content := b[off : off+length]
	e := a.newElement()
	*e = Element{Class: class, Tag: tag, Constructed: constructed}
	if !constructed {
		e.Value = content
		return e, off + length
	}
	// Reserve the children slice before recursing so it stays contiguous in
	// the pointer slab (grandchildren carve their own slices in between).
	nchild := 0
	for rest := content; len(rest) > 0; {
		_, cc, _ := countOne(rest, 0)
		nchild++
		rest = rest[cc:]
	}
	if nchild > 0 {
		e.Children = a.childSlice(nchild)
		rest := content
		for i := 0; i < nchild; i++ {
			child, cc := decodeArena(rest, a)
			e.Children[i] = child
			rest = rest[cc:]
		}
	}
	return e, off + length
}

// Reader reads framed BER elements from a stream with per-connection reused
// storage: one buffered reader (header octets never hit the underlying conn
// byte-at-a-time), one content buffer, and one element arena. Returned
// elements are borrowed — valid until the next ReadElement. Not safe for
// concurrent use.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	dec Decoder
	max int
}

// NewReader wraps r for framed element reads with DefaultMaxMessageSize.
// When r is already a *bufio.Reader it is used directly.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 4096)
	}
	return &Reader{br: br, max: DefaultMaxMessageSize}
}

// SetMaxMessageSize overrides the per-message size bound; n <= 0 restores
// the default. The bound covers the whole message: identifier, length and
// content octets.
func (r *Reader) SetMaxMessageSize(n int) {
	if n <= 0 {
		n = DefaultMaxMessageSize
	}
	r.max = n
}

// Reset discards buffered state and re-points the reader at src, keeping the
// allocated buffers (for tests and connection reuse) up to the retention
// bounds, so a pooled reader does not carry one large message's storage.
func (r *Reader) Reset(src io.Reader) {
	if cap(r.buf) > maxRetainedBuf {
		r.buf = nil
	}
	r.dec.a.trim()
	if br, ok := src.(*bufio.Reader); ok {
		r.br = br
		return
	}
	r.br.Reset(src)
}

// Buffered returns the number of bytes already available in the read buffer.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// Wait blocks until at least one octet of the next element is buffered,
// without consuming it. It is the fill ReadElement's first read would make,
// so waiting first and reading after costs no extra read. A failed Wait (a
// read deadline, EOF) leaves no partial element behind: the reader is as it
// was, and the next call may succeed.
func (r *Reader) Wait() error {
	_, err := r.br.Peek(1)
	return err
}

// MessageBuffered reports whether the read buffer already holds at least one
// complete message, i.e. whether the next ReadElement can complete without
// touching the underlying reader. Servers use it to decide when to flush
// pipelined responses: flush only before a read that would block. Inputs
// with malformed headers report true so the read path surfaces the error
// promptly instead of stalling behind a flush.
func (r *Reader) MessageBuffered() bool {
	n := r.br.Buffered()
	if n == 0 {
		return false
	}
	// A header is at most 1 identifier byte + 4 continuation bytes (the
	// decoder rejects tags over 25 bits) + 1 length byte + 4 long-form
	// octets = 10 bytes.
	peek, _ := r.br.Peek(min(n, 10))
	if len(peek) == 0 {
		return false
	}
	off := 1
	if peek[0]&0x1F == 0x1F {
		for {
			if off >= len(peek) {
				// Header continues past what is buffered (or past any legal
				// header — let the reader produce the error).
				return off >= 10
			}
			c := peek[off]
			off++
			if c&0x80 == 0 {
				break
			}
		}
	}
	if off >= len(peek) {
		return false
	}
	lb := peek[off]
	off++
	length := 0
	if lb >= 0x80 {
		k := int(lb & 0x7F)
		if k == 0 || k > 4 {
			return true // unsupported length form: error out on read
		}
		if off+k > len(peek) {
			return false
		}
		for i := 0; i < k; i++ {
			length = length<<8 | int(peek[off+i])
		}
		off += k
	} else {
		length = int(lb)
	}
	if off+length > r.max {
		return true // oversize: error out on read, don't stall
	}
	return n >= off+length
}

// ReadElement reads one complete BER element from the stream. The returned
// element tree and its Values are borrowed: they alias the reader's internal
// buffer and arena and are only valid until the next ReadElement. A message
// whose total size exceeds the configured maximum returns an error wrapping
// ErrTooLarge before any content is read.
func (r *Reader) ReadElement() (*Element, error) {
	if cap(r.buf) > maxRetainedBuf {
		r.buf = nil
	}
	r.dec.a.trim()
	r.buf = r.buf[:0]

	// EOF mid-header surfaces as io.EOF, matching the allocating reference
	// reader (io.ReadFull of a single byte); EOF mid-content is unexpected
	// EOF.
	readByte := func() (byte, error) {
		c, err := r.br.ReadByte()
		if err != nil {
			return 0, err
		}
		r.buf = append(r.buf, c)
		return c, nil
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
			if len(r.buf) > 6 {
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
	header := len(r.buf)
	if total := header + length; total > r.max {
		return nil, fmt.Errorf("%w: %d bytes over limit %d", ErrTooLarge, total, r.max)
	}
	if length > MaxElementSize {
		return nil, fmt.Errorf("ber: element of %d bytes exceeds limit", length)
	}
	if cap(r.buf) < header+length {
		grown := make([]byte, header+length)
		copy(grown, r.buf)
		r.buf = grown
	} else {
		r.buf = r.buf[:header+length]
	}
	if _, err := io.ReadFull(r.br, r.buf[header:]); err != nil {
		return nil, err
	}
	e, _, err := r.dec.Decode(r.buf)
	return e, err
}
