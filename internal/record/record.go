package record

import (
	"bufio"
	"encoding/binary"
	"fmt"
)

// Update-record payload layout:
//
//	byte   op               1 add | 2 delete | 3 modify | 4 modifydn | 5 entry
//	uvarint seq
//	string DN               (string = uvarint byteLen + bytes)
//	entry:       string normalized DN key (may be empty), then as add
//	add|entry:   uvarint nattrs, then per attribute:
//	             string name, uvarint nvals, string values...
//	modify:      uvarint nchanges, then per change:
//	             byte op (1 add | 2 delete | 3 replace),
//	             string attr, uvarint nvals, string values...
//	modifydn:    string newRDN, byte deleteOldRDN (0|1)
//	delete:      nothing further
//	(optional)   uvarint originSeq, uvarint originNode — the replication
//	             origin stamp, appended after the op-specific fields only
//	             when nonzero. Pre-replication frames simply end earlier;
//	             the decoder reads the stamp iff payload bytes remain, so
//	             both generations round-trip byte-identically.
//
// Entry records — what compaction writes, so what nearly every replayed
// record is after the first restart, and what a replication snapshot and
// every replicated post-image travel as — carry the entry's normalized DN
// key, which the writer holds anyway (it is the entry's map key): the
// reader skips re-normalizing a DN the writer already normalized. An empty
// key field just means "normalize at the reader".
//
// A record decodes with no reflection, no intermediate map, and no
// per-field allocation beyond the strings that live on in the directory,
// following the same reused-buffer discipline as the internal/ber Reader
// (one payload buffer per stream, one encode buffer per writer).

// Op tags, payload byte 0.
const (
	opTagAdd = iota + 1
	opTagDelete
	opTagModify
	opTagModifyDN
	opTagEntry
)

// Change op tags inside a modify payload.
const (
	changeTagAdd = iota + 1
	changeTagDelete
	changeTagReplace
)

// Field is one attribute of an add/entry record: its lowered (canonical)
// key, its first-seen display spelling, and its values. Only Display and
// Vals travel; the decoder fills Key. Key and Display are interned.
type Field struct {
	Key     string
	Display string
	Vals    []string
}

// Change is one modification inside a modify record.
type Change struct {
	Op     string   `json:"op"` // add | delete | replace
	Attr   string   `json:"attr"`
	Values []string `json:"values,omitempty"`
}

// Record is one update record in codec form.
type Record struct {
	Op  string // add | delete | modify | modifydn | entry
	Seq uint64
	DN  string
	// NormKey, when non-empty, must equal the normalized form of DN.
	NormKey string

	Fields  []Field  // add / entry
	Changes []Change // modify

	NewRDN       string // modifydn
	DeleteOldRDN bool

	// OriginSeq/OriginNode are the replication origin stamp (zero on
	// records written before replication existed).
	OriginSeq  uint64
	OriginNode uint32
}

// Encoder marshals records into frames, reusing one payload scratch buffer
// across records.
type Encoder struct {
	payload []byte
}

// AppendRecord appends rec as one frame to dst.
func (e *Encoder) AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	p, err := appendPayload(e.payload[:0], rec)
	if err != nil {
		return dst, err
	}
	e.payload = p
	return AppendFrame(dst, p), nil
}

// AppendString appends s as uvarint length + bytes (read by Cursor.Str).
func AppendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

// AppendValues appends a counted string list (read by Cursor.Values).
func AppendValues(p []byte, vals []string) []byte {
	p = binary.AppendUvarint(p, uint64(len(vals)))
	for _, v := range vals {
		p = AppendString(p, v)
	}
	return p
}

// appendPayload appends rec's payload bytes (no frame) to p.
func appendPayload(p []byte, rec *Record) ([]byte, error) {
	var tag byte
	switch rec.Op {
	case "add":
		tag = opTagAdd
	case "delete":
		tag = opTagDelete
	case "modify":
		tag = opTagModify
	case "modifydn":
		tag = opTagModifyDN
	case "entry":
		tag = opTagEntry
	default:
		return p, fmt.Errorf("record: unknown op %q", rec.Op)
	}
	p = append(p, tag)
	p = binary.AppendUvarint(p, rec.Seq)
	p = AppendString(p, rec.DN)
	if tag == opTagEntry {
		p = AppendString(p, rec.NormKey)
	}
	switch tag {
	case opTagAdd, opTagEntry:
		p = binary.AppendUvarint(p, uint64(len(rec.Fields)))
		for i := range rec.Fields {
			p = AppendString(p, rec.Fields[i].Display)
			p = AppendValues(p, rec.Fields[i].Vals)
		}
	case opTagModify:
		p = binary.AppendUvarint(p, uint64(len(rec.Changes)))
		for i := range rec.Changes {
			c := &rec.Changes[i]
			var ct byte
			switch c.Op {
			case "add":
				ct = changeTagAdd
			case "delete":
				ct = changeTagDelete
			case "replace":
				ct = changeTagReplace
			default:
				return p, fmt.Errorf("record: unknown change op %q", c.Op)
			}
			p = append(p, ct)
			p = AppendString(p, c.Attr)
			p = AppendValues(p, c.Values)
		}
	case opTagModifyDN:
		p = AppendString(p, rec.NewRDN)
		if rec.DeleteOldRDN {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	if rec.OriginSeq != 0 || rec.OriginNode != 0 {
		p = binary.AppendUvarint(p, rec.OriginSeq)
		p = binary.AppendUvarint(p, uint64(rec.OriginNode))
	}
	return p, nil
}

// Decoder reads record frames from a buffered stream. Decoded records
// borrow nothing: every string is its own copy (it outlives the buffer in
// the directory).
type Decoder struct {
	Reader
	// names caches raw attribute-name spelling -> interned (key, display)
	// for this stream. A stream repeats the same handful of names per
	// record; the cache turns per-record Lower()+Intern() (two global
	// sync.Map probes and up to two allocations each) into one local map
	// probe with no allocation.
	names map[string]internedName
}

// internedName is a cached attribute name: interned lowered key and
// interned display spelling.
type internedName struct{ key, display string }

func (d *Decoder) internName(raw []byte) internedName {
	if in, ok := d.names[string(raw)]; ok { // no alloc: compiler-recognized pattern
		return in
	}
	name := string(raw)
	in := internedName{key: Intern(Lower(name)), display: Intern(name)}
	if d.names == nil {
		d.names = make(map[string]internedName, 16)
	}
	d.names[name] = in
	return in
}

// ReadRecord reads one frame from r and decodes it into rec, returning the
// frame's total byte length. Errors are ReadFrame's, plus a descriptive
// error for a checksum-clean payload that does not parse.
func (d *Decoder) ReadRecord(r *bufio.Reader, rec *Record) (int, error) {
	p, n, err := d.ReadFrame(r)
	if err != nil {
		return n, err
	}
	return n, d.Decode(p, rec)
}

// Decode parses one checksum-verified payload into rec. Attributes of
// add/entry records decode straight into Fields with interned names.
func (d *Decoder) Decode(p []byte, rec *Record) error {
	*rec = Record{}
	c := NewCursor(p)
	tag, err := c.Byte()
	if err != nil {
		return err
	}
	if rec.Seq, err = c.Uvarint(); err != nil {
		return err
	}
	if rec.DN, err = c.Str(); err != nil {
		return err
	}
	switch tag {
	case opTagAdd, opTagEntry:
		if tag == opTagAdd {
			rec.Op = "add"
		} else {
			rec.Op = "entry"
			if rec.NormKey, err = c.Str(); err != nil {
				return err
			}
		}
		// name + empty value list = 2 bytes minimum per attribute.
		na, err := c.Count(2)
		if err != nil {
			return err
		}
		rec.Fields = make([]Field, 0, na)
		for i := 0; i < na; i++ {
			name, err := c.StrBytes()
			if err != nil {
				return err
			}
			vals, err := c.Values()
			if err != nil {
				return err
			}
			in := d.internName(name)
			rec.Fields = append(rec.Fields, Field{Key: in.key, Display: in.display, Vals: vals})
		}
	case opTagDelete:
		rec.Op = "delete"
	case opTagModify:
		rec.Op = "modify"
		// op byte + attr + empty value list = 3 bytes minimum per change.
		nc, err := c.Count(3)
		if err != nil {
			return err
		}
		rec.Changes = make([]Change, 0, nc)
		for i := 0; i < nc; i++ {
			ct, err := c.Byte()
			if err != nil {
				return err
			}
			var op string
			switch ct {
			case changeTagAdd:
				op = "add"
			case changeTagDelete:
				op = "delete"
			case changeTagReplace:
				op = "replace"
			default:
				return fmt.Errorf("unknown change tag %d", ct)
			}
			attr, err := c.Str()
			if err != nil {
				return err
			}
			vals, err := c.Values()
			if err != nil {
				return err
			}
			rec.Changes = append(rec.Changes, Change{Op: op, Attr: attr, Values: vals})
		}
	case opTagModifyDN:
		rec.Op = "modifydn"
		if rec.NewRDN, err = c.Str(); err != nil {
			return err
		}
		b, err := c.Byte()
		if err != nil {
			return err
		}
		rec.DeleteOldRDN = b != 0
	default:
		return fmt.Errorf("unknown op tag %d", tag)
	}
	if c.Rem() > 0 {
		// Optional trailing origin stamp (absent on pre-replication frames).
		os, err := c.Uvarint()
		if err != nil {
			return err
		}
		on, err := c.Uvarint()
		if err != nil {
			return err
		}
		if on > 1<<32-1 {
			return fmt.Errorf("origin node %d overflows 32 bits", on)
		}
		rec.OriginSeq, rec.OriginNode = os, uint32(on)
	}
	if c.Rem() != 0 {
		return fmt.Errorf("%d trailing payload bytes", c.Rem())
	}
	return nil
}
