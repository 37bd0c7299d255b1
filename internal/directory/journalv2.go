package directory

import "metacomm/internal/record"

// The journal's record format is internal/record's CRC frame around its
// op-tagged update-record payload (layout, torn-tail and corruption rules
// are documented there). The same codec carries the replication stream, so
// this file is only the adapter between UpdateRecord — what the commit
// pipeline and replay hold — and record.Record.

// wire returns r in codec form. Add/entry attributes encode straight out of
// the record's image (the slice is shared, not copied).
func (r *UpdateRecord) wire() record.Record {
	w := record.Record{Op: r.Op, Seq: r.Seq, DN: r.DN, NormKey: r.normKey,
		Changes: r.Changes, NewRDN: r.NewRDN, DeleteOldRDN: r.DeleteOldRDN,
		OriginSeq: r.OriginSeq, OriginNode: r.OriginNode}
	if r.Op == "add" || r.Op == "entry" {
		w.Fields = r.image.fields
	}
	return w
}

// setWire makes r the decoded record w; add/entry attributes become its
// image, sharing the decoder's field slice.
func (r *UpdateRecord) setWire(w *record.Record) {
	*r = UpdateRecord{Op: w.Op, Seq: w.Seq, DN: w.DN, normKey: w.NormKey,
		Changes: w.Changes, NewRDN: w.NewRDN, DeleteOldRDN: w.DeleteOldRDN,
		OriginSeq: w.OriginSeq, OriginNode: w.OriginNode}
	if w.Op == "add" || w.Op == "entry" {
		r.image = &Attrs{fields: w.Fields}
	}
}

// appendRecord appends rec as one journal frame to dst.
func appendRecord(enc *record.Encoder, dst []byte, rec *UpdateRecord) ([]byte, error) {
	w := rec.wire()
	return enc.AppendRecord(dst, &w)
}
