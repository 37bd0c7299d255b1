package directory

import (
	"testing"

	"metacomm/internal/dn"
	"metacomm/internal/record"
)

// remoteOp is one replicated record as a peer would deliver it.
type remoteOp struct {
	name    string
	image   *Attrs
	stamp   Stamp
	deleted bool
}

// conflictDIT builds a fresh node with the common base tree every conflict
// case starts from.
func conflictDIT(t *testing.T, node uint32) *DIT {
	t.Helper()
	d := New(nil)
	d.SetNodeID(node)
	if err := d.Add(dn.MustParse("o=Lucent"), org("Lucent")); err != nil {
		t.Fatal(err)
	}
	return d
}

// applyOps delivers the ops in the given order, tolerating LWW losers and
// structural skips — exactly what a live consumer link does.
func applyOps(t *testing.T, d *DIT, ops []remoteOp) {
	t.Helper()
	for _, op := range ops {
		if _, err := d.ApplyRemote(dn.MustParse(op.name), op.image, op.stamp, op.deleted); err != nil {
			t.Fatalf("ApplyRemote(%s, %v): %v", op.name, op.stamp, err)
		}
	}
}

// wireOps converts ops to the records a link hands ApplyRemoteBatch.
func wireOps(ops []remoteOp) []record.Record {
	recs := make([]record.Record, len(ops))
	for i, op := range ops {
		recs[i] = record.Record{Op: "delete", DN: op.name, OriginSeq: op.stamp.Seq, OriginNode: op.stamp.Node}
		if !op.deleted {
			recs[i].Op, recs[i].Fields = "entry", op.image.fields
		}
	}
	return recs
}

// applyBatch delivers the ops as ONE batch — what a link does with records
// that arrived together — tolerating LWW losers like applyOps.
func applyBatch(t *testing.T, d *DIT, ops []remoteOp) {
	t.Helper()
	out, err := d.ApplyRemoteBatch(wireOps(ops))
	if err != nil {
		t.Fatalf("ApplyRemoteBatch: %v", err)
	}
	for i, res := range out {
		if res.Err != nil {
			t.Fatalf("ApplyRemoteBatch(%s, %v): %v", ops[i].name, ops[i].stamp, res.Err)
		}
	}
}

// bothOrders asserts the op sequence converges to the same fingerprint no
// matter which delivery order a node sees — the heart of the LWW argument:
// per-entry resolution is a join, so apply order cannot matter — and no
// matter whether the records arrive one at a time or all in one batch.
func bothOrders(t *testing.T, ops []remoteOp) (fwd *DIT) {
	t.Helper()
	rev := make([]remoteOp, len(ops))
	for i, op := range ops {
		rev[len(ops)-1-i] = op
	}
	// Same node id on all: the locally-added suffix then carries the same
	// stamp, so any fingerprint difference is the delivery's doing.
	a := conflictDIT(t, 10)
	applyOps(t, a, ops)
	want := a.Fingerprint()
	for _, c := range []struct {
		how     string
		deliver func(*DIT)
	}{
		{"reverse order", func(d *DIT) { applyOps(t, d, rev) }},
		{"one batch", func(d *DIT) { applyBatch(t, d, ops) }},
		{"one batch, reverse order", func(d *DIT) { applyBatch(t, d, rev) }},
	} {
		d := conflictDIT(t, 10)
		c.deliver(d)
		if got := d.Fingerprint(); got != want {
			t.Fatalf("delivery (%s) changed the tree:\n forward %s\n got     %s", c.how, want, got)
		}
	}
	return a
}

func TestConflictModifyModify(t *testing.T) {
	// Two nodes modify the same entry concurrently: same seq, the node id
	// breaks the tie, and the higher stamp's whole image wins.
	ops := []remoteOp{
		{"cn=X,o=Lucent", person("X"), Stamp{Seq: 4, Node: 1}, false},
		{"cn=X,o=Lucent", AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"X"}, "roomNumber": {"R1"},
		}), Stamp{Seq: 9, Node: 1}, false},
		{"cn=X,o=Lucent", AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"X"}, "roomNumber": {"R2"},
		}), Stamp{Seq: 9, Node: 2}, false},
	}
	d := bothOrders(t, ops)
	e, err := d.Get(dn.MustParse("cn=X,o=Lucent"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Attrs.First("roomNumber"); got != "R2" {
		t.Fatalf("winner roomNumber = %q, want R2 (stamp 9/2 > 9/1)", got)
	}
}

func TestConflictModifyDelete(t *testing.T) {
	// Delete stamped after the modify: the tombstone wins in either order —
	// a late-arriving older modify must NOT resurrect the entry.
	ops := []remoteOp{
		{"cn=Y,o=Lucent", person("Y"), Stamp{Seq: 3, Node: 1}, false},
		{"cn=Y,o=Lucent", AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"Y"}, "roomNumber": {"R9"},
		}), Stamp{Seq: 6, Node: 1}, false},
		{"cn=Y,o=Lucent", nil, Stamp{Seq: 7, Node: 2}, true},
	}
	d := bothOrders(t, ops)
	if _, err := d.Get(dn.MustParse("cn=Y,o=Lucent")); err == nil {
		t.Fatal("entry survived a newer delete")
	}

	// Modify stamped after the delete: the entry lives with the modify's
	// image in either order.
	ops = []remoteOp{
		{"cn=Z,o=Lucent", person("Z"), Stamp{Seq: 3, Node: 1}, false},
		{"cn=Z,o=Lucent", nil, Stamp{Seq: 5, Node: 2}, true},
		{"cn=Z,o=Lucent", AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"Z"}, "roomNumber": {"R5"},
		}), Stamp{Seq: 8, Node: 1}, false},
	}
	d = bothOrders(t, ops)
	e, err := d.Get(dn.MustParse("cn=Z,o=Lucent"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Attrs.First("roomNumber"); got != "R5" {
		t.Fatalf("revived entry roomNumber = %q, want R5", got)
	}
}

func TestConflictAddAdd(t *testing.T) {
	// Both nodes create the same DN with different images: one image wins
	// everywhere, never a merge of the two.
	ops := []remoteOp{
		{"cn=W,o=Lucent", AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"W"}, "description": {"from node 1"},
		}), Stamp{Seq: 2, Node: 1}, false},
		{"cn=W,o=Lucent", AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"W"}, "description": {"from node 2"},
		}), Stamp{Seq: 2, Node: 2}, false},
	}
	d := bothOrders(t, ops)
	e, err := d.Get(dn.MustParse("cn=W,o=Lucent"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Attrs.First("description"); got != "from node 2" {
		t.Fatalf("winner description = %q, want node 2's image", got)
	}
	if vals := e.Attrs.Get("description"); len(vals) != 1 {
		t.Fatalf("images merged: description = %v", vals)
	}
}

func TestConflictDuplicateDeliveryIdempotent(t *testing.T) {
	// Re-delivering every record — whole-stream duplication, the worst case
	// of a resumed cursor that was behind the truth — changes nothing.
	ops := []remoteOp{
		{"cn=D,o=Lucent", person("D"), Stamp{Seq: 2, Node: 1}, false},
		{"cn=D,o=Lucent", AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"D"}, "roomNumber": {"R1"},
		}), Stamp{Seq: 4, Node: 1}, false},
		{"cn=E,o=Lucent", person("E"), Stamp{Seq: 5, Node: 2}, false},
		{"cn=E,o=Lucent", nil, Stamp{Seq: 6, Node: 1}, true},
	}
	d := conflictDIT(t, 10)
	applyOps(t, d, ops)
	before := d.Fingerprint()

	// Duplicate the full stream, then a torn replay: just the first half
	// again, as if a link died mid-frame-batch and resumed early.
	applyOps(t, d, ops)
	applyOps(t, d, ops[:2])
	if after := d.Fingerprint(); after != before {
		t.Fatalf("duplicate delivery changed the tree: %s -> %s", before, after)
	}

	// And every duplicate must report Applied=false (no device fan-out for
	// records that changed nothing).
	for _, op := range ops {
		res, err := d.ApplyRemote(dn.MustParse(op.name), op.image, op.stamp, op.deleted)
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied {
			t.Fatalf("duplicate of %s/%v reported Applied", op.name, op.stamp)
		}
	}
}

// TestConflictBatchSemantics pins what one batch may and may not change
// about per-record resolution: a duplicate inside the batch is a no-op, the
// outcomes line up with the records, a structural conflict is reported on
// its own record without stopping the ones after it, and the whole batch is
// one commit group in the changelog's order.
func TestConflictBatchSemantics(t *testing.T) {
	d := conflictDIT(t, 10)
	_, changes, cancel := d.SnapshotAndSubscribe(16)
	defer cancel()
	r1 := AttrsFrom(map[string][]string{"objectClass": {"person"}, "cn": {"B"}, "roomNumber": {"R1"}})
	ops := []remoteOp{
		{"cn=B,o=Lucent", person("B"), Stamp{Seq: 2, Node: 1}, false},
		{"cn=B,o=Lucent", person("B"), Stamp{Seq: 2, Node: 1}, false}, // duplicate
		{"cn=Kid,ou=Gone,o=Lucent", person("Kid"), Stamp{Seq: 3, Node: 2}, false},
		{"cn=B,o=Lucent", r1, Stamp{Seq: 5, Node: 1}, false},
		{"cn=B,o=Lucent", nil, Stamp{Seq: 4, Node: 2}, true}, // older than the image above
		{"cn=C,o=Lucent", nil, Stamp{Seq: 6, Node: 2}, true}, // tombstone-only
		{"cn=C,o=Lucent", person("C"), Stamp{Seq: 5, Node: 1}, false},
	}
	out, err := d.ApplyRemoteBatch(wireOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	var applied []bool
	for _, res := range out {
		applied = append(applied, res.Applied)
	}
	if want := []bool{true, false, false, true, false, true, false}; !equalBools(applied, want) {
		t.Fatalf("Applied = %v, want %v", applied, want)
	}
	if out[2].Err == nil {
		t.Fatal("orphan upsert reported no structural conflict")
	}
	if out[0].Old != nil || out[3].Old != out[0].New || out[3].New.First("roomNumber") != "R1" {
		t.Fatalf("before/after images do not line up with the records: %+v", out)
	}
	e, err := d.Get(dn.MustParse("cn=B,o=Lucent"))
	if err != nil || e.Attrs.First("roomNumber") != "R1" {
		t.Fatalf("cn=B after the batch: %v, %v", e, err)
	}
	if _, err := d.Get(dn.MustParse("cn=C,o=Lucent")); err == nil {
		t.Fatal("an upsert older than a tombstone in the same batch resurrected the entry")
	}
	// Three winners, emitted in batch order under consecutive commit seqs.
	var seqs []uint64
	for len(seqs) < 3 {
		rec := <-changes
		seqs = append(seqs, rec.Seq)
	}
	if seqs[1] != seqs[0]+1 || seqs[2] != seqs[1]+1 || d.Seq() != seqs[2] {
		t.Fatalf("winners' commit seqs %v, tree at %d", seqs, d.Seq())
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConflictStructuralSkip(t *testing.T) {
	// A child add whose parent never materialized here (its create lost a
	// race with a parent delete) is a structural conflict: reported as an
	// error the link counts and skips, not a crash and not a partial apply.
	d := conflictDIT(t, 10)
	_, err := d.ApplyRemote(dn.MustParse("cn=Kid,ou=Gone,o=Lucent"),
		person("Kid"), Stamp{Seq: 3, Node: 2}, false)
	if err == nil {
		t.Fatal("orphan child apply succeeded")
	}
	before := d.Fingerprint()
	if after := d.Fingerprint(); after != before {
		t.Fatalf("failed apply mutated the tree")
	}
}
