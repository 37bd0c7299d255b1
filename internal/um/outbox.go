// Device-update outbox: the Update Manager's one answer to a failed device
// apply.
//
// The paper's UM logs a failed device apply into ou=errors and moves on —
// the update is lost at that device until the next full synchronization
// pass (§4.4). The outbox closes that gap: every translated TargetUpdate
// that fails (or that targets a device whose circuit breaker is open) is
// queued, keyed by (device, entry DN, seq), and replayed by a per-device
// drainer with exponential backoff once the device answers again. Per-entry
// order is preserved by the same FNV-32a shard discipline the UM's own
// queues use, plus a per-DN pending count: while an entry has backlog at a
// device, new fan-out updates for that entry are appended behind the
// backlog instead of applied directly, so a replay can never regress a
// newer direct apply. Replays that the device rejects for non-outage
// reasons (conditional-update conflicts, semantic errors) fall back to a
// targeted per-entry repair: the live directory entry is re-translated and
// conditionally applied — synchronization's delta-reconciliation move, for
// just the affected DN, with no global pass and no quiesce. Only an update
// whose repair is rejected too, with the device up, reaches ou=errors: what
// MetaComm cannot reconcile by itself is what the administrator sees.
//
// With Config.OutboxDir set, each device's queue is journaled to
// <OutboxDir>/<device>.outbox in internal/record frames, so a backlog
// survives a restart; see outboxJournal.
package um

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/device"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/lexpress"
	"metacomm/internal/record"
)

// Outbox policy: a replayed update gets outboxMaxRetries outage-class
// attempts before the drainer tries a targeted repair; retries back off from
// outboxBaseBackoff, doubling to outboxMaxBackoff, which also bounds the
// breaker's open window; outboxBreakerThreshold consecutive failures trip a
// device's breaker open.
const (
	outboxMaxRetries       = 8
	outboxBaseBackoff      = 50 * time.Millisecond
	outboxMaxBackoff       = 5 * time.Second
	outboxBreakerThreshold = 3
	// outboxCompactEvery is how many acknowledged journal frames accumulate
	// before the journal is rewritten with only the live records.
	outboxCompactEvery = 1024
)

// OutboxStats snapshots one device's outbox and breaker.
type OutboxStats struct {
	// Device is the device name.
	Device string
	// Breaker is the circuit-breaker position: closed, open, or half-open.
	Breaker string
	// Backlog is the number of queued updates awaiting replay.
	Backlog int
	// Enqueued counts updates that entered the outbox; Drained counts
	// successful replays; Retries counts failed replay attempts; Repairs
	// counts targeted per-entry repair syncs; Dropped counts updates given
	// up on (repair also failed — an error entry was logged).
	Enqueued, Drained, Retries, Repairs, Dropped uint64
	// Deferred counts fan-out applies diverted into the outbox without
	// touching the device (open breaker or backlog ahead of them).
	Deferred uint64
	// Trips counts breaker openings.
	Trips uint64
	// TornTails counts torn final journal frames (a crash mid-append)
	// truncated when the journal was opened.
	TornTails uint64
}

// outageError reports whether err looks like the device being unreachable
// (retry later) rather than rejecting the update (repair now).
func outageError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, device.ErrDown) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// outboxRecord is one queued update.
type outboxRecord struct {
	seq uint64
	dn  string // normalized entry DN
	tu  *lexpress.TargetUpdate

	// attempts counts outage-class replay failures (not persisted: a
	// restart resets the budget, which is the right call — the journal is
	// replayed against a device that just came back).
	attempts int
}

// outbox owns one deviceOutbox per registered filter. It is constructed in
// New (so the pointer is immutable for the UM's lifetime) and populated in
// Start, after AddDevice registration is complete.
type outbox struct {
	u   *UM
	dir string // journal directory; "" keeps the queues in memory

	// The policy: the constants above, which tests in this package shorten
	// before Start (export_test.go).
	maxRetries, breakerThreshold int
	baseBackoff, maxBackoff      time.Duration

	// devices parallels u.filters; written once in start, read-only after.
	devices []*deviceOutbox

	wg   sync.WaitGroup
	stop chan struct{}
}

// deviceOutbox is one device's queues, journal and drainer.
type deviceOutbox struct {
	ob      *outbox
	name    string
	f       *filter.DeviceFilter
	breaker *filter.Breaker
	wake    chan struct{}

	// backlog counts queued + in-flight records. It changes only under mu;
	// the fan-out reads it without the lock (deferUpdate's healthy check).
	backlog atomic.Int64

	mu sync.Mutex
	// queues are per-shard FIFOs: records for one entry DN always land in
	// the same shard (the UM's FNV-32a discipline), so replay order per
	// entry is the enqueue order. A record stays at its queue head while
	// the drainer works on it.
	queues [][]*outboxRecord
	// pendingDN counts queued + in-flight records per normalized DN; the
	// fan-out defers behind it.
	pendingDN map[string]int
	seq       uint64
	journal   *outboxJournal // nil without a journal directory

	enqueued, drained, retries, repairs, dropped, deferred, tornTails atomic.Uint64
}

// newOutbox is called from New with the journal directory ("" = in memory).
func newOutbox(u *UM, dir string) *outbox {
	return &outbox{u: u, dir: dir, stop: make(chan struct{}),
		maxRetries: outboxMaxRetries, breakerThreshold: outboxBreakerThreshold,
		baseBackoff: outboxBaseBackoff, maxBackoff: outboxMaxBackoff}
}

// start builds the per-device state (loading any journal backlog) and
// launches the drainers. Called from UM.Start after AddDevice registration.
func (ob *outbox) start() error {
	for _, f := range ob.u.filters {
		d := &deviceOutbox{
			ob:        ob,
			name:      f.Name(),
			f:         f,
			breaker:   filter.NewBreaker(ob.breakerThreshold, ob.baseBackoff, ob.maxBackoff),
			wake:      make(chan struct{}, 1),
			queues:    make([][]*outboxRecord, len(ob.u.shards)),
			pendingDN: map[string]int{},
		}
		ob.devices = append(ob.devices, d) // close closes its journal, even on error
		if ob.dir != "" {
			if err := d.openJournal(ob.dir); err != nil {
				return fmt.Errorf("um: outbox journal for %s: %w", d.name, err)
			}
		}
		ob.wg.Add(1)
		go d.run()
	}
	return nil
}

// close stops the drainers and closes the journals.
func (ob *outbox) close() {
	close(ob.stop)
	ob.wg.Wait()
	for _, d := range ob.devices {
		d.mu.Lock()
		if d.journal != nil {
			d.journal.close()
			d.journal = nil
		}
		d.mu.Unlock()
	}
}

// stats snapshots every device's outbox.
func (ob *outbox) stats() []OutboxStats {
	out := make([]OutboxStats, 0, len(ob.devices))
	for _, d := range ob.devices {
		out = append(out, OutboxStats{
			Device:    d.name,
			Breaker:   d.breaker.State().String(),
			Backlog:   int(d.backlog.Load()),
			Enqueued:  d.enqueued.Load(),
			Drained:   d.drained.Load(),
			Retries:   d.retries.Load(),
			Repairs:   d.repairs.Load(),
			Dropped:   d.dropped.Load(),
			Deferred:  d.deferred.Load(),
			Trips:     d.breaker.Trips(),
			TornTails: d.tornTails.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// deferUpdate decides, before the fan-out touches the device, whether the
// update must go through the outbox instead: yes when the device's breaker
// is not closed (outage in progress — don't eat a failed apply per update)
// or when the entry already has backlog at this device (a direct apply
// would be overtaken by the later replay).
//
// A healthy device with an empty outbox answers no without a lock or a DN
// normalization. Reading the backlog unlocked is safe: an entry's records
// are only ever enqueued by that entry's shard worker — the caller — so a
// zero cannot turn nonzero for this entry under it; the drainer only
// shrinks the backlog. Otherwise the check and the enqueue are atomic under
// the device mutex.
func (d *deviceOutbox) deferUpdate(dnStr string, tu *lexpress.TargetUpdate) bool {
	if d.backlog.Load() == 0 && d.breaker.State() == filter.BreakerClosed {
		return false
	}
	norm := normalizeDNString(dnStr)
	d.mu.Lock()
	if d.breaker.State() == filter.BreakerClosed && d.pendingDN[norm] == 0 {
		d.mu.Unlock()
		return false
	}
	d.enqueueLocked(norm, tu)
	d.mu.Unlock()
	d.deferred.Add(1)
	d.kick()
	return true
}

// handleFailure queues a fan-out apply that failed.
func (d *deviceOutbox) handleFailure(dnStr string, tu *lexpress.TargetUpdate, err error) {
	if outageError(err) {
		d.breaker.Failure()
	}
	norm := normalizeDNString(dnStr)
	d.mu.Lock()
	d.enqueueLocked(norm, tu)
	d.mu.Unlock()
	d.ob.u.logf("um: outbox %s: queued %s key=%q after apply error: %v",
		d.name, tu.Op, tu.Key, err)
	d.kick()
}

// enqueueLocked appends a record behind the DN's backlog. Caller holds d.mu.
func (d *deviceOutbox) enqueueLocked(norm string, tu *lexpress.TargetUpdate) {
	d.seq++
	rec := &outboxRecord{seq: d.seq, dn: norm, tu: tu}
	si := d.shardOf(norm)
	d.queues[si] = append(d.queues[si], rec)
	d.pendingDN[norm]++
	d.backlog.Add(1)
	d.enqueued.Add(1)
	if d.journal != nil {
		if err := d.journal.append(rec); err != nil {
			d.ob.u.logf("um: outbox %s: journal append: %v", d.name, err)
		}
	}
}

// kick wakes the drainer without blocking.
func (d *deviceOutbox) kick() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// shardOf mirrors UM.shardFor on an already-normalized DN.
func (d *deviceOutbox) shardOf(norm string) int {
	if len(d.queues) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(norm))
	return int(h.Sum32() % uint32(len(d.queues)))
}

// run is the device drainer: it sleeps while the backlog is empty, and
// otherwise makes replay passes separated by the backoff the failing pass
// asked for.
func (d *deviceOutbox) run() {
	defer d.ob.wg.Done()
	for {
		if d.backlog.Load() == 0 {
			select {
			case <-d.wake:
				continue
			case <-d.ob.stop:
				return
			}
		}
		wait := d.pass()
		if wait <= 0 {
			continue
		}
		select {
		case <-time.After(wait):
		case <-d.ob.stop:
			return
		}
	}
}

// pass walks the shard queues once, replaying heads in order. It returns 0
// when every queue drained (or new work should be attempted immediately)
// and a backoff duration when the device pushed back.
func (d *deviceOutbox) pass() time.Duration {
	for si := range d.queues {
		for {
			select {
			case <-d.ob.stop:
				return 0
			default:
			}
			rec := d.head(si)
			if rec == nil {
				break
			}
			if !d.breaker.Allow() {
				// Outage in progress: sleep until the breaker admits its
				// next probe. Other shards would hit the same wall — the
				// breaker is per device, not per entry.
				if w := time.Until(d.breaker.ProbeAt()); w > 0 {
					return w
				}
				return d.ob.baseBackoff
			}
			_, err := d.f.Apply(rec.tu)
			if err == nil {
				d.breaker.Success()
				d.complete(si, rec)
				d.drained.Add(1)
				continue
			}
			d.retries.Add(1)
			if outageError(err) {
				d.breaker.Failure()
				rec.attempts++
				if rec.attempts <= d.ob.maxRetries {
					return d.backoffFor(rec.attempts)
				}
				// Retry budget exhausted: try repair; if the device is
				// still down that fails too and the record stays.
			} else {
				// The device answered (and rejected the update): the link
				// is healthy even if the replay conflicted.
				d.breaker.Success()
			}
			d.repairs.Add(1)
			if rerr := d.ob.u.repairEntry(d.f, rec.dn, rec.tu); rerr != nil {
				if outageError(rerr) {
					d.breaker.Failure()
					rec.attempts++
					return d.backoffFor(rec.attempts)
				}
				// Replay failed and repair failed with the device up:
				// this is what the administrator must see. Log the error
				// entry and drop the record so the shard is not poisoned.
				d.ob.u.logError("outbox", d.name, rec.tu.Op.String(), rec.tu.Key,
					errors.Join(err, rerr))
				d.complete(si, rec)
				d.dropped.Add(1)
				continue
			}
			d.ob.u.logf("um: outbox %s: repaired %s key=%q after replay error: %v",
				d.name, rec.tu.Op, rec.tu.Key, err)
			d.complete(si, rec)
			d.drained.Add(1)
		}
	}
	return 0
}

// head returns shard si's first record without removing it (the pending
// count must include the in-flight record so the fan-out keeps deferring).
func (d *deviceOutbox) head(si int) *outboxRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.queues[si]) == 0 {
		return nil
	}
	return d.queues[si][0]
}

// complete retires a finished (drained, repaired, or dropped) head record.
func (d *deviceOutbox) complete(si int, rec *outboxRecord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	q := d.queues[si]
	if len(q) == 0 || q[0] != rec {
		return // defensive; heads are only removed here
	}
	d.queues[si] = q[1:]
	if d.pendingDN[rec.dn]--; d.pendingDN[rec.dn] <= 0 {
		delete(d.pendingDN, rec.dn)
	}
	d.backlog.Add(-1)
	if d.journal == nil {
		return
	}
	if err := d.journal.ack(rec.seq); err != nil {
		d.ob.u.logf("um: outbox %s: journal ack: %v", d.name, err)
	}
	if d.journal.acksSinceCompact >= outboxCompactEvery {
		var live []*outboxRecord
		for _, q := range d.queues {
			live = append(live, q...)
		}
		sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
		if err := d.journal.compact(live); err != nil {
			d.ob.u.logf("um: outbox %s: journal compact: %v", d.name, err)
		}
	}
}

// backoffFor is the exponential, jittered retry delay after `attempts`
// consecutive outage-class failures of one record.
func (d *deviceOutbox) backoffFor(attempts int) time.Duration {
	delay := d.ob.baseBackoff
	for i := 1; i < attempts && delay < d.ob.maxBackoff; i++ {
		delay *= 2
	}
	delay = min(delay, d.ob.maxBackoff)
	// ±25% jitter so recovering devices see a spread of retries.
	return delay*3/4 + time.Duration(rand.Int63n(int64(delay)/2+1))
}

// repairEntry is the targeted per-entry repair sync: re-derive the device's
// record from the live directory entry and conditionally apply it —
// synchronization's delta-reconciliation move for a single DN, with no
// global pass and no quiesce. An entry that vanished from the directory (or
// is no longer routed to the device) is conditionally deleted at the device.
func (u *UM) repairEntry(f *filter.DeviceFilter, dnStr string, tu *lexpress.TargetUpdate) error {
	entries, err := u.cfg.Backing.Search(&ldap.SearchRequest{
		BaseDN: dnStr, Scope: ldap.ScopeBaseObject,
	})
	if err != nil && !ldap.IsCode(err, ldap.ResultNoSuchObject) {
		return err
	}
	if len(entries) == 0 {
		return repairDelete(f, tu)
	}
	live := entryRecord(entries[0])
	ntu, terr := f.Translate(lexpress.Descriptor{
		Source: "ldap", Op: lexpress.OpModify, Key: entries[0].DN, Old: live, New: live,
	})
	if terr != nil {
		return terr
	}
	if ntu == nil {
		// The live entry is no longer under this device's management; the
		// device's record (if any) is stale.
		return repairDelete(f, tu)
	}
	ntu.Conditional = true // fall back to add when the device lacks the record
	_, err = f.Apply(ntu)
	return err
}

// repairDelete conditionally removes the device record the failed update
// addressed (a no-op when the device does not have it).
func repairDelete(f *filter.DeviceFilter, tu *lexpress.TargetUpdate) error {
	if tu.Key == "" && tu.OldKey == "" {
		return nil
	}
	_, err := f.Apply(&lexpress.TargetUpdate{
		Target: tu.Target, Op: lexpress.OpDelete,
		Key: tu.Key, OldKey: tu.OldKey, Conditional: true,
	})
	return err
}

// OutboxStats snapshots the per-device outbox and breaker state.
func (u *UM) OutboxStats() []OutboxStats { return u.outbox.stats() }

// OutboxBacklog sums the queued updates awaiting replay across devices.
func (u *UM) OutboxBacklog() int {
	total := 0
	for _, d := range u.outbox.devices {
		total += int(d.backlog.Load())
	}
	return total
}

// --- journal ---

// Outbox journal payloads. Each travels in one internal/record frame, so
// the journal shares the directory journal's torn-tail and corruption
// rules. The tags sit at and above record.ControlBase: an outbox payload is
// never an update record of the directory's.
//
//	update  0x40  uvarint seq, string dn, string target, byte op,
//	              byte conditional, string key, string oldKey,
//	              image old, image new, list owned
//	ack     0x41  uvarint seq
//
// string and list are record.AppendString and record.AppendValues. An image
// is byte 0 (nil) or byte 1 followed by a uvarint attribute count and, per
// attribute, a string name and a list of values. The dn is the normalized
// entry DN the update is queued under.
const (
	outboxTagUpdate = record.ControlBase + iota
	outboxTagAck
)

// appendOutboxUpdate appends rec's update payload to p.
func appendOutboxUpdate(p []byte, rec *outboxRecord) []byte {
	tu := rec.tu
	p = append(p, outboxTagUpdate)
	p = binary.AppendUvarint(p, rec.seq)
	p = record.AppendString(p, rec.dn)
	p = record.AppendString(p, tu.Target)
	cond := byte(0)
	if tu.Conditional {
		cond = 1
	}
	p = record.AppendString(append(p, byte(tu.Op), cond), tu.Key)
	p = record.AppendString(p, tu.OldKey)
	p = appendImage(p, tu.Old)
	p = appendImage(p, tu.New)
	return record.AppendValues(p, tu.Owned)
}

func appendImage(p []byte, r lexpress.Record) []byte {
	if r == nil {
		return append(p, 0)
	}
	p = append(p, 1)
	p = binary.AppendUvarint(p, uint64(len(r)))
	for name, vals := range r {
		p = record.AppendString(p, name)
		p = record.AppendValues(p, vals)
	}
	return p
}

// appendOutboxAck appends the ack payload for seq to p.
func appendOutboxAck(p []byte, seq uint64) []byte {
	return binary.AppendUvarint(append(p, outboxTagAck), seq)
}

// decodeOutboxPayload parses one checksum-verified payload: an update
// (rec != nil, seq = rec.seq) or the ack of seq. Everything it returns is
// copied out of p.
func decodeOutboxPayload(p []byte) (rec *outboxRecord, seq uint64, err error) {
	r := payloadReader{c: record.NewCursor(p)}
	tag := r.byte(0xff)
	if r.err == nil {
		seq, r.err = r.c.Uvarint()
	}
	switch {
	case r.err != nil, tag == outboxTagAck:
	case tag == outboxTagUpdate:
		tu := &lexpress.TargetUpdate{}
		rec = &outboxRecord{seq: seq, dn: r.str(), tu: tu}
		tu.Target = r.str()
		tu.Op = lexpress.OpKind(r.byte(byte(lexpress.OpDelete)))
		tu.Conditional = r.byte(1) == 1
		tu.Key, tu.OldKey = r.str(), r.str()
		tu.Old, tu.New = r.image(), r.image()
		if r.err == nil {
			tu.Owned, r.err = r.c.Values()
		}
	default:
		r.err = fmt.Errorf("unknown outbox tag %#02x", tag)
	}
	if r.err == nil && r.c.Rem() != 0 {
		r.err = fmt.Errorf("%d trailing payload bytes", r.c.Rem())
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return rec, seq, nil
}

// payloadReader reads an outbox payload's fields off a record.Cursor and
// keeps the first error, so a decode is a straight run of reads.
type payloadReader struct {
	c   record.Cursor
	err error
}

func (r *payloadReader) str() (s string) {
	if r.err == nil {
		s, r.err = r.c.Str()
	}
	return s
}

// byte reads one byte that must not exceed max.
func (r *payloadReader) byte(max byte) (b byte) {
	if r.err == nil {
		if b, r.err = r.c.Byte(); r.err == nil && b > max {
			r.err = fmt.Errorf("field byte %d exceeds %d", b, max)
		}
	}
	return b
}

// image reads what appendImage wrote.
func (r *payloadReader) image() lexpress.Record {
	if r.byte(1) == 0 || r.err != nil {
		return nil
	}
	// name + empty value list = 2 bytes minimum per attribute.
	n, err := r.c.Count(2)
	rec := make(lexpress.Record, n)
	for i := 0; i < n && err == nil; i++ {
		var name string
		if name, err = r.c.Str(); err == nil {
			rec[name], err = r.c.Values()
		}
	}
	r.err = err
	return rec
}

// outboxJournal is one device's journal file of record frames: update
// frames journal queued updates, ack frames retire them. Appends are
// written but not fsynced: they survive a process crash, and what a power
// loss takes is recovered by the initial synchronization pass. Compaction
// rewrites the file with only the live records (tmp + fsync + rename, so a
// crash leaves either the old or the new journal, never a torn one).
type outboxJournal struct {
	path             string
	f                *os.File
	payload, frame   []byte // encode scratch; callers hold the device mutex
	acksSinceCompact int
}

// openJournal replays (creating if needed) <dir>/<device>.outbox into the
// device's queues and keeps the file open for appends. A torn final frame
// is truncated, counted and logged; a complete frame that fails its
// checksum or does not decode is corruption and an error naming the file —
// the frames after it cannot be trusted to be the only ones that survived.
func (d *deviceOutbox) openJournal(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, d.name+".outbox")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	d.journal = &outboxJournal{path: path, f: f}
	pending := map[uint64]*outboxRecord{}
	acks := 0
	var off int64
	var fr record.Reader
	r := bufio.NewReader(f)
	for {
		if _, err := r.Peek(1); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		p, n, err := fr.ReadFrame(r)
		if err == record.ErrTorn {
			// Drop the torn tail so the next append starts at a frame boundary.
			d.tornTails.Add(1)
			d.ob.u.logf("um: outbox %s: truncating a torn final frame (crash mid-append)", d.name)
			if err := f.Truncate(off); err != nil {
				return fmt.Errorf("%s: truncating torn tail: %w", path, err)
			}
			break
		}
		var rec *outboxRecord
		var seq uint64
		if err == nil {
			rec, seq, err = decodeOutboxPayload(p)
		}
		if err != nil {
			return fmt.Errorf("%s: frame at offset %d: %w", path, off, err)
		}
		off += int64(n)
		d.seq = max(d.seq, seq)
		if rec != nil {
			pending[seq] = rec
		} else {
			delete(pending, seq)
			acks++
		}
	}
	backlog := make([]*outboxRecord, 0, len(pending))
	for _, rec := range pending {
		backlog = append(backlog, rec)
	}
	sort.Slice(backlog, func(i, k int) bool { return backlog[i].seq < backlog[k].seq })
	for _, rec := range backlog {
		si := d.shardOf(rec.dn)
		d.queues[si] = append(d.queues[si], rec)
		d.pendingDN[rec.dn]++
	}
	d.backlog.Store(int64(len(backlog)))
	if len(backlog) > 0 {
		d.ob.u.logf("um: outbox %s: %d journaled updates to drain", d.name, len(backlog))
	}
	if acks > 0 {
		return d.journal.compact(backlog) // drops the acknowledged pairs
	}
	return nil
}

// append writes one update frame.
func (j *outboxJournal) append(rec *outboxRecord) error {
	return j.write(appendOutboxUpdate(j.payload[:0], rec))
}

// ack writes one ack frame.
func (j *outboxJournal) ack(seq uint64) error {
	j.acksSinceCompact++
	return j.write(appendOutboxAck(j.payload[:0], seq))
}

// write frames payload (kept as the next scratch) and appends it to the file.
func (j *outboxJournal) write(payload []byte) error {
	j.payload = payload
	j.frame = record.AppendFrame(j.frame[:0], payload)
	_, err := j.f.Write(j.frame)
	return err
}

// compact rewrites the journal to hold exactly the live records.
func (j *outboxJournal) compact(live []*outboxRecord) error {
	var frames []byte
	for _, rec := range live {
		j.payload = appendOutboxUpdate(j.payload[:0], rec)
		frames = record.AppendFrame(frames, j.payload)
	}
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(frames); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = nf
	j.acksSinceCompact = 0
	return nil
}

// close closes the journal file.
func (j *outboxJournal) close() {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
