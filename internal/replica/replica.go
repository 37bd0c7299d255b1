// Package replica implements replication for the MetaComm directory. The
// paper situates LDAP's availability story in replication ("LDAP servers
// make extensive use of replication to make directory information highly
// available", §2); this package supplies it in multi-master form:
//
//   - a Publisher streams committed updates to any consumer in the journal's
//     own binary record frames (internal/record). A consumer announces
//     itself with a hello frame carrying the wire version, its node id and
//     its changelog cursor; the publisher either RESUMES it (replaying the
//     tail of records after the cursor) or, when the in-memory tail no
//     longer covers the cursor, ships a full exact-cut snapshot — entries
//     with their origin stamps plus tombstones — followed by the live
//     stream. Either way no writer on the publisher is ever quiesced.
//   - a link (the consumer half) applies everything that has arrived as one
//     batch through DIT.ApplyRemoteBatch: per-entry last-writer-wins on the
//     (Lamport seq, node id) origin stamp, so records may arrive in any
//     order, from any number of peers, any number of times, and every node
//     converges to the same tree.
//   - a Replicator (replicator.go) composes one Publisher with N links
//     into a multi-master node: writes accepted anywhere, exchanged
//     peer-to-peer, durable cursors so reconnects resume instead of
//     re-snapshotting.
//   - a Replica is the read-only special case — one link feeding a local
//     tree that serves reads (wrap it in an ldapserver.DITHandler).
//
// Everything on the wire is a full post-image, never a delta: re-applying
// any suffix of the stream is idempotent (losing/duplicate stamps are
// silent no-ops), which is what makes the cursor protocol safe against
// torn connections, duplicated frames, and crash-stale cursors.
//
// Wire format (table in DESIGN.md §15). Every message is one record frame.
// Entries, tombstones and post-images are the "entry" and "delete" update
// records the journal and compaction write; the rest are control payloads,
// a tag byte followed by uvarints: hello(version, node, cursor) from the
// consumer; then refuse(version, peerVersion) and a close, or resume(seq),
// or snapshot-begin(seq) records* snapshot-end(seq, count); then, forever,
// change(seq, count) followed by the count records of ONE source commit (a
// rename is delete+upsert) — the cursor becomes seq only after all of them
// applied. A frame that fails its checksum ends the session: nothing from
// it or after it is applied, and the link reconnects and resumes.
package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/record"
)

// wireVersion is announced in every hello. Version 1 was newline-delimited
// JSON; a peer speaking it (or anything else) is refused, not guessed at.
const wireVersion = 2

// Control payload tags.
const (
	tagHello = record.ControlBase + iota
	tagRefuse
	tagResume
	tagSnapshotBegin
	tagSnapshotEnd
	tagChange
)

// appendControl appends one control frame to dst.
func appendControl(dst []byte, tag byte, vals ...uint64) []byte {
	var p [1 + 3*binary.MaxVarintLen64]byte
	b := append(p[:0], tag)
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return record.AppendFrame(dst, b)
}

// parseControl decodes a control payload (p[0] >= record.ControlBase): the
// tag and its uvarints, at most three; fields a frame omits read as zero.
func parseControl(p []byte) (tag byte, v [3]uint64, err error) {
	tag, p = p[0], p[1:]
	for k := 0; len(p) > 0; k++ {
		n := 0
		if k < len(v) {
			v[k], n = binary.Uvarint(p)
		}
		if n <= 0 {
			return tag, v, fmt.Errorf("replica: malformed control frame %#02x", tag)
		}
		p = p[n:]
	}
	return tag, v, nil
}

// errWireVersion marks a session that ended because the two ends do not
// speak the same protocol: redialling quickly cannot fix it.
var errWireVersion = errors.New("replica: wire version mismatch")

// PublisherStats counts one publisher's replication activity.
type PublisherStats struct {
	// Conns counts accepted consumer connections; Resumes/Snapshots split
	// their catch-ups by path; RecordsSent totals wire records shipped
	// (snapshot + live).
	Conns       uint64
	Resumes     uint64
	Snapshots   uint64
	RecordsSent uint64
}

// Publisher serves the replication stream from a DIT.
type Publisher struct {
	DIT *directory.DIT

	conns     atomic.Uint64
	resumes   atomic.Uint64
	snapshots atomic.Uint64
	sent      atomic.Uint64

	mu       sync.Mutex
	listener net.Listener
	open     map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

// NewPublisher wraps a DIT.
func NewPublisher(d *directory.DIT) *Publisher {
	return &Publisher{DIT: d, open: map[net.Conn]bool{}}
}

// Stats reports publisher counters.
func (p *Publisher) Stats() PublisherStats {
	return PublisherStats{
		Conns:       p.conns.Load(),
		Resumes:     p.resumes.Load(),
		Snapshots:   p.snapshots.Load(),
		RecordsSent: p.sent.Load(),
	}
}

// Start listens for consumers on addr.
func (p *Publisher) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.listener = l
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				c.Close()
				return
			}
			p.open[c] = true
			p.mu.Unlock()
			p.conns.Add(1)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.serve(c)
			}()
		}
	}()
	return l.Addr(), nil
}

// Close stops the publisher and drops all consumers.
func (p *Publisher) Close() {
	p.mu.Lock()
	p.closed = true
	if p.listener != nil {
		p.listener.Close()
	}
	for c := range p.open {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// serve catches one consumer up (resume or snapshot, chosen by its hello
// cursor) and ships live changes until it drops.
func (p *Publisher) serve(nc net.Conn) {
	defer func() {
		nc.Close()
		p.mu.Lock()
		delete(p.open, nc)
		p.mu.Unlock()
	}()

	w := bufio.NewWriterSize(nc, 64<<10)
	var enc record.Encoder
	var buf []byte // one frame, reused
	control := func(tag byte, vals ...uint64) bool {
		buf = appendControl(buf[:0], tag, vals...)
		_, err := w.Write(buf)
		return err == nil
	}
	send := func(rec *record.Record) bool {
		var err error
		if buf, err = enc.AppendRecord(buf[:0], rec); err == nil {
			_, err = w.Write(buf)
		}
		return err == nil
	}
	// change ships one committed record's replicated form as one group.
	var group []record.Record
	change := func(rec *directory.UpdateRecord) bool {
		group = p.DIT.Replicated(rec, group[:0])
		if len(group) == 0 {
			return true // unstamped legacy history; snapshot fallback covers it
		}
		p.sent.Add(uint64(len(group)))
		ok := control(tagChange, rec.Seq, uint64(len(group)))
		for i := 0; ok && i < len(group); i++ {
			ok = send(&group[i])
		}
		return ok
	}

	// The hello frame must arrive promptly; a consumer that dials and says
	// nothing would otherwise pin a subscription forever. Anything that is
	// not a hello of this version — an old newline-JSON peer, a future one —
	// gets one refusal naming both versions, so it can fail loudly.
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(nc)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	var hello [3]uint64
	if first[0] == record.Marker {
		var fr record.Reader
		payload, _, err := fr.ReadFrame(br)
		if err != nil || len(payload) == 0 || payload[0] != tagHello {
			return
		}
		if _, hello, err = parseControl(payload); err != nil {
			return
		}
	}
	if hello[0] != wireVersion {
		if control(tagRefuse, wireVersion, hello[0]) {
			w.Flush()
		}
		return
	}
	cursor := hello[2]
	nc.SetReadDeadline(time.Time{})

	var changes <-chan directory.UpdateRecord
	var cancel func()
	if backlog, ch, cf, ok := p.DIT.SubscribeFrom(cursor, 4096); ok {
		p.resumes.Add(1)
		changes, cancel = ch, cf
		defer cancel()
		if !control(tagResume, cursor) {
			return
		}
		for i := range backlog {
			if !change(&backlog[i]) {
				return
			}
		}
	} else {
		// Tail doesn't cover the cursor (evicted, disabled, or a cursor
		// from a history this process never saw): exact-cut snapshot,
		// encoded straight out of the tree's attribute values.
		p.snapshots.Add(1)
		snap, ch, cf := p.DIT.SnapshotReplicaAndSubscribe(4096)
		changes, cancel = ch, cf
		defer cancel()
		if !control(tagSnapshotBegin, snap.Seq) {
			return
		}
		var count uint64
		ok := true
		snap.Each(func(rec *record.Record) bool {
			count++
			ok = send(rec)
			return ok
		})
		p.sent.Add(count)
		if !ok || !control(tagSnapshotEnd, snap.Seq, count) {
			return
		}
	}
	if w.Flush() != nil {
		return
	}

	// Unblock on consumer disconnect: a reader that fails closes nc.
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			if _, err := nc.Read(buf); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case rec, ok := <-changes:
			if !ok {
				return // overflow: consumer reconnects and resumes/resyncs
			}
			if !change(&rec) {
				return
			}
			// Drain whatever else is already buffered before flushing so a
			// burst of commits costs one syscall, not one per record — and
			// arrives together, so the consumer commits it together.
			for drained := false; !drained; {
				select {
				case rec, ok = <-changes:
					if !ok {
						return
					}
					if !change(&rec) {
						return
					}
				default:
					drained = true
				}
			}
			if w.Flush() != nil {
				return
			}
		case <-done:
			return
		}
	}
}

// maxApplyBatch caps how many records one ApplyRemoteBatch call carries:
// enough to amortize a durable joiner's fsync over hundreds of entries,
// small enough that the segment locks are held well under a millisecond.
const maxApplyBatch = 512

// link is the consumer half of one replication connection: it dials a
// publisher, announces its cursor, applies everything received through
// ApplyRemoteBatch, and reconnects with backoff until stopped. Replica
// wraps one link; Replicator runs one per peer.
type link struct {
	addr    string
	node    uint32
	d       *directory.DIT
	onApply func(directory.RemoteApplied)
	persist func(cursor uint64)
	log     *log.Logger // nil discards; set before start

	cursor     atomic.Uint64 // publisher commit seq reflected locally
	resyncs    atomic.Uint64 // snapshot catch-ups
	resumes    atomic.Uint64 // tail resumes
	applied    atomic.Uint64 // records that won LWW and mutated the tree
	noops      atomic.Uint64 // losing/duplicate deliveries
	structural atomic.Uint64 // records skipped on structural conflict
	connected  atomic.Bool

	// refusals counts consecutive sessions that ended in errWireVersion;
	// touched only by the link goroutine.
	refusals int

	stop chan struct{}
	wg   sync.WaitGroup
}

func newLink(addr string, node uint32, d *directory.DIT,
	onApply func(directory.RemoteApplied), persist func(uint64)) *link {
	return &link{addr: addr, node: node, d: d, onApply: onApply,
		persist: persist, stop: make(chan struct{})}
}

func (l *link) start(errorLog *log.Logger) {
	l.log = errorLog
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			select {
			case <-l.stop:
				return
			default:
			}
			err := l.session()
			delay := 100 * time.Millisecond
			if errors.Is(err, errWireVersion) {
				// Redialling cannot fix a protocol disagreement: say so
				// once, then back off exponentially (capped near 25 s) in
				// case the peer is upgraded underneath us.
				if l.refusals == 0 && l.log != nil {
					l.log.Printf("replica: peer %s: %v; backing off", l.addr, err)
				}
				if l.refusals < 8 {
					l.refusals++
				}
				delay <<= l.refusals
			}
			select {
			case <-l.stop:
				return
			case <-time.After(delay):
			}
		}
	}()
}

func (l *link) stopAndWait() {
	close(l.stop)
	l.wg.Wait()
}

func (l *link) setCursor(seq uint64) {
	l.cursor.Store(seq)
	if l.persist != nil {
		l.persist(seq)
	}
}

// session runs one connection: hello, catch-up (resume or snapshot), then
// the live stream until it breaks.
func (l *link) session() error {
	nc, err := net.DialTimeout("tcp", l.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	// Drop the connection promptly when stopping; connDone reaps the
	// watcher when this session ends for any other reason.
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		select {
		case <-l.stop:
			nc.Close()
		case <-connDone:
		}
	}()

	if _, err := nc.Write(appendControl(nil, tagHello, wireVersion, uint64(l.node), l.cursor.Load())); err != nil {
		return err
	}
	defer l.connected.Store(false)
	// The read buffer bounds a batch: everything one read pulled off the
	// socket is applied together.
	return l.consume(bufio.NewReaderSize(nc, 256<<10))
}

// consume reads the publisher's side of one session from br and applies it.
// It only returns on a broken stream.
func (l *link) consume(br *bufio.Reader) error {
	first, err := br.Peek(1)
	if err != nil {
		return err
	}
	if first[0] != record.Marker {
		return fmt.Errorf("%w: peer answered %#02x, not a v%d frame", errWireVersion, first[0], wireVersion)
	}
	var (
		dec   record.Decoder
		batch []record.Record
		// inSnapshot: between snapshot-begin and snapshot-end, where any
		// record boundary may end a batch. owed: records still to come in
		// the current change group, which a batch never splits.
		inSnapshot bool
		received   uint64
		owed       uint64
		// next is the cursor the records batched so far add up to; it is
		// committed once they are applied.
		next, dirty = uint64(0), false
	)
	started := false
	for {
		if owed == 0 && (len(batch) > 0 || dirty) &&
			(len(batch) >= maxApplyBatch || !record.FrameBuffered(br)) {
			if err := l.apply(batch); err != nil {
				return err
			}
			batch = batch[:0]
			if dirty {
				// Cursor advances only after the WHOLE group applied: a
				// rename's delete+upsert pair is never torn by a reconnect
				// between them.
				l.setCursor(next)
				dirty = false
			}
		}
		p, _, err := dec.ReadFrame(br)
		if err != nil {
			return err
		}
		if len(p) == 0 {
			return errors.New("replica: empty frame")
		}
		if p[0] < record.ControlBase {
			if !inSnapshot && owed == 0 {
				return errors.New("replica: record frame outside a snapshot or change group")
			}
			batch = append(batch, record.Record{})
			if err := dec.Decode(p, &batch[len(batch)-1]); err != nil {
				return fmt.Errorf("replica: %w", err)
			}
			if received++; !inSnapshot {
				if owed--; owed == 0 {
					dirty = true
				}
			}
			continue
		}
		tag, v, err := parseControl(p)
		if err != nil {
			return err
		}
		switch {
		case tag == tagRefuse && !started:
			return fmt.Errorf("%w: publisher speaks v%d, refused our v%d", errWireVersion, v[0], v[1])
		case tag == tagResume && !started:
			l.resumes.Add(1)
			l.connected.Store(true)
		case tag == tagSnapshotBegin && !started:
			l.resyncs.Add(1)
			inSnapshot, received = true, 0
		case tag == tagSnapshotEnd && inSnapshot:
			if v[1] != received {
				return fmt.Errorf("replica: snapshot carried %d records, publisher sent %d", received, v[1])
			}
			// The cut seq may be BELOW our stale cursor (publisher restarted
			// with a fresh history); trusting it either way is safe because
			// every apply is idempotent under LWW.
			inSnapshot, next, dirty = false, v[0], true
			l.connected.Store(true)
		case tag == tagChange && started && !inSnapshot && owed == 0 && v[1] > 0:
			next, owed = v[0], v[1]
		default:
			return fmt.Errorf("replica: unexpected control frame %#02x", tag)
		}
		if !started {
			started = true
			l.refusals = 0
		}
	}
}

// apply feeds one batch through LWW resolution. Structural conflicts (bad
// DN, missing parent, delete of a non-leaf, unstamped record) are counted
// and skipped — they are per-record, not per-stream, and re-delivery cannot
// fix them. Real failures (a poisoned local journal) abort the session.
func (l *link) apply(batch []record.Record) error {
	if len(batch) == 0 {
		return nil
	}
	results, err := l.d.ApplyRemoteBatch(batch)
	if err != nil {
		return err
	}
	for _, res := range results {
		switch {
		case res.Err != nil:
			l.structural.Add(1)
		case !res.Applied:
			l.noops.Add(1)
		default:
			l.applied.Add(1)
			if l.onApply != nil {
				l.onApply(res)
			}
		}
	}
	return nil
}

// Replica maintains a read-only copy of one publisher — the single-master
// special case of the protocol (node id 0, no publisher of its own).
type Replica struct {
	// DIT is the replica's local tree; serve reads from it.
	DIT *directory.DIT
	// ErrorLog, when set before Start, receives link-level problems that
	// retrying will not fix (a publisher speaking another wire version).
	ErrorLog *log.Logger

	link *link
}

// New builds a replica of the publisher at addr. schema should match the
// publisher's (nil for none). Call Start to begin replicating.
func New(addr string, schema *directory.Schema) *Replica {
	d := directory.New(schema)
	return &Replica{DIT: d, link: newLink(addr, 0, d, nil, nil)}
}

// AppliedSeq returns the publisher commit sequence the replica reflects.
func (r *Replica) AppliedSeq() uint64 { return r.link.cursor.Load() }

// Resyncs counts full snapshot resynchronizations. A replica whose cursor
// is still covered by the publisher's changelog tail resumes instead (see
// Resumes), so reconnects normally leave this untouched.
func (r *Replica) Resyncs() uint64 { return r.link.resyncs.Load() }

// Resumes counts cursor resumes — the cheap catch-up path, including the
// initial sync when the publisher's tail reaches back to seq 0.
func (r *Replica) Resumes() uint64 { return r.link.resumes.Load() }

// Connected reports whether the replication stream is live.
func (r *Replica) Connected() bool { return r.link.connected.Load() }

// Start begins replicating in the background, reconnecting with a small
// backoff until Stop.
func (r *Replica) Start() { r.link.start(r.ErrorLog) }

// Stop halts replication.
func (r *Replica) Stop() { r.link.stopAndWait() }
