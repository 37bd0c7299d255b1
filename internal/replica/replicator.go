package replica

import (
	"encoding/json"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"metacomm/internal/directory"
)

// Replicator runs one node's side of a multi-master mesh: a Publisher
// serving this node's changelog to whoever asks, plus one consumer link
// per configured peer. Writes accepted on any node flow to every other —
// directly or through intermediaries (a re-applied remote record is
// re-emitted with its ORIGIN stamp, so updates flood the mesh and the
// strict-greater LWW rule terminates the flood).
//
// Per-peer cursors persist to a small JSON file (SetCursorPath): a
// restarted node resumes each peer link from where it left off instead of
// re-snapshotting. Stale cursors are harmless — every record re-applied
// under LWW is a no-op.
type Replicator struct {
	// NodeID is this node's replication identity (the LWW tiebreak); it
	// must be distinct across the mesh.
	NodeID uint32
	// OnApply, when set BEFORE Start, observes every remote record that
	// won LWW and mutated the tree — the hook the Update Manager uses to
	// run device propagation for writes that originated elsewhere.
	OnApply func(directory.RemoteApplied)
	// ErrorLog, when set BEFORE Start, receives link-level problems that
	// retrying will not fix (a peer speaking another wire version).
	ErrorLog *log.Logger

	d   *directory.DIT
	pub *Publisher

	mu         sync.Mutex
	links      []*link
	cursorPath string
	cursors    map[string]uint64
	lastSave   time.Time
	started    bool
}

// NewReplicator builds a replicator over d, branding d with the node id.
// Call before any writes reach d (the id goes into every origin stamp).
func NewReplicator(nodeID uint32, d *directory.DIT) *Replicator {
	d.SetNodeID(nodeID)
	return &Replicator{NodeID: nodeID, d: d, pub: NewPublisher(d), cursors: map[string]uint64{}}
}

// SetCursorPath selects the per-peer cursor file and loads whatever a
// previous run left there. Call before AddPeer.
func (r *Replicator) SetCursorPath(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cursorPath = path
	data, err := os.ReadFile(path)
	if err != nil {
		return // first run
	}
	var saved map[string]uint64
	if json.Unmarshal(data, &saved) == nil {
		for k, v := range saved {
			r.cursors[k] = v
		}
	}
}

// Serve starts the publisher on addr (host:port; port 0 picks one) and
// returns the bound address.
func (r *Replicator) Serve(addr string) (net.Addr, error) {
	return r.pub.Start(addr)
}

// AddPeer registers a peer publisher to consume from. Call before Start.
func (r *Replicator) AddPeer(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := newLink(addr, r.NodeID, r.d,
		func(res directory.RemoteApplied) {
			if r.OnApply != nil {
				r.OnApply(res)
			}
		},
		func(cursor uint64) { r.saveCursor(addr, cursor) })
	l.cursor.Store(r.cursors[addr])
	r.links = append(r.links, l)
}

// Start begins consuming from every registered peer.
func (r *Replicator) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return
	}
	r.started = true
	for _, l := range r.links {
		l.start(r.ErrorLog)
	}
}

// Stop halts the peer links and the publisher, then writes the final
// cursor file.
func (r *Replicator) Stop() {
	r.mu.Lock()
	links := r.links
	started := r.started
	r.started = false
	r.mu.Unlock()
	if started {
		for _, l := range links {
			l.stopAndWait()
		}
	}
	r.pub.Close()
	r.flushCursors()
}

// saveCursor records a peer link's progress, rewriting the cursor file at
// most every 200ms — losing the last interval to a crash only costs
// re-applying that interval's records, all no-ops under LWW.
func (r *Replicator) saveCursor(addr string, cursor uint64) {
	r.mu.Lock()
	r.cursors[addr] = cursor
	if r.cursorPath == "" || time.Since(r.lastSave) < 200*time.Millisecond {
		r.mu.Unlock()
		return
	}
	r.lastSave = time.Now()
	path := r.cursorPath
	data, err := json.Marshal(r.cursors)
	r.mu.Unlock()
	if err == nil {
		writeFileAtomic(path, data)
	}
}

// flushCursors writes the cursor file unconditionally.
func (r *Replicator) flushCursors() {
	r.mu.Lock()
	path := r.cursorPath
	data, err := json.Marshal(r.cursors)
	r.mu.Unlock()
	if path == "" || err != nil {
		return
	}
	writeFileAtomic(path, data)
}

func writeFileAtomic(path string, data []byte) {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, path)
}

// PeerStats is one peer link's progress.
type PeerStats struct {
	Addr      string
	Connected bool
	// Cursor is the peer commit seq this node reflects; Resumes/Snapshots
	// count catch-ups by path; Applied/Noops/Structural classify received
	// records (LWW winners / losers+duplicates / skipped conflicts).
	Cursor     uint64
	Resumes    uint64
	Snapshots  uint64
	Applied    uint64
	Noops      uint64
	Structural uint64
}

// Stats is a point-in-time snapshot of one node's replication activity.
type Stats struct {
	NodeID    uint32
	Publisher PublisherStats
	Peers     []PeerStats
}

// Stats reports the node's replication counters.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	links := append([]*link(nil), r.links...)
	r.mu.Unlock()
	s := Stats{NodeID: r.NodeID, Publisher: r.pub.Stats()}
	for _, l := range links {
		s.Peers = append(s.Peers, PeerStats{
			Addr:       l.addr,
			Connected:  l.connected.Load(),
			Cursor:     l.cursor.Load(),
			Resumes:    l.resumes.Load(),
			Snapshots:  l.resyncs.Load(),
			Applied:    l.applied.Load(),
			Noops:      l.noops.Load(),
			Structural: l.structural.Load(),
		})
	}
	return s
}
