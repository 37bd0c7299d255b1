package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	metacomm "metacomm"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/mcschema"
)

// mesh_restart: the only workload where journal replay and replication do
// most of the work. A journaled directory of plain people is cold-started
// five times as node A; a fresh in-memory node B joins it three times over
// the replication stream; then clients modify entries at A while each write
// is followed until B commits it.
//
// What is stated rather than hidden: the population is written with journal
// sync "none" (fsyncing 50 000 seed records is not what is measured) while
// every timed phase runs A with the shipped "group"; B is in-memory, because
// a durable joiner fsyncs once per snapshot entry today (19 s per 100 000
// entries on the reference box) and three such joins do not fit a run.

const (
	meshEntries = 50000
	// meshRate is the traced run's fixed open-loop write rate at node A.
	meshRate = 500.0
)

// Node ids. B follows A but A does not follow B (a joiner that is replaced
// three times would make A re-snapshot it each time), so the entries both
// nodes create for themselves at start — the suffix and the errors container
// — must resolve towards A's copy for the trees to be identical: the higher
// node id wins a last-writer-wins tie.
const (
	nodeA = 2
	nodeB = 1
)

func journalBase(dir string) string { return filepath.Join(dir, "directory.journal") }

// populateJournal writes the population into a fresh data directory.
func populateJournal(dir string, entries int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := directory.NewSegmented(mcschema.New(), 0)
	d.SetNodeID(nodeA)
	if _, err := d.AttachJournalSet(directory.JournalSetConfig{Base: journalBase(dir), Mode: directory.SyncNone}); err != nil {
		return err
	}
	org := directory.NewAttrs()
	org.Put("objectClass", mcschema.ClassOrganization)
	org.Put("o", "Lucent")
	if err := d.Add(dn.MustParse(suffix), org); err != nil {
		return err
	}
	if err := seedPlain(d, entries); err != nil {
		return err
	}
	return d.CloseJournal()
}

func startNodeA(dir string) (*metacomm.System, error) {
	return metacomm.Start(metacomm.Config{DataDir: dir, NodeID: nodeA, ReplicationAddr: "127.0.0.1:0"})
}

// join starts a fresh node B following a and waits until it holds a's tree.
func join(a *metacomm.System) (*metacomm.System, float64, error) {
	want, seq := a.DIT.Len(), a.DIT.Seq()
	freshHeap()
	t0 := time.Now()
	b, err := metacomm.Start(metacomm.Config{NodeID: nodeB, Peers: []string{a.ReplicationAddrActual}})
	if err != nil {
		return nil, 0, err
	}
	for {
		if ps := b.Replicator.Stats().Peers; b.DIT.Len() >= want && len(ps) == 1 && ps[0].Cursor >= seq {
			return b, time.Since(t0).Seconds(), nil
		}
		if time.Since(t0) > 60*time.Second {
			b.Close()
			return nil, 0, fmt.Errorf("join: node B holds %d of %d entries after 60 s", b.DIT.Len(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// converged waits until b has applied everything a committed and compares
// the two trees.
func converged(a, b *metacomm.System) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		ps := b.Replicator.Stats().Peers
		if len(ps) == 1 && ps[0].Cursor >= a.DIT.Seq() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node B's cursor is still behind node A's commit sequence %d after 15 s", a.DIT.Seq())
		}
		time.Sleep(time.Millisecond)
	}
	if fa, fb := a.DIT.Fingerprint(), b.DIT.Fingerprint(); fa != fb {
		return fmt.Errorf("fingerprints differ after convergence: A %s, B %s", fa, fb)
	}
	return nil
}

func runMeshRestart(rc *runCtx) error {
	r := rc.res
	entries := meshEntries
	if rc.short {
		entries = 1000
	}
	r.Env.Entries = entries
	r.Env.Rates = map[string]float64{"mid": meshRate}
	r.Env.SyncMode = "group (population written with none)"

	// Set-up: write the journaled population.
	dataDir := filepath.Join(rc.tmp, "nodeA")
	var setups []float64
	for i := 0; i < rc.repeats(setupRepeats); i++ {
		if err := os.RemoveAll(dataDir); err != nil {
			return err
		}
		freshHeap()
		t0 := time.Now()
		if err := populateJournal(dataDir, entries); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), len(setups), "median; journaled population written, sync none")

	// Cold starts: the first one adds the errors container, so the entry
	// count to recover is taken after it.
	a, err := startNodeA(dataDir)
	if err != nil {
		return err
	}
	defer func() { a.Close() }()
	g := &gate{res: r}
	g.check(a.DIT.Len() == entries+2, "first cold start holds %d entries, want %d seeded + suffix + errors container", a.DIT.Len(), entries)
	a, recoverS, err := recoverRepeated(g, a, rc.repeats(recoverRepeats), func() (*metacomm.System, error) { return startNodeA(dataDir) }, entries+2)
	if err != nil {
		return err
	}
	r.set("recover_s", recoverS, rc.repeats(recoverRepeats), "median cold start of node A on the journaled population")
	if rc.trace {
		replayReadings(r, a)
	}

	// Joins.
	var b *metacomm.System
	defer func() {
		if b != nil {
			b.Close()
		}
	}()
	var joins []float64
	for i := 0; i < rc.repeats(bulkRepeats); i++ {
		if b != nil {
			b.Close()
		}
		var sec float64
		if b, sec, err = join(a); err != nil {
			return err
		}
		joins = append(joins, float64(a.DIT.Len())/sec)
	}
	r.set("join_entries_per_s", median(joins), len(joins), "median; fresh in-memory node B, snapshot over the replication stream")
	r.set("bulk_entries_per_s", median(joins), len(joins), "entries per second of a fresh node B's join")
	r.set("replica.snapshot_entries_per_s", median(joins), len(joins), "the same joins: hello -> snapshot applied -> cursor at A's commit sequence")

	// Writes at A, followed to B.
	gen, err := newGenerator(a.LTAPAddrActual, mixMesh, rc.seed, rc.conns, entries)
	if err != nil {
		return err
	}
	defer gen.close()
	f := follow(b.DIT, gen.epoch, "roomNumber")
	origin := follow(a.DIT, gen.epoch, "roomNumber")
	gen.hooks = hooks{
		sent: func(value string, due int64) {
			f.expect(value, due)
			origin.expect(value, due)
		},
		acked: f.acked,
	}
	gen.run("warm", rc.scale(warmup), 0)
	var stages []*stage
	if rc.trace {
		if stages, err = traceMesh(rc, a, b, gen, f, origin); err != nil {
			return err
		}
	} else {
		closed := gen.run("closed", frac(rc.seconds, 1), 0)
		ops, wins := closed.throughput()
		r.set("ops_per_s", ops, wins, fmt.Sprintf("median of 0.5 s windows; closed loop at node A, %d connections, B following", rc.conns))
		r.primary(meshReadings(rc, f, origin, closed), "write round trip at A with B following, closed loop")
		stages = []*stage{closed}
	}
	rc.account(stages...)
	if missing := f.wait(10 * time.Second); missing > 0 {
		r.failf("%d writes acked by node A never committed at node B", missing)
	}
	f.stop()
	origin.stop()

	if err := converged(a, b); err != nil {
		r.failf("%v", err)
	}
	var trackers []*tracker
	for _, c := range gen.conns {
		trackers = append(trackers, c.tr)
	}
	for _, node := range []*metacomm.System{a, b} {
		if err := g.checkWrites(node, trackers, false); err != nil {
			return err
		}
	}
	r.Attempted += g.checked
	r.set("rss_mb", peakRSSMB(), 0, "VmHWM at workload end; both nodes in one process")
	return nil
}

// meshReadings reports a stage's replication readings — issue at A ->
// commit at B, and the lag from A's commit to B's commit (A's ack is no use
// as the lag's start: an in-memory B commits a write before A has fanned it
// out and answered its client) — and returns the write round trip at A.
//
// The round trip at A is the bounded latency of this workload. Issue -> commit
// at B has the same median (B is ahead of A's ack) but 1-3% of the writes
// reach B milliseconds late, which puts its p99 on the edge of that mode: it
// swung 2.2-5.1 ms over ten runs.
func meshReadings(rc *runCtx, f, origin *follower, st *stage) latency {
	total, _ := f.spans(st.start, st.start+int64(st.dur))
	b := latencyOf(total, st.dur, rc.short)
	rc.res.set("visible_at_b_p50_us", b.p50, b.n, "write issued at A -> committed at B")
	rc.res.set("visible_at_b_p99_us", b.p99, b.wins, "median of 2 s window p99s")
	lag := latencyOf(f.behind(origin, st.start, st.start+int64(st.dur)), st.dur, rc.short)
	rc.res.set("repl_lag_p50_ms", lag.p50/1e3, lag.n, "A's commit -> B's commit")
	rc.res.set("repl_lag_p99_ms", lag.p99/1e3, lag.wins, "A's commit -> B's commit; median of 2 s window p99s")
	return latencyReadings(rc.res, "write", st, false, rc.short)
}
