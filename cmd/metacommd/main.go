// Command metacommd runs the complete MetaComm meta-directory: the backing
// LDAP directory server, the LTAP trigger gateway, the Update Manager, the
// embedded Definity PBX and messaging-platform simulators, and the
// Web-Based Administration.
//
// Example:
//
//	metacommd -ltap 127.0.0.1:3890 -wba 127.0.0.1:8080
//
// Then point any LDAP tool at the LTAP address, a browser at the WBA
// address, and a telnet session at the printed PBX address for direct
// device updates.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	metacomm "metacomm"
	"metacomm/internal/ldapserver"
	"metacomm/internal/wba"
)

// splitPeers parses the -peers flag: comma-separated addresses, blanks
// dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	var (
		suffix   = flag.String("suffix", "o=Lucent", "directory suffix")
		dirAddr  = flag.String("directory", "127.0.0.1:0", "backing LDAP server listen address")
		ltap     = flag.String("ltap", "127.0.0.1:3890", "LTAP gateway listen address (the public LDAP endpoint)")
		pbxAddr  = flag.String("pbx", "127.0.0.1:0", "PBX simulator listen address")
		mpAddr   = flag.String("mp", "127.0.0.1:0", "messaging platform listen address")
		wbaAddr  = flag.String("wba", "127.0.0.1:8080", "web administration listen address (empty disables)")
		umShards = flag.Int("um-shards", 0, "Update Manager shard count (0 = default)")
		umQueue  = flag.Int("um-queue-depth", 0, "Update Manager per-shard queue capacity (0 = default)")
		syncWk   = flag.Int("sync-workers", 0, "synchronization reconciliation worker pool size (0 = default)")
		devSess  = flag.Int("device-sessions", 0, "pooled administration sessions per device (0 = single session)")
		devLat   = flag.Duration("device-latency", 0, "simulated per-update processing time in the device simulators")
		maxMsg   = flag.Int("max-message", 0, "max LDAP request message size in bytes on both listeners (0 = 4 MB default)")
		acceptLp = flag.String("accept-loop", "goroutine", "connection serving on both listeners: goroutine (per-conn, portable) or epoll (event loop, Linux)")
		outbox   = flag.String("outbox-dir", "", "journal directory for the durable device-update outbox (empty disables)")
		obRetry  = flag.Int("outbox-retries", 0, "outbox replay attempts before targeted repair (0 = default)")
		obBack   = flag.Duration("outbox-backoff", 0, "outbox base retry backoff, doubled per attempt (0 = default)")
		dataDir  = flag.String("data", "", "data directory for the durable directory journal (empty = in-memory)")
		ditSegs  = flag.Int("dit-segments", 0, "DN-hash DIT segment count, each with its own lock and journal (0 = default)")
		replAddr = flag.String("replication", "", "replication stream listen address for read replicas and multi-master peers (empty disables)")
		nodeID   = flag.Uint("node-id", 0, "this node's replication identity, distinct across the mesh (required with -peers)")
		peers    = flag.String("peers", "", "comma-separated replication addresses of multi-master peers (requires -node-id)")
		audit    = flag.String("audit", "", "audit log file ('-' = stderr, empty disables)")
		quiet    = flag.Bool("quiet", false, "suppress operational logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "metacomm: ", log.LstdFlags)
	if *quiet {
		logger = nil
	}
	var auditW io.Writer
	switch *audit {
	case "":
	case "-":
		auditW = os.Stderr
	default:
		f, err := os.OpenFile(*audit, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("metacommd: audit log: %v", err)
		}
		defer f.Close()
		auditW = f
	}
	peerList := splitPeers(*peers)
	sys, err := metacomm.Start(metacomm.Config{
		Suffix:         *suffix,
		DirectoryAddr:  *dirAddr,
		LTAPAddr:       *ltap,
		PBXAddr:        *pbxAddr,
		MPAddr:         *mpAddr,
		UMShards:       *umShards,
		UMQueueDepth:   *umQueue,
		SyncWorkers:    *syncWk,
		DeviceSessions: *devSess,
		DeviceLatency:  *devLat,
		MaxMessageSize: *maxMsg,
		AcceptLoop:     *acceptLp,
		Outbox: metacomm.OutboxConfig{
			Dir:         *outbox,
			MaxRetries:  *obRetry,
			BaseBackoff: *obBack,
		},
		InitialSync:     true,
		DataDir:         *dataDir,
		DITSegments:     *ditSegs,
		ReplicationAddr: *replAddr,
		NodeID:          uint32(*nodeID),
		Peers:           peerList,
		AuditLog:        auditW,
		Logger:          logger,
	})
	if err != nil {
		log.Fatalf("metacommd: %v", err)
	}
	defer sys.Close()

	if sys.Replicator != nil {
		fmt.Printf("replication node:  %d (%d peers)\n", sys.Replicator.NodeID, len(peerList))
	}
	fmt.Printf("LDAP (via LTAP):   %s\n", sys.LTAPAddrActual)
	fmt.Printf("backing directory: %s\n", sys.DirectoryAddrActual)
	fmt.Printf("Definity PBX:      %s\n", sys.PBXAddrActual)
	fmt.Printf("messaging platform:%s\n", sys.MPAddrActual)
	if sys.ReplicationAddrActual != "" {
		fmt.Printf("replication stream: %s\n", sys.ReplicationAddrActual)
	}

	if *wbaAddr != "" {
		conn, err := sys.Client()
		if err != nil {
			log.Fatalf("metacommd: wba connection: %v", err)
		}
		defer conn.Close()
		srv := wba.New(conn, *suffix)
		srv.Stats = sys.UM.Stats
		srv.GatewayStats = sys.Gateway.Stats
		srv.SyncStats = sys.UM.LastSyncStats
		srv.OutboxStats = sys.UM.OutboxStats
		srv.JournalStats = sys.DIT.JournalStats
		srv.LTAPWireStats = func() ldapserver.WireStats { return sys.WireStats().LTAP }
		srv.DirWireStats = func() ldapserver.WireStats { return sys.WireStats().Directory }
		if sys.Replicator != nil {
			srv.ReplicationStats = sys.Replicator.Stats
		}
		go func() {
			fmt.Printf("web administration: http://%s/\n", *wbaAddr)
			if err := http.ListenAndServe(*wbaAddr, srv); err != nil {
				log.Fatalf("metacommd: wba: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := sys.UM.Stats()
	fmt.Printf("shutting down; um: shards=%d processed=%d pending=%d busy-rejections=%d device-applies=%d errors=%d\n",
		st.Shards, st.UpdatesProcessed, st.Pending, st.QueueRejections, st.DeviceApplies, st.ErrorsLogged)
	ws := sys.WireStats()
	fmt.Printf("wire ltap: messages=%d responses=%d flushes=%d responses/flush=%.1f oversize-rejected=%d\n",
		ws.LTAP.MessagesRead, ws.LTAP.ResponsesWritten, ws.LTAP.Flushes,
		ws.LTAP.ResponsesPerFlush(), ws.LTAP.OversizeRejected)
	fmt.Printf("wire directory: messages=%d responses=%d flushes=%d responses/flush=%.1f oversize-rejected=%d\n",
		ws.Directory.MessagesRead, ws.Directory.ResponsesWritten, ws.Directory.Flushes,
		ws.Directory.ResponsesPerFlush(), ws.Directory.OversizeRejected)
	for _, r := range []struct {
		name string
		st   ldapserver.ReactorStats
	}{{"ltap", ws.LTAP.Reactor}, {"directory", ws.Directory.Reactor}} {
		if r.st.Enabled {
			fmt.Printf("reactor %s: conns=%d workers=%d wakeups=%d events=%d frames=%d frames/wakeup=%.1f queue-depth=%d\n",
				r.name, r.st.Conns, r.st.Workers, r.st.Wakeups, r.st.Events,
				r.st.Frames, r.st.FramesPerWakeup(), r.st.QueueDepth)
		}
	}
	gs := sys.Gateway.Stats()
	fmt.Printf("gateway: searches=%d updates=%d backend-fetches=%d quiesces=%d quiesce-ms=%.1f updates-delayed=%d\n",
		gs.Searches, gs.Updates, gs.BackendFetches,
		gs.Quiesces, float64(gs.QuiesceNs)/1e6, gs.UpdatesDelayedByQuiesce)
	for name, ss := range sys.UM.LastSyncStats() {
		fmt.Printf("sync %s: records=%d adds=%d/%d mods=%d/%d in-sync=%d errors=%d snapshot=%v workers=%d bulk-ms=%.1f quiesce-ms=%.1f delta=%d/%d records/s=%.0f\n",
			name, ss.DeviceRecords, ss.DirectoryAdds, ss.DeviceAdds, ss.DirectoryMods, ss.DeviceMods,
			ss.AlreadyInSync, ss.Errors, ss.SnapshotUsed, ss.Workers,
			float64(ss.BulkNs)/1e6, float64(ss.QuiesceNs)/1e6, ss.DeltaRecords, ss.DeltaReplayed, ss.RecordsPerSec())
	}
	for _, obs := range sys.UM.OutboxStats() {
		fmt.Printf("outbox %s: breaker=%s backlog=%d enqueued=%d drained=%d deferred=%d retries=%d repairs=%d dropped=%d trips=%d\n",
			obs.Device, obs.Breaker, obs.Backlog, obs.Enqueued, obs.Drained, obs.Deferred,
			obs.Retries, obs.Repairs, obs.Dropped, obs.Trips)
	}
	if js := sys.DIT.JournalStats(); js.Batches > 0 {
		fmt.Printf("journal: sync=%s commits=%d groups=%d mean-group=%.1f max-group=%d fsyncs=%d bytes=%d mean-commit=%s torn-tails=%d\n",
			js.Mode, js.Appends, js.Batches, js.MeanBatch(), js.MaxBatch,
			js.Fsyncs, js.Bytes, js.MeanCommit(), js.TornTails)
		fmt.Printf("journal group sizes: 1=%d 2-4=%d 5-16=%d 17-64=%d 65-256=%d >256=%d\n",
			js.BatchHist[0], js.BatchHist[1], js.BatchHist[2], js.BatchHist[3], js.BatchHist[4], js.BatchHist[5])
	}
	if js := sys.DIT.JournalStats(); js.ReplayNs > 0 {
		fmt.Printf("journal replay: records=%d bytes=%d wall-ms=%.1f records/s=%.0f\n",
			js.ReplayedRecords, js.ReplayedBytes, float64(js.ReplayNs)/1e6, js.ReplayRecordsPerSec())
	}
	ds := sys.DIT.Stats()
	fmt.Printf("dit: segments=%d entries=%d interned-names=%d\n", ds.Segments, ds.Entries, ds.InternedNames)
	if sys.Replicator != nil {
		rs := sys.Replicator.Stats()
		fmt.Printf("replication node %d: inbound-conns=%d resumes-served=%d snapshots-served=%d records-sent=%d um-remote-applies=%d um-remote-drops=%d\n",
			rs.NodeID, rs.Publisher.Conns, rs.Publisher.Resumes, rs.Publisher.Snapshots, rs.Publisher.RecordsSent,
			st.RemoteApplies, st.RemoteDrops)
		for _, ps := range rs.Peers {
			fmt.Printf("replication peer %s: connected=%v cursor=%d resumes=%d snapshots=%d applied=%d noops=%d structural=%d\n",
				ps.Addr, ps.Connected, ps.Cursor, ps.Resumes, ps.Snapshots, ps.Applied, ps.Noops, ps.Structural)
		}
	}
	if cs := sys.DIT.CompactionStats(); cs.Runs > 0 {
		fmt.Printf("compaction: runs=%d snapshot-entries=%d spliced-bytes=%d last-ms=%.1f\n",
			cs.Runs, cs.SnapshotEntries, cs.SplicedBytes, float64(cs.LastNs)/1e6)
	}
}
