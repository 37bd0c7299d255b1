// Package metacomm assembles the complete MetaComm meta-directory (ICDE
// 2000): an LDAP directory server materializing user data from telecom
// devices, fronted by the LTAP trigger gateway, coordinated by the Update
// Manager, with a Definity PBX simulator and a voice messaging platform
// simulator as the integrated devices.
//
// Architecture (the paper's Figure 1):
//
//	LDAP clients / Web-Based Administration
//	        │ (LDAP protocol)
//	        ▼
//	     LTAP gateway ──── trigger events ───► Update Manager
//	        │ reads                              │  sharded queues,
//	        ▼                                    ▼  concurrent fanout
//	  LDAP directory ◄── direct writes ── PBX filter / MP filter
//	   (materialized view)                       │ proprietary protocols
//	                                             ▼
//	                                    Definity PBX   Messaging platform
//	                                             ▲
//	                                 direct device updates (DDUs)
//
// Updates may arrive through LDAP or directly at either device; MetaComm
// converges all repositories to the Update Manager's per-entry
// serialization order (relaxed write-write consistency — total order per
// entry, no order across independent entries).
package metacomm

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"metacomm/internal/device"
	"metacomm/internal/device/msgplat"
	"metacomm/internal/device/pbx"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
	"metacomm/internal/lexpress"
	"metacomm/internal/ltap"
	"metacomm/internal/mcschema"
	"metacomm/internal/replica"
	"metacomm/internal/um"
)

// Config configures a System. The zero value works: every listener binds a
// loopback ephemeral port and both device simulators start embedded.
type Config struct {
	// Suffix is the directory suffix (default "o=Lucent").
	Suffix string
	// DirectoryAddr / LTAPAddr are listen addresses (default 127.0.0.1:0).
	DirectoryAddr string
	LTAPAddr      string
	// PBXAddr / MPAddr are device listen addresses (default 127.0.0.1:0).
	PBXAddr string
	MPAddr  string
	// UMShards is the Update Manager's shard count: updates are routed to
	// shards by entry, preserving per-entry order while distinct entries
	// proceed in parallel (0 = um.DefaultShards).
	UMShards int
	// UMQueueDepth is each UM shard's queue capacity; a full queue rejects
	// updates with LDAP result busy (0 = um.DefaultQueueDepth).
	UMQueueDepth int
	// SyncWorkers sizes the synchronization reconciliation worker pool
	// (0 = um.DefaultSyncWorkers). Synchronization runs its bulk phase
	// unquiesced against a COW directory snapshot and only quiesces to
	// replay the updates that arrived meanwhile.
	SyncWorkers int
	// DeviceSessions is the number of pooled administration sessions each
	// device filter keeps open (0 or 1 = a single session). A single
	// session processes one device command at a time; with sharded UM
	// workers applying updates concurrently, extra sessions let the device
	// side keep up (real switch commands take milliseconds each).
	DeviceSessions int
	// DeviceLatency simulates per-update processing time inside the
	// embedded device simulators. Real switch administration is slow; the
	// experiments use this to reproduce that regime (0 = no delay).
	DeviceLatency time.Duration
	// MaxMessageSize bounds a single LDAP request message on both listeners
	// (the LTAP gateway and the backing directory server); 0 means
	// ber.DefaultMaxMessageSize (4 MB). A request declaring a larger length
	// is refused with a protocolError unsolicited notice and the connection
	// is closed, before any content is read or allocated. The bound is for
	// outside clients: the node's own device-originated updates reach the
	// gateway in process, whatever their size.
	MaxMessageSize int
	// ExtraMappings is additional lexpress source compiled into the
	// standard telecom library (for new data sources).
	ExtraMappings string
	// InitialSync populates the directory from the devices on startup.
	InitialSync bool
	// ReplicationAddr, when set, serves the replication stream (see
	// internal/replica): read replicas and peer masters follow this
	// directory through it.
	ReplicationAddr string
	// NodeID is this node's multi-master replication identity — the
	// tiebreak of last-writer-wins conflict resolution. Required (nonzero,
	// distinct per node) when Peers is set; harmless otherwise.
	NodeID uint32
	// Peers lists other masters' replication addresses. Each peer's
	// committed writes stream in and apply under per-entry LWW, so writes
	// are accepted on ANY node and all nodes converge; this node's own
	// stream serves on ReplicationAddr. Reconnects resume from a durable
	// cursor (DataDir) instead of re-snapshotting.
	Peers []string
	// DataDir, when set, makes the directory durable: committed updates
	// are write-ahead journaled to <DataDir>/directory.journal and
	// replayed on the next Start, and the Update Manager's device outbox
	// journals failed device applies to <DataDir>/outbox, so a backlog
	// drains after a restart. Empty keeps both in memory.
	// The journal group-commits (a write is acked once its group is
	// fsynced) and compacts itself: while serving once a segment's file
	// holds twice its live state, and at Close.
	DataDir string
	// DITSegments partitions the directory into that many DN-hash segments,
	// each independently locked with its own journal file and commit
	// pipeline (0 = directory.DefaultDITSegments). A data dir written under
	// a different segment count is re-folded into this one on startup; one
	// holding a pre-segmentation single-file journal is refused (start once
	// with a build at or before PR 12 to convert it).
	DITSegments int
	// AuditLog, when set, receives one line per update that passes through
	// LTAP — including rejected ones — via the gateway's trigger facility.
	AuditLog io.Writer
	// Logger receives operational messages (nil = discard).
	Logger *log.Logger
}

// System is a running MetaComm instance.
type System struct {
	// Suffix is the parsed directory suffix.
	Suffix dn.DN
	// DIT is the backing store of the directory server.
	DIT *directory.DIT
	// UM is the Update Manager.
	UM *um.UM
	// Gateway is the LTAP gateway.
	Gateway *ltap.Gateway
	// PBX and MP are the embedded device simulators.
	PBX *pbx.PBX
	MP  *msgplat.MP
	// Library is the compiled lexpress mapping library.
	Library *lexpress.Library
	// Replicator runs this node's replication (nil unless ReplicationAddr
	// or Peers is configured): the publisher serving our changelog plus
	// one consumer link per peer. Its Stats surface on the WBA /status
	// page and the metacommd shutdown summary.
	Replicator *replica.Replicator

	// Addresses of the running listeners.
	DirectoryAddrActual   string
	ReplicationAddrActual string
	LTAPAddrActual        string
	PBXAddrActual         string
	MPAddrActual          string

	dirServer  *ldapserver.Server
	ltapServer *ldapserver.Server
	converters []device.Converter
}

func defaultStr(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

// Start builds and starts a complete system.
func Start(cfg Config) (*System, error) {
	s := &System{}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()

	suffix, err := dn.Parse(defaultStr(cfg.Suffix, "o=Lucent"))
	if err != nil || suffix.IsRoot() {
		return nil, fmt.Errorf("metacomm: bad suffix %q: %v", cfg.Suffix, err)
	}
	s.Suffix = suffix
	if len(cfg.Peers) > 0 && cfg.NodeID == 0 {
		return nil, fmt.Errorf("metacomm: multi-master replication (Peers) requires a nonzero NodeID")
	}

	// 1. Backing directory server with the integrated schema; the suffix
	// entry exists from the start.
	s.DIT = directory.NewSegmented(mcschema.New(), cfg.DITSegments)
	// The node id brands every origin stamp, so it must be in place before
	// the first write — including the suffix add and journal replay below.
	s.DIT.SetNodeID(cfg.NodeID)
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("metacomm: data dir: %w", err)
		}
		if _, err := s.DIT.AttachJournalSet(directory.JournalSetConfig{
			Base: filepath.Join(cfg.DataDir, "directory.journal"),
			Mode: directory.SyncGroup,
		}); err != nil {
			return nil, fmt.Errorf("metacomm: replaying journal: %w", err)
		}
		if st := s.DIT.JournalStats(); st.TornTails > 0 && cfg.Logger != nil {
			cfg.Logger.Printf("journal: truncated %d torn trailing record(s) (crash mid-append); replay continued from the last complete record", st.TornTails)
		}
	}
	// The update path locates entries by device key on every translated
	// update; index those lookups (benchmark: ~4 orders of magnitude at
	// 10k entries, see BenchmarkIndexAblation).
	s.DIT.EnableIndexes(mcschema.AttrDefinityExtension, mcschema.AttrMailboxNumber,
		mcschema.AttrCN, mcschema.AttrTelephone, "objectClass")
	suffixAttrs := directory.NewAttrs()
	suffixAttrs.Put("objectClass", mcschema.ClassOrganization)
	// The suffix entry may already exist when a journal was replayed.
	if err := s.DIT.Add(suffix, suffixAttrs); err != nil &&
		directory.CodeOf(err) != ldap.ResultEntryAlreadyExists {
		return nil, err
	}
	s.dirServer = ldapserver.NewServer(ldapserver.NewDITHandler(s.DIT))
	s.dirServer.ErrorLog = cfg.Logger
	s.dirServer.MaxMessageSize = cfg.MaxMessageSize
	dirAddr, err := s.dirServer.Start(defaultStr(cfg.DirectoryAddr, "127.0.0.1:0"))
	if err != nil {
		return nil, fmt.Errorf("metacomm: directory listener: %w", err)
	}
	s.DirectoryAddrActual = dirAddr.String()
	if cfg.ReplicationAddr != "" || len(cfg.Peers) > 0 {
		s.Replicator = replica.NewReplicator(cfg.NodeID, s.DIT)
		if cfg.DataDir != "" {
			// Durable per-peer cursors: a restarted node resumes each link
			// where it left off instead of re-snapshotting.
			s.Replicator.SetCursorPath(filepath.Join(cfg.DataDir, "replication.cursors"))
		}
		for _, p := range cfg.Peers {
			s.Replicator.AddPeer(p)
		}
		if cfg.ReplicationAddr != "" {
			pubAddr, err := s.Replicator.Serve(cfg.ReplicationAddr)
			if err != nil {
				return nil, fmt.Errorf("metacomm: replication listener: %w", err)
			}
			s.ReplicationAddrActual = pubAddr.String()
		}
	}

	// 2. Device simulators.
	s.PBX = pbx.New()
	pbxAddr, err := s.PBX.Start(defaultStr(cfg.PBXAddr, "127.0.0.1:0"))
	if err != nil {
		return nil, fmt.Errorf("metacomm: pbx listener: %w", err)
	}
	s.PBXAddrActual = pbxAddr.String()
	s.MP = msgplat.New()
	mpAddr, err := s.MP.Start(defaultStr(cfg.MPAddr, "127.0.0.1:0"))
	if err != nil {
		return nil, fmt.Errorf("metacomm: msgplat listener: %w", err)
	}
	s.MPAddrActual = mpAddr.String()
	if cfg.DeviceLatency > 0 {
		s.PBX.Store.SetLatency(cfg.DeviceLatency)
		s.MP.Store.SetLatency(cfg.DeviceLatency)
	}

	// 3. Mapping library.
	lib, err := lexpress.StandardLibrary()
	if err != nil {
		return nil, err
	}
	if cfg.ExtraMappings != "" {
		if err := lib.Add(cfg.ExtraMappings); err != nil {
			return nil, err
		}
	}
	s.Library = lib

	// 4. Protocol converters + device filters. With more than one
	// administration session configured, each filter gets a session pool:
	// the primary session watches for DDUs, the extras share the update
	// load so concurrent UM shards are not serialized at the device wire.
	sessions := cfg.DeviceSessions
	if sessions < 1 {
		sessions = 1
	}
	pbxPrimary, err := pbx.Dial(s.PBXAddrActual, "metacomm")
	if err != nil {
		return nil, fmt.Errorf("metacomm: pbx converter: %w", err)
	}
	pbxMembers := []device.Converter{pbxPrimary}
	for i := 1; i < sessions; i++ {
		m, err := pbx.DialCommandOnly(s.PBXAddrActual, "metacomm", pbx.DeviceName)
		if err != nil {
			device.NewPool(pbxMembers...).Close()
			return nil, fmt.Errorf("metacomm: pbx converter: %w", err)
		}
		pbxMembers = append(pbxMembers, m)
	}
	var pbxConv device.Converter = device.NewPool(pbxMembers...)
	s.converters = append(s.converters, pbxConv)
	mpPrimary, err := msgplat.Dial(s.MPAddrActual, "metacomm")
	if err != nil {
		return nil, fmt.Errorf("metacomm: msgplat converter: %w", err)
	}
	mpMembers := []device.Converter{mpPrimary}
	for i := 1; i < sessions; i++ {
		m, err := msgplat.DialCommandOnly(s.MPAddrActual, "metacomm")
		if err != nil {
			device.NewPool(mpMembers...).Close()
			return nil, fmt.Errorf("metacomm: msgplat converter: %w", err)
		}
		mpMembers = append(mpMembers, m)
	}
	var mpConv device.Converter = device.NewPool(mpMembers...)
	s.converters = append(s.converters, mpConv)
	pbxFilter, err := filter.NewDeviceFilter(pbxConv, lib)
	if err != nil {
		return nil, err
	}
	mpFilter, err := filter.NewDeviceFilter(mpConv, lib)
	if err != nil {
		return nil, err
	}

	// 5. The Update Manager writes and the gateway reads through one
	// in-process client of the DIT: all three share this process, so
	// neither pays a wire round trip to the directory's own listener.
	local := ldapserver.NewDITClient(s.DIT)
	outboxDir := ""
	if cfg.DataDir != "" {
		outboxDir = filepath.Join(cfg.DataDir, "outbox")
	}
	manager, err := um.New(um.Config{
		Suffix:      suffix,
		Backing:     local,
		Library:     lib,
		Shards:      cfg.UMShards,
		QueueDepth:  cfg.UMQueueDepth,
		SyncWorkers: cfg.SyncWorkers,
		// Snapshot+delta synchronization: the bulk pass reconciles against
		// a consistent COW snapshot, streamed segment by segment, while
		// updates keep flowing; only the delta replay quiesces.
		SnapshotRange: s.DIT.SnapshotRangeAndSubscribeSeq,
		OutboxDir:     outboxDir,
		Log:           cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	manager.AddDevice(pbxFilter)
	manager.AddDevice(mpFilter)
	s.UM = manager

	// 6. LTAP gateway in front of the directory. Its before-images are DIT
	// reads made under the entry's LTAP lock, and its trigger action is the
	// UM, called in process. The UM in turn pushes device-originated
	// updates through the gateway and quiesces it for synchronization, also
	// in process: the gateway's listener serves outside clients only.
	s.Gateway = ltap.NewGateway(local, manager)
	manager.SetGateway(s.Gateway)
	s.ltapServer = ldapserver.NewServer(s.Gateway)
	s.ltapServer.ErrorLog = cfg.Logger
	s.ltapServer.MaxMessageSize = cfg.MaxMessageSize
	ltapAddr, err := s.ltapServer.Start(defaultStr(cfg.LTAPAddr, "127.0.0.1:0"))
	if err != nil {
		return nil, fmt.Errorf("metacomm: ltap listener: %w", err)
	}
	s.LTAPAddrActual = ltapAddr.String()

	if cfg.AuditLog != nil {
		var mu sync.Mutex
		s.Gateway.RegisterFailureTrigger(suffix, nil, func(ev ltap.Event, res ldap.Result) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(cfg.AuditLog, "audit seq=%d op=%s dn=%q by=%q result=%s\n",
				ev.ID, ev.Kind, ev.DN, ev.BoundDN, res.Code)
		})
	}

	if err := manager.Start(); err != nil {
		return nil, err
	}
	if cfg.InitialSync {
		if _, err := manager.SynchronizeAll(); err != nil {
			return nil, fmt.Errorf("metacomm: initial synchronization: %w", err)
		}
	}

	// 7. Replication starts LAST, once the whole local stack can absorb
	// remote writes: each peer write that wins LWW in the DIT is fanned out
	// to this node's device filters by the UM — without the LTAP trip (no
	// re-stamping loop) and without the generated-info write-back (the
	// origin node's write-back replicates over).
	if s.Replicator != nil {
		s.Replicator.OnApply = func(res directory.RemoteApplied) {
			manager.PropagateRemote(res.DN.String(), func() (old, new lexpress.Record) {
				return recordOf(res.Old), recordOf(res.New)
			})
		}
		s.Replicator.ErrorLog = cfg.Logger
		s.Replicator.Start()
	}
	ok = true
	return s, nil
}

// recordOf converts a directory attribute image into a lexpress record
// (nil for nil — absent side of a create/delete).
func recordOf(a *directory.Attrs) lexpress.Record {
	if a == nil {
		return nil
	}
	rec := make(lexpress.Record, a.Len())
	a.EachSorted(func(name string, values []string) { rec.Set(name, values...) })
	return rec
}

// WireStats holds wire-path counters for both LDAP listeners: LTAP (the
// public endpoint) and the backing directory server. The gateway and the UM
// reach the directory in process, so only outside clients (ldapcli,
// DirectoryClient) show up on the second.
type WireStats struct {
	LTAP      ldapserver.WireStats
	Directory ldapserver.WireStats
}

// WireStats snapshots both listeners' wire counters.
func (s *System) WireStats() WireStats {
	var w WireStats
	if s.ltapServer != nil {
		w.LTAP = s.ltapServer.WireStats()
	}
	if s.dirServer != nil {
		w.Directory = s.dirServer.WireStats()
	}
	return w
}

// Client opens an LDAP connection to the system's public (LTAP) endpoint —
// the address any LDAP tool would use.
func (s *System) Client() (*ldapclient.Conn, error) {
	c, err := ldapclient.Dial(s.LTAPAddrActual)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// DirectoryClient opens an LDAP connection directly to the backing server,
// bypassing LTAP (reads only; writing here would bypass consistency).
func (s *System) DirectoryClient() (*ldapclient.Conn, error) {
	return ldapclient.Dial(s.DirectoryAddrActual)
}

// PBXAdmin opens a direct administration session on the PBX simulator — the
// legacy interface a switch administrator would use; changes made here are
// direct device updates.
func (s *System) PBXAdmin(session string) (*pbx.Converter, error) {
	return pbx.Dial(s.PBXAddrActual, session)
}

// MPAdmin opens a direct administration session on the messaging platform.
func (s *System) MPAdmin(session string) (*msgplat.Converter, error) {
	return msgplat.Dial(s.MPAddrActual, session)
}

// Close shuts the whole system down. Replication stops FIRST so no remote
// write lands in a half-torn-down stack.
func (s *System) Close() {
	if s.Replicator != nil {
		s.Replicator.Stop()
	}
	if s.UM != nil {
		s.UM.Stop()
	}
	for _, c := range s.converters {
		c.Close()
	}
	if s.ltapServer != nil {
		s.ltapServer.Close()
	}
	if s.dirServer != nil {
		s.dirServer.Close()
	}
	if s.DIT != nil {
		// Stops background compaction, flushes every segment's commit
		// pipeline, and closes the attached journal files.
		s.DIT.CloseJournal()
	}
	if s.PBX != nil {
		s.PBX.Close()
	}
	if s.MP != nil {
		s.MP.Close()
	}
}

// Seed adds a person entry through the LTAP gateway, in process, so it is
// trapped and provisioned like any LDAP add (convenience for examples and
// tests).
func (s *System) Seed(dnStr string, attrs map[string][]string) error {
	var la []ldap.Attribute
	for k, v := range attrs {
		la = append(la, ldap.Attribute{Type: k, Values: v})
	}
	return ldapserver.NewLocalClient(s.Gateway).Add(dnStr, la)
}
