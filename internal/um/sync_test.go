package um_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	metacomm "metacomm"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/lexpress"
	"metacomm/internal/um"
)

func syncClient(t *testing.T, s *metacomm.System) *ldapclient.Conn {
	t.Helper()
	c, err := s.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// addTestPerson provisions a PBX person through the normal LDAP path; the
// synchronous fan-out leaves the device converged when it returns.
func addTestPerson(t *testing.T, c *ldapclient.Conn, cn, ext, room string) string {
	t.Helper()
	name := "cn=" + cn + ",o=Lucent"
	attrs := []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
		{Type: "cn", Values: []string{cn}},
		{Type: "sn", Values: []string{cn}},
		{Type: "definityExtension", Values: []string{ext}},
	}
	if room != "" {
		attrs = append(attrs, ldap.Attribute{Type: "roomNumber", Values: []string{room}})
	}
	if err := c.Add(name, attrs); err != nil {
		t.Fatal(err)
	}
	return name
}

// driftDeviceRoom mutates a PBX record under the suppressed "metacomm"
// session: the device changes with NO direct-device-update notification —
// exactly the lost-update situation synchronization exists to repair.
func driftDeviceRoom(t *testing.T, s *metacomm.System, ext, room string) {
	t.Helper()
	rec, err := s.PBX.Store.Get(ext)
	if err != nil {
		t.Fatal(err)
	}
	rec.Set("room", room)
	if _, err := s.PBX.Store.Modify("metacomm", ext, rec); err != nil {
		t.Fatal(err)
	}
}

func TestSyncDirectoryWinsRestoresDevice(t *testing.T) {
	s := startSystem(t)
	c := syncClient(t, s)
	addTestPerson(t, c, "Policy One", "2-0410", "1A")
	driftDeviceRoom(t, s, "2-0410", "9Z")

	stats, err := s.UM.SynchronizeWithPolicy("pbx", um.DirectoryWins)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeviceMods < 1 {
		t.Errorf("stats = %+v, want DeviceMods >= 1", stats)
	}
	rec, err := s.PBX.Store.Get("2-0410")
	if err != nil || rec.First("room") != "1A" {
		t.Errorf("device room = %q, %v; want restored to 1A", rec.First("room"), err)
	}
	e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: "cn=Policy One,o=Lucent", Scope: ldap.ScopeBaseObject})
	if err != nil || e.First("roomNumber") != "1A" {
		t.Errorf("directory room = %v, %v; want untouched 1A", e, err)
	}
}

func TestSyncDeviceWinsRecoversDrift(t *testing.T) {
	s := startSystem(t)
	c := syncClient(t, s)
	addTestPerson(t, c, "Policy Two", "2-0420", "1B")
	driftDeviceRoom(t, s, "2-0420", "8Y")

	stats, err := s.UM.Synchronize("pbx") // DeviceWins default
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirectoryMods < 1 {
		t.Errorf("stats = %+v, want DirectoryMods >= 1", stats)
	}
	e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: "cn=Policy Two,o=Lucent", Scope: ldap.ScopeBaseObject})
	if err != nil || e.First("roomNumber") != "8Y" {
		t.Errorf("directory room = %v, %v; want converged to 8Y", e, err)
	}
}

// TestSyncWorkerPoolFaultInjection drifts several device records and injects
// one mid-pass device failure: the pool must charge exactly that record and
// converge the rest.
func TestSyncWorkerPoolFaultInjection(t *testing.T) {
	s := startSystem(t)
	c := syncClient(t, s)
	const n = 5
	for i := 0; i < n; i++ {
		ext := fmt.Sprintf("2-05%02d", i)
		addTestPerson(t, c, fmt.Sprintf("Fault %02d", i), ext, "F0")
		driftDeviceRoom(t, s, ext, "FX")
	}
	s.PBX.Store.FailNext("injected fault")

	stats, err := s.UM.SynchronizeWithPolicy("pbx", um.DirectoryWins)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 1 {
		t.Errorf("Errors = %d, want 1 (the injected fault)", stats.Errors)
	}
	if stats.DeviceMods != n-1 {
		t.Errorf("DeviceMods = %d, want %d", stats.DeviceMods, n-1)
	}
}

func TestSyncDeviceDownAndRecovery(t *testing.T) {
	s := startSystem(t)
	c := syncClient(t, s)
	addTestPerson(t, c, "Down One", "2-0550", "D1")

	s.PBX.Store.SetDown(true)
	if _, err := s.UM.Synchronize("pbx"); err == nil {
		t.Error("sync of a down device succeeded")
	}
	s.PBX.Store.SetDown(false)
	stats, err := s.UM.Synchronize("pbx")
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeviceRecords < 1 {
		t.Errorf("stats after recovery = %+v", stats)
	}
}

// TestSynchronizeAllContinuesOnDeviceError: one failing device must not
// abort the others; its error is aggregated into the returned error while
// every device's stats stay in the map.
func TestSynchronizeAllContinuesOnDeviceError(t *testing.T) {
	s := startSystem(t)
	mb := lexpress.NewRecord()
	mb.Set("mailbox", "0310")
	mb.Set("name", "Continue One")
	if _, err := s.MP.Store.Add("metacomm", mb); err != nil {
		t.Fatal(err)
	}
	s.PBX.Store.SetDown(true)

	stats, err := s.UM.SynchronizeAll()
	if err == nil || !strings.Contains(err.Error(), "pbx") {
		t.Fatalf("err = %v, want pbx failure", err)
	}
	if _, ok := stats["pbx"]; !ok {
		t.Error("failed device missing from stats map")
	}
	st, ok := stats["msgplat"]
	if !ok || st.DeviceRecords < 1 {
		t.Fatalf("msgplat stats = %+v, %v — healthy device was not reconciled", st, ok)
	}
	c := syncClient(t, s)
	if _, err := c.SearchOne(&ldap.SearchRequest{BaseDN: "cn=Continue One,o=Lucent", Scope: ldap.ScopeBaseObject}); err != nil {
		t.Errorf("msgplat record not recovered into the directory: %v", err)
	}
}

// TestSyncDuplicateKeysCounted: two directory entries claiming one device
// key shadow each other in the sync index; the pass counts and logs them.
func TestSyncDuplicateKeysCounted(t *testing.T) {
	s := startSystem(t)
	c := syncClient(t, s)
	addTestPerson(t, c, "Dup One", "2-0600", "")
	addTestPerson(t, c, "Dup Two", "2-0600", "")

	stats, err := s.UM.Synchronize("pbx")
	if err != nil {
		t.Fatal(err)
	}
	if stats.DuplicateKeys < 1 {
		t.Errorf("DuplicateKeys = %d, want >= 1", stats.DuplicateKeys)
	}
	if stats.Errors < stats.DuplicateKeys {
		t.Errorf("Errors = %d < DuplicateKeys = %d", stats.Errors, stats.DuplicateKeys)
	}
}

// TestSyncConcurrentUpdatesSurvive is the tentpole property: with the bulk
// phase off the quiesce, updates issued DURING synchronization must be
// neither rejected nor lost — the delta replay repairs any bulk writeback
// that overwrote them.
func TestSyncConcurrentUpdatesSurvive(t *testing.T) {
	s := startSystem(t)
	c := syncClient(t, s)
	const n = 25
	for i := 0; i < n; i++ {
		addTestPerson(t, c, fmt.Sprintf("Conc %02d", i), fmt.Sprintf("2-07%02d", i), "R0")
	}
	target := "cn=Conc 00,o=Lucent"

	wc, err := s.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	last := "R0"
	var writerErrs []error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := fmt.Sprintf("W%d", i)
			err := wc.Modify(target, []ldap.Change{{Op: ldap.ModReplace,
				Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{v}}}})
			mu.Lock()
			if err != nil {
				writerErrs = append(writerErrs, err)
			} else {
				last = v
			}
			mu.Unlock()
		}
	}()

	stats, err := s.UM.Synchronize("pbx")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	final := last
	errs := writerErrs
	mu.Unlock()
	if len(errs) > 0 {
		t.Fatalf("concurrent updates rejected during sync: %v", errs[0])
	}
	if !stats.SnapshotUsed {
		t.Errorf("stats = %+v, want SnapshotUsed", stats)
	}
	e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: target, Scope: ldap.ScopeBaseObject})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.First("roomNumber"); got != final {
		t.Errorf("directory room = %q, want last written %q — concurrent update lost", got, final)
	}
	rec, err := s.PBX.Store.Get("2-0700")
	if err != nil || rec.First("room") != final {
		t.Errorf("device room = %q, %v; want converged to %q", rec.First("room"), err, final)
	}
}

// TestSyncSnapshotStatsPopulated checks the two-phase pass reports its
// phase breakdown and lands in LastSyncStats.
func TestSyncSnapshotStatsPopulated(t *testing.T) {
	s := startSystem(t)
	rec := lexpress.NewRecord()
	rec.Set("extension", "2-0910")
	rec.Set("name", "Snap One")
	if _, err := s.PBX.Store.Add("metacomm", rec); err != nil {
		t.Fatal(err)
	}

	stats, err := s.UM.Synchronize("pbx")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SnapshotUsed || !stats.QuiesceApplied {
		t.Errorf("stats = %+v, want SnapshotUsed && QuiesceApplied", stats)
	}
	if stats.Workers < 1 || stats.BulkNs == 0 {
		t.Errorf("phase stats not populated: %+v", stats)
	}
	if stats.DirectoryAdds != 1 {
		t.Errorf("DirectoryAdds = %d, want 1", stats.DirectoryAdds)
	}
	if got := s.UM.LastSyncStats()["pbx"]; got != stats {
		t.Errorf("LastSyncStats[pbx] = %+v, want %+v", got, stats)
	}
	c := syncClient(t, s)
	if _, err := c.SearchOne(&ldap.SearchRequest{BaseDN: "cn=Snap One,o=Lucent", Scope: ldap.ScopeBaseObject}); err != nil {
		t.Errorf("recovered person missing: %v", err)
	}
}

// TestSyncLegacyFallbackWhenNoSnapshot: without a snapshot source the pass
// runs fully quiesced, as the paper describes.
func TestSyncLegacyFallbackWhenNoSnapshot(t *testing.T) {
	s := startSystem(t)
	s.UM.SetSnapshotRange(nil)
	rec := lexpress.NewRecord()
	rec.Set("extension", "2-0920")
	rec.Set("name", "Fallback One")
	if _, err := s.PBX.Store.Add("metacomm", rec); err != nil {
		t.Fatal(err)
	}

	stats, err := s.UM.Synchronize("pbx")
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotUsed {
		t.Errorf("stats = %+v, want full-quiesce pass", stats)
	}
	if !stats.QuiesceApplied || stats.DirectoryAdds != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.BulkNs == 0 || stats.QuiesceNs != stats.BulkNs {
		t.Errorf("full-quiesce phase timing = bulk %d / quiesce %d, want equal and nonzero", stats.BulkNs, stats.QuiesceNs)
	}
}
