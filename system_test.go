package metacomm_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	metacomm "metacomm"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
	"metacomm/internal/lexpress"
	"metacomm/internal/mcschema"
	"metacomm/internal/replica"
	"metacomm/internal/um"
)

func startSystem(t testing.TB, cfg metacomm.Config) *metacomm.System {
	t.Helper()
	s, err := metacomm.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func client(t testing.TB, s *metacomm.System) *ldapclient.Conn {
	t.Helper()
	c, err := s.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func johnDoeAttrs() []ldap.Attribute {
	return []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson", "definityUser", "messagingUser"}},
		{Type: "cn", Values: []string{"John Doe"}},
		{Type: "sn", Values: []string{"Doe"}},
		{Type: "definityExtension", Values: []string{"2-9000"}},
		{Type: "roomNumber", Values: []string{"2C-401"}},
	}
}

const johnDN = "cn=John Doe,o=Lucent"

func TestSystemStartsAndServesReads(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	entries, err := c.Search(&ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeBaseObject})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].First("o") != "Lucent" {
		t.Fatalf("suffix entry = %v", entries)
	}
}

// TestLDAPAddProvisionsDevices is the paper's headline flow: one LDAP add
// configures the person on the PBX and (via the extension -> telephone ->
// mailbox transitive closure) the messaging platform; the platform's
// generated mailbox id flows back into the directory.
func TestLDAPAddProvisionsDevices(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}

	// PBX has the station.
	station, err := s.PBX.Store.Get("2-9000")
	if err != nil {
		t.Fatalf("station missing: %v", err)
	}
	if station.First("name") != "John Doe" || station.First("room") != "2C-401" {
		t.Errorf("station = %v", station)
	}

	// Closure derived the telephone number and the mailbox number.
	e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.First("telephoneNumber"); got != "+1 908 582 9000" {
		t.Errorf("telephoneNumber = %q", got)
	}
	if got := e.First("mailboxNumber"); got != "9000" {
		t.Errorf("mailboxNumber = %q", got)
	}

	// MP has the mailbox, and its generated id reached the directory.
	mbx, err := s.MP.Store.Get("9000")
	if err != nil {
		t.Fatalf("mailbox missing: %v", err)
	}
	id := mbx.First("mailboxid")
	if !strings.HasPrefix(id, "MBX") {
		t.Fatalf("mailbox id = %q", id)
	}
	if got := e.First("mailboxId"); got != id {
		t.Errorf("directory mailboxId = %q, device has %q", got, id)
	}
	// The write-back added the auxiliary class it needed.
	if !containsValue(e.Attr("objectClass"), "messagingUser") {
		t.Errorf("objectClass = %v", e.Attr("objectClass"))
	}
}

func containsValue(vs []string, v string) bool {
	for _, x := range vs {
		if strings.EqualFold(x, v) {
			return true
		}
	}
	return false
}

// TestTelephoneChangeRipplesEverywhere reproduces §4.2's closure example:
// changing the telephone number changes the Definity extension and the
// voice mailbox, at the directory AND at both devices.
func TestTelephoneChangeRipplesEverywhere(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	if err := c.Modify(johnDN, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "telephoneNumber", Values: []string{"+1 908 583 1234"}}}}); err != nil {
		t.Fatal(err)
	}
	e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.First("definityExtension"); got != "3-1234" {
		t.Errorf("definityExtension = %q", got)
	}
	if got := e.First("mailboxNumber"); got != "1234" {
		t.Errorf("mailboxNumber = %q", got)
	}
	// The station migrated to the new extension key.
	if _, err := s.PBX.Store.Get("2-9000"); err == nil {
		t.Error("old station survived the number change")
	}
	if _, err := s.PBX.Store.Get("3-1234"); err != nil {
		t.Errorf("new station missing: %v", err)
	}
	// The mailbox migrated too.
	if _, err := s.MP.Store.Get("9000"); err == nil {
		t.Error("old mailbox survived")
	}
	if _, err := s.MP.Store.Get("1234"); err != nil {
		t.Errorf("new mailbox missing: %v", err)
	}
}

// TestRekeyedMailboxIDFlowsBack: a telephoneNumber change re-keys the
// mailbox, the messaging platform mints a new MailboxID for it, and that id
// must replace the stale one in the directory as part of the same update —
// not wait for a synchronization pass to notice the difference.
func TestRekeyedMailboxIDFlowsBack(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	before, err := s.MP.Store.Get("9000")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Modify(johnDN, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "telephoneNumber", Values: []string{"+1 908 583 1234"}}}}); err != nil {
		t.Fatal(err)
	}
	mbx, err := s.MP.Store.Get("1234")
	if err != nil {
		t.Fatalf("re-keyed mailbox missing: %v", err)
	}
	id := mbx.First("mailboxid")
	if id == "" || id == before.First("mailboxid") {
		t.Fatalf("platform kept id %q across the re-key (was %q)", id, before.First("mailboxid"))
	}
	e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.First("mailboxId"); got != id {
		t.Fatalf("directory mailboxId = %q, the platform's is %q", got, id)
	}
	stats, err := s.UM.SynchronizeAll()
	if err != nil {
		t.Fatal(err)
	}
	for dev, st := range stats {
		if n := st.DirectoryAdds + st.DirectoryMods + st.DeviceAdds + st.DeviceMods + st.Errors; n != 0 {
			t.Errorf("synchronization of %s found %d things to repair: %+v", dev, n, st)
		}
	}
}

// TestDDUPropagatesToDirectoryAndOtherDevices is the §4.4 DDU sequence: a
// switch administrator adds a station directly on the PBX; MetaComm pulls
// it into the directory, provisions the mailbox, and reapplies the update
// to the PBX (conditionally).
func TestDDUPropagatesToDirectoryAndOtherDevices(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	admin, err := s.PBXAdmin("craft-terminal")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	rec := lexpress.NewRecord()
	rec.Set("Extension", "2-7000")
	rec.Set("Name", "Pat Smith")
	rec.Set("Room", "3B-200")
	if _, err := admin.Add(rec); err != nil {
		t.Fatal(err)
	}

	c := client(t, s)
	var entry *ldapclient.Entry
	waitFor(t, "directory entry for Pat Smith", func() bool {
		entries, err := c.Search(&ldap.SearchRequest{
			BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree,
			Filter: ldap.Eq("definityExtension", "2-7000"),
		})
		if err != nil || len(entries) != 1 {
			return false
		}
		entry = entries[0]
		return true
	})
	if entry.First("cn") != "Pat Smith" || entry.First("roomNumber") != "3B-200" {
		t.Errorf("entry = %v", entry.Attributes)
	}
	if entry.First("telephoneNumber") != "+1 908 582 7000" {
		t.Errorf("telephoneNumber = %q", entry.First("telephoneNumber"))
	}
	if entry.First("lastUpdater") != "pbx" {
		t.Errorf("lastUpdater = %q", entry.First("lastUpdater"))
	}
	// The mailbox was provisioned from the DDU via the closure.
	waitFor(t, "mailbox 7000", func() bool {
		_, err := s.MP.Store.Get("7000")
		return err == nil
	})
	// The update was reapplied to the PBX conditionally, and the station
	// still holds the administrator's data.
	waitFor(t, "conditional reapply", func() bool {
		return s.UM.Stats().Reapplies >= 1
	})
	station, err := s.PBX.Store.Get("2-7000")
	if err != nil || station.First("name") != "Pat Smith" {
		t.Errorf("station after reapply = %v, %v", station, err)
	}
}

// TestDDUModifyConverges: a direct change at the device shows up in the
// directory.
func TestDDUModifyConverges(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	admin, err := s.PBXAdmin("craft-terminal")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	station, err := admin.Get("2-9000")
	if err != nil {
		t.Fatal(err)
	}
	station.Set("Room", "MOVED-1")
	if _, err := admin.Modify("2-9000", station); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "room change in directory", func() bool {
		e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
		return err == nil && e.First("roomNumber") == "MOVED-1"
	})
}

// TestDDUDeleteClearsOwnedAttributes: removing the station directly at the
// switch clears the PBX-owned attributes from the person but keeps the
// person (and their mailbox).
func TestDDUDeleteClearsOwnedAttributes(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	admin, err := s.PBXAdmin("craft-terminal")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.Delete("2-9000"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "definity attributes cleared", func() bool {
		e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
		return err == nil && !e.HasAttr("definityExtension")
	})
	e, _ := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
	if e.First("cn") != "John Doe" {
		t.Error("person deleted outright")
	}
	if e.First("mailboxNumber") != "9000" {
		t.Errorf("mailbox association lost: %v", e.Attributes)
	}
	// The station stays deleted (no resurrection by the reapply).
	time.Sleep(100 * time.Millisecond)
	if _, err := s.PBX.Store.Get("2-9000"); err == nil {
		t.Error("station resurrected")
	}
}

// TestLDAPDeleteRemovesDeviceRecords: deleting the person through LDAP
// removes both device records.
func TestLDAPDeleteRemovesDeviceRecords(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	if s.PBX.Store.Len() != 1 || s.MP.Store.Len() != 1 {
		t.Fatal("devices not provisioned")
	}
	if err := c.Delete(johnDN); err != nil {
		t.Fatal(err)
	}
	if s.PBX.Store.Len() != 0 {
		t.Error("station survived person delete")
	}
	if s.MP.Store.Len() != 0 {
		t.Error("mailbox survived person delete")
	}
}

// TestRenamePropagates exercises the ModifyRDN path: renaming the person
// through LDAP updates the device names via the closure.
func TestRenamePropagates(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	if err := c.ModifyDN(johnDN, "cn=John Q Doe", true); err != nil {
		t.Fatal(err)
	}
	e, err := c.SearchOne(&ldap.SearchRequest{
		BaseDN: "cn=John Q Doe,o=Lucent", Scope: ldap.ScopeBaseObject})
	if err != nil {
		t.Fatal(err)
	}
	if e.First("definityName") != "John Q Doe" {
		t.Errorf("definityName = %q", e.First("definityName"))
	}
	station, err := s.PBX.Store.Get("2-9000")
	if err != nil {
		t.Fatal(err)
	}
	if station.First("name") != "John Q Doe" {
		t.Errorf("station name = %q", station.First("name"))
	}
}

// TestDDURenameBecomesModifyRDNPair: a name change at the device reaches
// the directory as the §5.1 ModifyRDN + Modify pair.
func TestDDURenameBecomesModifyRDNPair(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	admin, err := s.PBXAdmin("craft-terminal")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	station, err := admin.Get("2-9000")
	if err != nil {
		t.Fatal(err)
	}
	station.Set("Name", "Johnny Doe")
	station.Set("Room", "9Z-999") // name (RDN) + other data in one DDU
	if _, err := admin.Modify("2-9000", station); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "renamed entry", func() bool {
		e, err := c.SearchOne(&ldap.SearchRequest{
			BaseDN: "cn=Johnny Doe,o=Lucent", Scope: ldap.ScopeBaseObject})
		return err == nil && e.First("roomNumber") == "9Z-999"
	})
	if _, err := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject}); err == nil {
		t.Error("old DN still resolves")
	}
}

// TestDeviceFailureIsLoggedToDirectory: a failed device update aborts, is
// recorded under ou=errors, and the administrator can browse it (§4.4).
func TestDeviceFailureIsLoggedToDirectory(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	s.MP.Store.FailNext("mailbox quota exhausted")
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err) // the LDAP side and PBX still succeed
	}
	errs, err := s.UM.Errors()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 1 {
		t.Fatalf("errors logged = %d", len(errs))
	}
	e := errs[0]
	if e.First("mcErrorTarget") != "msgplat" || !strings.Contains(e.First("mcErrorMessage"), "quota") {
		t.Errorf("error entry = %v", e.Attributes)
	}
	// PBX was still updated (per-device abort, not global).
	if _, err := s.PBX.Store.Get("2-9000"); err != nil {
		t.Error("PBX update aborted with the MP's")
	}
	// Administrator clears the log after repairing.
	n, err := s.UM.ClearErrors()
	if err != nil || n != 1 {
		t.Errorf("ClearErrors = %d, %v", n, err)
	}
}

// TestSynchronizationRecoversLostUpdates: changes committed at the device
// whose notifications were lost (here: suppressed as self-echo) are
// recovered by an explicit synchronization pass under quiesce.
func TestSynchronizationRecoversLostUpdates(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	// Commit directly in the store under the UM's own session name: the
	// converter suppresses the echo, exactly like a notification lost to a
	// network partition.
	station, _ := s.PBX.Store.Get("2-9000")
	station.Set("room", "LOST-42")
	if _, err := s.PBX.Store.Modify("metacomm", "2-9000", station); err != nil {
		t.Fatal(err)
	}
	lost := lexpress.NewRecord()
	lost.Set("extension", "2-8888")
	lost.Set("name", "Lost Larson")
	if _, err := s.PBX.Store.Add("metacomm", lost); err != nil {
		t.Fatal(err)
	}

	stats, err := s.UM.Synchronize("pbx")
	if err != nil {
		t.Fatal(err)
	}
	if !stats.QuiesceApplied {
		t.Error("sync ran without quiesce")
	}
	if stats.DirectoryAdds != 1 || stats.DirectoryMods != 1 {
		t.Errorf("stats = %+v", stats)
	}
	e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
	if err != nil || e.First("roomNumber") != "LOST-42" {
		t.Errorf("room not recovered: %v %v", e, err)
	}
	if _, err := c.SearchOne(&ldap.SearchRequest{
		BaseDN: "cn=Lost Larson,o=Lucent", Scope: ldap.ScopeBaseObject}); err != nil {
		t.Errorf("lost add not recovered: %v", err)
	}
	if s.Gateway.Quiesced() {
		t.Error("gateway left quiesced")
	}
}

// TestInitialSyncPopulatesDirectory: starting MetaComm against devices that
// already hold data loads it into the directory (the paper's initial
// population use of synchronization).
func TestInitialSyncPopulatesDirectory(t *testing.T) {
	// Build a system without initial sync, seed the PBX "before MetaComm
	// was deployed", then synchronize.
	s := startSystem(t, metacomm.Config{})
	for i := 0; i < 5; i++ {
		rec := lexpress.NewRecord()
		rec.Set("extension", fmt.Sprintf("2-10%02d", i))
		rec.Set("name", fmt.Sprintf("Employee %d", i))
		if _, err := s.PBX.Store.Add("legacy-load", rec); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the DDU path OR sync explicitly; sync is the deterministic way.
	if _, err := s.UM.Synchronize("pbx"); err != nil {
		t.Fatal(err)
	}
	c := client(t, s)
	entries, err := c.Search(&ldap.SearchRequest{
		BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.Present("definityExtension"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 5 {
		t.Errorf("populated %d entries, want >= 5", len(entries))
	}
}

// TestWriteWriteRaceConverges: a DDU and an LDAP update race on the same
// person; the paper's queue-order reapplication quickly resolves the
// inconsistencies and every repository converges to the same values.
func TestWriteWriteRaceConverges(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	admin, err := s.PBXAdmin("craft-terminal")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		station, err := admin.Get("2-9000")
		if err != nil {
			return
		}
		station.Set("Room", "DDU-ROOM")
		admin.Modify("2-9000", station)
	}()
	go func() {
		defer wg.Done()
		c.Modify(johnDN, []ldap.Change{{Op: ldap.ModReplace,
			Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"LDAP-ROOM"}}}})
	}()
	wg.Wait()

	waitFor(t, "convergence", func() bool {
		e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
		if err != nil {
			return false
		}
		station, err := s.PBX.Store.Get("2-9000")
		if err != nil {
			return false
		}
		room := e.First("roomNumber")
		return room != "" && station.First("room") == room
	})
}

// TestDeviceOutageAndRepair: a device that is down during fanout gets the
// error logged; after it returns, a synchronization pass repairs the gap —
// the paper's recovery story for "catastrophic communication or storage
// errors" (§4).
func TestDeviceOutageAndRepair(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}

	// The PBX goes down; an LDAP update still succeeds for the directory
	// and the messaging platform.
	s.PBX.Store.SetDown(true)
	if err := c.Modify(johnDN, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"OUTAGE-1"}}}}); err != nil {
		t.Fatal(err)
	}
	e, _ := c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
	if e.First("roomNumber") != "OUTAGE-1" {
		t.Fatal("directory update lost during device outage")
	}
	errs, err := s.UM.Errors()
	if err != nil || len(errs) == 0 {
		t.Fatalf("outage not logged: %d, %v", len(errs), err)
	}

	// The PBX is stale.
	s.PBX.Store.SetDown(false)
	station, _ := s.PBX.Store.Get("2-9000")
	if station.First("room") == "OUTAGE-1" {
		t.Fatal("test premise broken: device saw the update")
	}

	// Repair by synchronization. The DEVICE was the side that was cut
	// off, so the administrator runs the directory-wins pass.
	stats, err := s.UM.SynchronizeWithPolicy("pbx", um.DirectoryWins)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeviceMods != 1 {
		t.Errorf("stats = %+v", stats)
	}
	station, _ = s.PBX.Store.Get("2-9000")
	if station.First("room") != "OUTAGE-1" {
		t.Errorf("device not repaired: room = %q", station.First("room"))
	}
	// The directory keeps its (newer) state.
	e, _ = c.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
	if e.First("roomNumber") != "OUTAGE-1" {
		t.Error("directory state regressed")
	}
}

// TestConcurrentUpdatesAcrossEntries drives parallel clients at different
// entries to exercise LTAP's per-entry locking under load.
func TestConcurrentUpdatesAcrossEntries(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc, err := s.Client()
			if err != nil {
				errs <- err
				return
			}
			defer cc.Close()
			dn := fmt.Sprintf("cn=Worker %d,o=Lucent", i)
			err = cc.Add(dn, []ldap.Attribute{
				{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
				{Type: "sn", Values: []string{"Worker"}},
				{Type: "definityExtension", Values: []string{fmt.Sprintf("2-40%02d", i)}},
			})
			if err != nil {
				errs <- err
				return
			}
			errs <- cc.Modify(dn, []ldap.Change{{Op: ldap.ModReplace,
				Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"R"}}}})
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.PBX.Store.Len(); got != 8 {
		t.Errorf("stations = %d, want 8", got)
	}
}

// TestAuditLogRecordsUpdates: the gateway's trigger facility drives an
// audit trail of every trapped update, including rejected ones.
func TestAuditLogRecordsUpdates(t *testing.T) {
	var buf syncBuffer
	s := startSystem(t, metacomm.Config{AuditLog: &buf})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	// A rejected update must appear too.
	c.Delete("cn=Ghost,o=Lucent")
	s.Gateway.WaitTriggers()
	out := buf.String()
	if !strings.Contains(out, `op=add dn="cn=John Doe,o=Lucent"`) {
		t.Errorf("audit log missing add:\n%s", out)
	}
	if !strings.Contains(out, `op=delete dn="cn=Ghost,o=Lucent" by="" result=noSuchObject`) {
		t.Errorf("audit log missing rejected delete:\n%s", out)
	}
}

// syncBuffer is a mutex-guarded bytes buffer for concurrent writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDurableRestart: with a data directory configured, the directory
// contents survive a full system restart; a synchronization pass then
// reconciles whatever the (non-durable) devices need.
func TestDurableRestart(t *testing.T) {
	dataDir := t.TempDir()
	s1, err := metacomm.Start(metacomm.Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s1.Client()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	s1.Close()

	// Restart against the same data directory: the person (including the
	// device-generated mailboxId) is back without any device involvement.
	s2 := startSystem(t, metacomm.Config{DataDir: dataDir})
	c2 := client(t, s2)
	e, err := c2.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
	if err != nil {
		t.Fatal(err)
	}
	if e.First("definityExtension") != "2-9000" || !strings.HasPrefix(e.First("mailboxId"), "MBX") {
		t.Errorf("restored entry = %v", e.Attributes)
	}
	// The fresh (empty) devices are repopulated by one sync pass.
	if _, err := s2.UM.SynchronizeAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.PBX.Store.Get("2-9000"); err != nil {
		t.Errorf("station not rebuilt from durable directory: %v", err)
	}
	if _, err := s2.MP.Store.Get("9000"); err != nil {
		t.Errorf("mailbox not rebuilt: %v", err)
	}
}

// TestSystemWithReadReplica: a read-only replica follows the full system's
// directory; writes land through LTAP, reads are served by the replica.
func TestSystemWithReadReplica(t *testing.T) {
	s := startSystem(t, metacomm.Config{ReplicationAddr: "127.0.0.1:0"})
	r := replica.New(s.ReplicationAddrActual, mcschema.New())
	r.Start()
	t.Cleanup(r.Stop)

	// Serve the replica read-only over LDAP.
	h := ldapserver.NewDITHandler(r.DIT)
	h.ReadOnly = true
	srv := ldapserver.NewServer(h)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	rc, err := ldapclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	waitFor(t, "replica to catch up", func() bool {
		e, err := rc.SearchOne(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject})
		return err == nil && e.First("definityExtension") == "2-9000" &&
			strings.HasPrefix(e.First("mailboxId"), "MBX")
	})
	// The replica refuses writes.
	err = rc.Delete(johnDN)
	if !ldap.IsCode(err, ldap.ResultInsufficientAccess) {
		t.Errorf("replica write err = %v", err)
	}
	// The primary still has the entry and the devices are untouched.
	if _, err := s.PBX.Store.Get("2-9000"); err != nil {
		t.Error("primary state damaged by replica write attempt")
	}
}

// TestQuiesceDrainsShardedEngine drives writers at a sharded UM and checks
// the two quiesce layers: the engine's drain barrier alone (admission
// paused, all shard queues flushed, nothing processed until Resume), and a
// full synchronization pass under live write load (gateway quiesce + engine
// drain together, §5.1).
func TestQuiesceDrainsShardedEngine(t *testing.T) {
	s := startSystem(t, metacomm.Config{UMShards: 4, DeviceSessions: 2})
	setup := client(t, s)
	const people = 8
	for i := 0; i < people; i++ {
		err := setup.Add(fmt.Sprintf("cn=Quiesce %d,o=Lucent", i), []ldap.Attribute{
			{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
			{Type: "cn", Values: []string{fmt.Sprintf("Quiesce %d", i)}},
			{Type: "sn", Values: []string{"Quiesce"}},
			{Type: "definityExtension", Values: []string{fmt.Sprintf("3-%04d", i)}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < people; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			conn, err := s.Client()
			if err != nil {
				return
			}
			defer conn.Close()
			dn := fmt.Sprintf("cn=Quiesce %d,o=Lucent", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Busy rejections are acceptable under pressure; anything
				// else would be a real failure but is converged below.
				conn.Modify(dn, []ldap.Change{{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{fmt.Sprintf("W%d-%d", w, i)}}}})
			}
		}(w)
	}
	var stopOnce sync.Once
	stopWriters := func() { stopOnce.Do(func() { close(stop) }); writers.Wait() }
	defer stopWriters()

	waitFor(t, "writers to get updates in flight", func() bool {
		return s.UM.Stats().UpdatesProcessed > uint64(people)
	})

	// Layer 1: the engine drain barrier alone. After Quiesce returns, the
	// shard queues are empty and stay empty — the still-running writers are
	// held at the admission barrier.
	if !s.UM.Quiesce() {
		t.Fatal("engine Quiesce reported already-quiesced")
	}
	if p := s.UM.Stats().Pending; p != 0 {
		t.Fatalf("Pending = %d after engine quiesce", p)
	}
	processed := s.UM.Stats().UpdatesProcessed
	time.Sleep(50 * time.Millisecond)
	if got := s.UM.Stats().UpdatesProcessed; got != processed {
		t.Fatalf("engine processed %d updates while quiesced", got-processed)
	}
	s.UM.Resume()

	// Layer 2: a full synchronization pass with the writers still going.
	stats, err := s.UM.Synchronize("pbx")
	if err != nil {
		t.Fatalf("synchronize under load: %v", err)
	}
	if !stats.QuiesceApplied {
		t.Error("gateway quiesce not applied")
	}
	if stats.Errors != 0 {
		t.Errorf("sync stats = %+v", stats)
	}
	// Stop the writers before asserting the backlog is gone: a writer can
	// get a fresh update admitted the instant the sync unquiesces.
	stopWriters()
	waitFor(t, "engine to drain after sync", func() bool {
		return s.UM.Stats().Pending == 0
	})
}

// TestLTAPRefusesModifyDNWithNewSuperior: a move under a new superior is
// refused at the gateway, as the directory refuses it, instead of being
// reported as done while the entry is renamed in place.
func TestLTAPRefusesModifyDNWithNewSuperior(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	for _, e := range []struct {
		name  string
		attrs map[string][]string
	}{
		{"ou=A,o=Lucent", map[string][]string{"objectClass": {mcschema.ClassOrgUnit}}},
		{"ou=B,o=Lucent", map[string][]string{"objectClass": {mcschema.ClassOrgUnit}}},
		{"cn=Mover,ou=A,o=Lucent", map[string][]string{"objectClass": {mcschema.ClassPerson}, "sn": {"Mover"}}},
	} {
		if err := s.DIT.Add(dn.MustParse(e.name), directory.AttrsFrom(e.attrs)); err != nil {
			t.Fatal(err)
		}
	}
	processed := s.UM.Stats().UpdatesProcessed
	res := client(t, s).Pipeline([]ldap.Op{&ldap.ModifyDNRequest{
		DN: "cn=Mover,ou=A,o=Lucent", NewRDN: "cn=Moved", DeleteOldRDN: true, NewSuperior: "ou=B,o=Lucent"}})
	if !ldap.IsCode(res[0].Err, ldap.ResultUnwillingToPerform) {
		t.Errorf("modifyDN with newSuperior = %v, want unwillingToPerform", res[0].Err)
	}
	for name, want := range map[string]bool{
		"cn=Mover,ou=A,o=Lucent": true, "cn=Moved,ou=A,o=Lucent": false, "cn=Moved,ou=B,o=Lucent": false,
	} {
		if _, err := s.DIT.Get(dn.MustParse(name)); (err == nil) != want {
			t.Errorf("%s exists = %v, want %v", name, err == nil, want)
		}
	}
	if got := s.UM.Stats().UpdatesProcessed; got != processed {
		t.Errorf("the Update Manager processed %d updates for a refused request", got-processed)
	}
}

// TestNoComponentReadsItsOwnDirectoryOverTCP: the gateway and the Update
// Manager reach the directory in process, so on a default system the
// directory's listener reads nothing across LTAP searches and writes, a
// device-originated update and a synchronization pass.
func TestNoComponentReadsItsOwnDirectoryOverTCP(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	if err := c.Modify(johnDN, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"5A-1"}}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(&ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.Eq("objectClass", mcschema.ClassPerson)}); err != nil {
		t.Fatal(err)
	}
	admin, err := s.PBXAdmin("craft-terminal")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	rec := lexpress.NewRecord()
	rec.Set("Extension", "2-7000")
	rec.Set("Name", "Pat Smith")
	rec.Set("Room", "3B-200")
	if _, err := admin.Add(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the device-originated person in the directory", func() bool {
		_, err := s.DIT.Get(dn.MustParse("cn=Pat Smith,o=Lucent"))
		return err == nil
	})
	if _, err := s.UM.SynchronizeAll(); err != nil {
		t.Fatal(err)
	}
	ws := s.WireStats()
	if ws.Directory.MessagesRead != 0 {
		t.Errorf("directory listener read %d messages", ws.Directory.MessagesRead)
	}
	if ws.LTAP.MessagesRead == 0 {
		t.Error("LTAP listener read no messages; the counters are not live")
	}
	// An outside client still reaches the directory's own listener.
	direct, err := s.DirectoryClient()
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if _, err := direct.Search(&ldap.SearchRequest{BaseDN: johnDN, Scope: ldap.ScopeBaseObject}); err != nil {
		t.Fatal(err)
	}
	if got := s.WireStats().Directory.MessagesRead; got == 0 {
		t.Error("directory listener counted no message from an outside client")
	}
}

// TestUMCallsTheGatewayInProcess: the Update Manager pushes a
// device-originated update through the gateway and quiesces the gateway for
// synchronization without a connection to the gateway's listener, so on a
// system no outside client has touched, a DDU and a synchronization pass both
// go through the gateway while its listener reads nothing.
func TestUMCallsTheGatewayInProcess(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	admin, err := s.PBXAdmin("craft-terminal")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	rec := lexpress.NewRecord()
	rec.Set("Extension", "2-7000")
	rec.Set("Name", "Pat Smith")
	if _, err := admin.Add(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the device-originated person in the directory", func() bool {
		_, err := s.DIT.Get(dn.MustParse("cn=Pat Smith,o=Lucent"))
		return err == nil
	})
	if s.Gateway.Stats().Updates == 0 {
		t.Error("the device-originated update was not trapped by the gateway")
	}
	stats, err := s.UM.SynchronizeAll()
	if err != nil {
		t.Fatal(err)
	}
	for dev, st := range stats {
		if !st.QuiesceApplied {
			t.Errorf("%s: synchronization did not quiesce the gateway", dev)
		}
	}
	if got := s.WireStats().LTAP.MessagesRead; got != 0 {
		t.Errorf("LTAP listener read %d messages from inside the node", got)
	}
}

// TestDeviceUpdateLargerThanMaxMessageSize: MaxMessageSize bounds what
// outside clients may send the listeners; it does not apply to a change an
// administrator already committed at a device. A DDU whose LDAP form is
// larger than the bound reaches the directory, and so does the next one.
func TestDeviceUpdateLargerThanMaxMessageSize(t *testing.T) {
	s := startSystem(t, metacomm.Config{MaxMessageSize: 1024})
	admin, err := s.PBXAdmin("craft-terminal")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	big := strings.Repeat("R", 2048)
	for _, p := range []struct{ ext, name, room string }{
		{"2-7001", "Big Room", big},
		{"2-7002", "Small Room", "1A-1"},
	} {
		rec := lexpress.NewRecord()
		rec.Set("Extension", p.ext)
		rec.Set("Name", p.name)
		rec.Set("Room", p.room)
		if _, err := admin.Add(rec); err != nil {
			t.Fatal(err)
		}
		waitFor(t, p.name+" in the directory", func() bool {
			e, err := s.DIT.Get(dn.MustParse("cn=" + p.name + ",o=Lucent"))
			return err == nil && e.Attrs.First("roomNumber") == p.room
		})
	}
}
