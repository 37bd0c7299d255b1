package um_test

import (
	"testing"

	metacomm "metacomm"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/lexpress"
	"metacomm/internal/ltap"
	"metacomm/internal/um"
)

func startSystem(t *testing.T) *metacomm.System {
	t.Helper()
	s, err := metacomm.Start(metacomm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := um.New(um.Config{}); err == nil {
		t.Error("config without library accepted")
	}
	lib := lexpress.MustStandardLibrary()
	if _, err := um.New(um.Config{Library: lib}); err == nil {
		t.Error("config without backing accepted")
	}
	if _, err := um.New(um.Config{Library: lib, Backing: fakeClient{},
		ClosureMapping: "NoSuchMapping"}); err == nil {
		t.Error("unknown closure mapping accepted")
	}
}

// fakeClient satisfies filter.LDAPClient minimally for config validation.
type fakeClient struct{}

func (fakeClient) Search(*ldap.SearchRequest) ([]*ldapclient.Entry, error) { return nil, nil }
func (fakeClient) Add(string, []ldap.Attribute) error                      { return nil }
func (fakeClient) Modify(string, []ldap.Change) error                      { return nil }
func (fakeClient) ModifyDN(string, string, bool) error                     { return nil }
func (fakeClient) Delete(string) error                                     { return nil }

func TestStartTwiceFails(t *testing.T) {
	s := startSystem(t)
	if err := s.UM.Start(); err == nil {
		t.Error("second Start succeeded")
	}
	// Stop is idempotent (Close calls it again at cleanup).
	s.UM.Stop()
	s.UM.Stop()
}

func TestOnUpdateAfterStop(t *testing.T) {
	s := startSystem(t)
	s.UM.Stop()
	res := s.UM.OnUpdate(ltap.Event{Kind: ltap.EventDelete, DN: "cn=x,o=Lucent"})
	if res.Code != ldap.ResultUnavailable {
		t.Errorf("res = %+v", res)
	}
}

func TestProcessRejectsBadTargets(t *testing.T) {
	s := startSystem(t)
	c, err := s.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Modify("cn=Ghost,o=Lucent", []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"x"}}}})
	if !ldap.IsCode(err, ldap.ResultNoSuchObject) {
		t.Errorf("modify ghost err = %v", err)
	}
	if err := c.Delete("cn=Ghost,o=Lucent"); !ldap.IsCode(err, ldap.ResultNoSuchObject) {
		t.Errorf("delete ghost err = %v", err)
	}
	if err := c.ModifyDN("cn=Ghost,o=Lucent", "cn=Specter", true); !ldap.IsCode(err, ldap.ResultNoSuchObject) {
		t.Errorf("rename ghost err = %v", err)
	}
}

func TestSynchronizeUnknownDevice(t *testing.T) {
	s := startSystem(t)
	if _, err := s.UM.Synchronize("router"); err == nil {
		t.Error("sync of unregistered device succeeded")
	}
}

func TestSynchronizeAllCoversBothDevices(t *testing.T) {
	s := startSystem(t)
	// Seed both devices out-of-band.
	st := lexpress.NewRecord()
	st.Set("extension", "2-0100")
	st.Set("name", "Sync One")
	if _, err := s.PBX.Store.Add("legacy", st); err != nil {
		t.Fatal(err)
	}
	mb := lexpress.NewRecord()
	mb.Set("mailbox", "0200")
	mb.Set("name", "Sync Two")
	if _, err := s.MP.Store.Add("legacy", mb); err != nil {
		t.Fatal(err)
	}
	stats, err := s.UM.SynchronizeAll()
	if err != nil {
		t.Fatal(err)
	}
	// The live DDU path may beat the sync to either record (both routes
	// are legitimate); what matters is that each device's record is
	// accounted for — created by the pass or already in sync.
	for _, dev := range []string{"pbx", "msgplat"} {
		st := stats[dev]
		if st.DeviceRecords < 1 || st.DirectoryAdds+st.AlreadyInSync+st.DirectoryMods < 1 {
			t.Errorf("%s stats = %+v", dev, st)
		}
	}
	// Both people are now in the directory.
	c, err := s.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"cn=Sync One,o=Lucent", "cn=Sync Two,o=Lucent"} {
		if _, err := c.SearchOne(&ldap.SearchRequest{BaseDN: name, Scope: ldap.ScopeBaseObject}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	s := startSystem(t)
	c, err := s.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := s.UM.Stats()
	err = c.Add("cn=Counter,o=Lucent", []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
		{Type: "cn", Values: []string{"Counter"}},
		{Type: "sn", Values: []string{"Counter"}},
		{Type: "definityExtension", Values: []string{"2-0300"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := s.UM.Stats()
	if after.UpdatesProcessed <= before.UpdatesProcessed {
		t.Error("UpdatesProcessed did not advance")
	}
	if after.DeviceApplies <= before.DeviceApplies {
		t.Error("DeviceApplies did not advance")
	}
	if after.ClosureChanges <= before.ClosureChanges {
		t.Error("ClosureChanges did not advance (mailbox derivation expected)")
	}
}

func TestErrorContainerVisibleUnderSuffix(t *testing.T) {
	s := startSystem(t)
	c, err := s.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e, err := c.SearchOne(&ldap.SearchRequest{
		BaseDN: "ou=errors,o=Lucent", Scope: ldap.ScopeBaseObject})
	if err != nil {
		t.Fatal(err)
	}
	if e.First("ou") != "errors" {
		t.Errorf("entry = %v", e.Attributes)
	}
}

func TestSynchronizeAllQuiescesOnce(t *testing.T) {
	s := startSystem(t)
	// Reconciling every device must cycle the gateway through quiesce
	// exactly once, not once per device.
	before := s.Gateway.Stats().Quiesces
	stats, err := s.UM.SynchronizeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats for %d devices, want 2", len(stats))
	}
	for dev, st := range stats {
		if !st.QuiesceApplied {
			t.Errorf("%s: quiesce not applied", dev)
		}
	}
	if n := s.Gateway.Stats().Quiesces - before; n != 1 {
		t.Errorf("gateway quiesced %d times, want 1", n)
	}
	if s.Gateway.Quiesced() {
		t.Error("gateway left quiesced")
	}
}
