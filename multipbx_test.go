package metacomm_test

import (
	"testing"

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
	"metacomm/internal/um"
)

// twoSwitchMappings implements the paper's §4.2 partitioning example: one
// switch accepts phone numbers beginning "+1 908 582 9", a second takes the
// rest of the 58x range. A telephone-number change that crosses the
// boundary must translate into a delete at one PBX and an add at the other.
const twoSwitchMappings = `
mapping PBX9ToLDAP source "pbx9" target "ldap" {
    key Extension -> definityExtension;
    map definityExtension = Extension;
    map definityName = Name;
    map cn = Name;
    map telephoneNumber = "+1 908 58" + group(Extension, "([0-9])-([0-9]+)", 1)
                          + " " + group(Extension, "([0-9])-([0-9]+)", 2);
    map lastUpdater = "pbx9";
    set objectClass = "mcPerson", "definityUser";
    owns definityExtension, definityName;
    derive sn = group(cn, ".* ([^ ]+)", 1);
    derive sn = cn;
}
mapping LDAPToPBX9 source "ldap" target "pbx9" {
    key definityExtension -> Extension;
    map Extension = definityExtension
                  ? group(telephoneNumber, "\\+1 908 58([0-9]) ([0-9]+)", 1) + "-"
                    + group(telephoneNumber, "\\+1 908 58([0-9]) ([0-9]+)", 2);
    map Name = definityName ? cn;
    partition when telephoneNumber like "+1 908 582 9*";
    originator lastUpdater;
}
mapping PBXOToLDAP source "pbxo" target "ldap" {
    key Extension -> definityExtension;
    map definityExtension = Extension;
    map definityName = Name;
    map cn = Name;
    map telephoneNumber = "+1 908 58" + group(Extension, "([0-9])-([0-9]+)", 1)
                          + " " + group(Extension, "([0-9])-([0-9]+)", 2);
    map lastUpdater = "pbxo";
    set objectClass = "mcPerson", "definityUser";
    owns definityExtension, definityName;
    derive sn = group(cn, ".* ([^ ]+)", 1);
    derive sn = cn;
}
mapping LDAPToPBXO source "ldap" target "pbxo" {
    key definityExtension -> Extension;
    map Extension = definityExtension
                  ? group(telephoneNumber, "\\+1 908 58([0-9]) ([0-9]+)", 1) + "-"
                    + group(telephoneNumber, "\\+1 908 58([0-9]) ([0-9]+)", 2);
    map Name = definityName ? cn;
    partition when telephoneNumber like "+1 908 58*"
              and not telephoneNumber like "+1 908 582 9*";
    originator lastUpdater;
}
mapping LDAPClosure2 source "ldap" target "ldap" {
    key cn -> cn;
    derive definityExtension = group(telephoneNumber, "\\+1 908 58([0-9]) ([0-9]+)", 1) + "-"
                               + group(telephoneNumber, "\\+1 908 58([0-9]) ([0-9]+)", 2)
                               when present(definityExtension);
}
`

// twoSwitchStack assembles a MetaComm instance with TWO PBX simulators and
// the number-range mappings, demonstrating the "new data sources can be
// easily added" claim (§7) — no code changes, only mapping text and wiring.
type twoSwitchStack struct {
	pbx9, pbxo *pbx.PBX
	manager    *um.UM
	client     *ldapclient.Conn
}

func newTwoSwitchStack(t *testing.T) *twoSwitchStack {
	t.Helper()
	suffix := dn.MustParse("o=Lucent")

	dit := directory.New(mcschema.New())
	attrs := directory.NewAttrs()
	attrs.Put("objectClass", "organization")
	if err := dit.Add(suffix, attrs); err != nil {
		t.Fatal(err)
	}
	local := ldapserver.NewDITClient(dit)

	lib, err := lexpress.Compile(twoSwitchMappings)
	if err != nil {
		t.Fatal(err)
	}

	s := &twoSwitchStack{pbx9: pbx.NewNamed("pbx9"), pbxo: pbx.NewNamed("pbxo")}
	addr9, err := s.pbx9.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.pbx9.Close)
	addrO, err := s.pbxo.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.pbxo.Close)

	conv9, err := pbx.DialNamed(addr9.String(), "metacomm", "pbx9")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conv9.Close() })
	convO, err := pbx.DialNamed(addrO.String(), "metacomm", "pbxo")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { convO.Close() })
	f9, err := filter.NewDeviceFilter(conv9, lib)
	if err != nil {
		t.Fatal(err)
	}
	fO, err := filter.NewDeviceFilter(convO, lib)
	if err != nil {
		t.Fatal(err)
	}

	manager, err := um.New(um.Config{
		Suffix:         suffix,
		Backing:        local,
		Library:        lib,
		ClosureMapping: "LDAPClosure2",
	})
	if err != nil {
		t.Fatal(err)
	}
	manager.AddDevice(f9)
	manager.AddDevice(fO)
	s.manager = manager

	gateway := ltap.NewGateway(local, manager)
	ltapSrv := ldapserver.NewServer(gateway)
	ltapAddr, err := ltapSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ltapSrv.Close)

	umLTAP, err := ldapclient.Dial(ltapAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { umLTAP.Close() })
	manager.SetLTAP(umLTAP)
	if err := manager.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(manager.Stop)

	s.client, err = ldapclient.Dial(ltapAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.client.Close() })
	return s
}

// TestMultiPBXNumberRangeMigration is the paper's migration example: "when
// a person's telephone number changes, the Definity PBX that manages the
// person's extension may also change. In this case lexpress translates a
// modification of a telephone number into two updates: a deletion in one
// PBX and an add in another PBX."
func TestMultiPBXNumberRangeMigration(t *testing.T) {
	s := newTwoSwitchStack(t)
	const person = "cn=Range Mover,o=Lucent"
	err := s.client.Add(person, []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
		{Type: "cn", Values: []string{"Range Mover"}},
		{Type: "sn", Values: []string{"Mover"}},
		{Type: "definityExtension", Values: []string{"2-9100"}},
		{Type: "telephoneNumber", Values: []string{"+1 908 582 9100"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Managed by the 582-9 switch only.
	if _, err := s.pbx9.Store.Get("2-9100"); err != nil {
		t.Fatalf("pbx9 should own the station: %v", err)
	}
	if s.pbxo.Store.Len() != 0 {
		t.Fatal("pbxo should not know this person yet")
	}

	// The number moves out of the 582-9 range.
	err = s.client.Modify(person, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "telephoneNumber", Values: []string{"+1 908 583 1200"}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Deleted at one PBX...
	if s.pbx9.Store.Len() != 0 {
		t.Error("station not deleted at pbx9")
	}
	// ...added at the other, with the closure-updated extension.
	station, err := s.pbxo.Store.Get("3-1200")
	if err != nil {
		t.Fatalf("station missing at pbxo: %v", err)
	}
	if station.First("name") != "Range Mover" {
		t.Errorf("migrated station = %v", station)
	}
	// The directory tracked the new extension.
	e, err := s.client.SearchOne(&ldap.SearchRequest{BaseDN: person, Scope: ldap.ScopeBaseObject})
	if err != nil {
		t.Fatal(err)
	}
	if e.First("definityExtension") != "3-1200" {
		t.Errorf("definityExtension = %q", e.First("definityExtension"))
	}

	// And back again.
	err = s.client.Modify(person, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "telephoneNumber", Values: []string{"+1 908 582 9777"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.pbxo.Store.Len() != 0 {
		t.Error("station not deleted at pbxo on return")
	}
	if _, err := s.pbx9.Store.Get("2-9777"); err != nil {
		t.Errorf("station missing back at pbx9: %v", err)
	}
}

// TestMultiPBXDDUFromSecondSwitch: a DDU at the second switch reaches the
// directory with the right originator and is conditionally reapplied.
func TestMultiPBXDDUFromSecondSwitch(t *testing.T) {
	s := newTwoSwitchStack(t)
	admin, err := pbx.DialNamed(s.pbxoAddr(t), "craft", "pbxo")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	rec := lexpress.NewRecord()
	rec.Set("Extension", "3-4000")
	rec.Set("Name", "Second Switch User")
	if _, err := admin.Add(rec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "directory entry from pbxo DDU", func() bool {
		e, err := s.client.SearchOne(&ldap.SearchRequest{
			BaseDN: "cn=Second Switch User,o=Lucent", Scope: ldap.ScopeBaseObject})
		return err == nil && e.First("lastUpdater") == "pbxo"
	})
	// The station exists only at the second switch.
	if s.pbx9.Store.Len() != 0 {
		t.Error("pbx9 acquired a station it does not manage")
	}
}

// pbxoAddr digs out the second switch's address for a direct admin session.
func (s *twoSwitchStack) pbxoAddr(t *testing.T) string {
	t.Helper()
	// The simulator does not expose its address; reuse the store via a
	// fresh listener-independent path: attach through the already-running
	// listener by asking the PBX for it.
	addr := s.pbxo.Addr()
	if addr == "" {
		t.Fatal("pbxo has no address")
	}
	return addr
}
