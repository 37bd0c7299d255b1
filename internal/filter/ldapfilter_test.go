package filter

import (
	"errors"
	"strings"
	"testing"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapserver"
	"metacomm/internal/lexpress"
	"metacomm/internal/mcschema"
)

func newLDAPFilter(t *testing.T) (*LDAPFilter, *directory.DIT) {
	t.Helper()
	d := directory.New(mcschema.New())
	suffix := dn.MustParse("o=Lucent")
	attrs := directory.NewAttrs()
	attrs.Put("objectClass", "organization")
	if err := d.Add(suffix, attrs); err != nil {
		t.Fatal(err)
	}
	return &LDAPFilter{
		Client:     ldapserver.NewDITClient(d),
		Suffix:     suffix,
		PeopleBase: suffix,
		RDNAttr:    "cn",
	}, d
}

func pbxImage(ext, name string) lexpress.Record {
	rec := lexpress.NewRecord()
	rec.Set("definityExtension", ext)
	rec.Set("definityName", name)
	rec.Set("cn", name)
	rec.Set("sn", lastWord(name))
	rec.Set("objectClass", "mcPerson", "definityUser")
	rec.Set("lastUpdater", "pbx")
	return rec
}

func lastWord(s string) string {
	parts := strings.Fields(s)
	return parts[len(parts)-1]
}

func TestLDAPFilterAddCreatesPerson(t *testing.T) {
	f, d := newLDAPFilter(t)
	err := f.Apply(&lexpress.TargetUpdate{
		Target: "ldap", Op: lexpress.OpAdd, Key: "2-1",
		New: pbxImage("2-1", "Ada Lovelace"),
	}, "definityExtension")
	if err != nil {
		t.Fatal(err)
	}
	e, err := d.Get(dn.MustParse("cn=Ada Lovelace,o=Lucent"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Attrs.First("definityExtension") != "2-1" {
		t.Errorf("entry = %v", e.Attrs.Map())
	}
}

func TestLDAPFilterAddNameCollisionQualifiesRDN(t *testing.T) {
	f, d := newLDAPFilter(t)
	for _, ext := range []string{"2-1", "2-2"} {
		err := f.Apply(&lexpress.TargetUpdate{
			Target: "ldap", Op: lexpress.OpAdd, Key: ext,
			New: pbxImage(ext, "Jan Kowalski"),
		}, "definityExtension")
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Get(dn.MustParse("cn=Jan Kowalski (2-2),o=Lucent")); err != nil {
		t.Errorf("qualified entry missing: %v", err)
	}
}

func TestLDAPFilterModifyConverges(t *testing.T) {
	f, d := newLDAPFilter(t)
	img := pbxImage("2-1", "Ada Lovelace")
	if err := f.Apply(&lexpress.TargetUpdate{Target: "ldap", Op: lexpress.OpAdd, Key: "2-1", New: img}, "definityExtension"); err != nil {
		t.Fatal(err)
	}
	upd := img.Clone()
	upd.Set("roomNumber", "1A-1")
	upd.Set("definityCOS", "2")
	err := f.Apply(&lexpress.TargetUpdate{
		Target: "ldap", Op: lexpress.OpModify, Key: "2-1", OldKey: "2-1",
		Old: img, New: upd,
	}, "definityExtension")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := d.Get(dn.MustParse("cn=Ada Lovelace,o=Lucent"))
	if e.Attrs.First("roomNumber") != "1A-1" || e.Attrs.First("definityCOS") != "2" {
		t.Errorf("entry = %v", e.Attrs.Map())
	}
	// Removing an attribute from the image deletes it on the entry.
	trimmed := upd.Clone()
	trimmed.Set("roomNumber")
	err = f.Apply(&lexpress.TargetUpdate{
		Target: "ldap", Op: lexpress.OpModify, Key: "2-1", OldKey: "2-1",
		Old: upd, New: trimmed,
	}, "definityExtension")
	if err != nil {
		t.Fatal(err)
	}
	e, _ = d.Get(dn.MustParse("cn=Ada Lovelace,o=Lucent"))
	if e.Attrs.Has("roomNumber") {
		t.Error("stale attribute survived")
	}
}

func TestLDAPFilterRenameIsModifyRDNPlusModifyPair(t *testing.T) {
	f, d := newLDAPFilter(t)
	img := pbxImage("2-1", "Ada Lovelace")
	if err := f.Apply(&lexpress.TargetUpdate{Target: "ldap", Op: lexpress.OpAdd, Key: "2-1", New: img}, "definityExtension"); err != nil {
		t.Fatal(err)
	}
	renamed := pbxImage("2-1", "Ada King")
	renamed.Set("roomNumber", "NEW-1")
	err := f.Apply(&lexpress.TargetUpdate{
		Target: "ldap", Op: lexpress.OpModify, Key: "2-1", OldKey: "2-1",
		Old: img, New: renamed,
	}, "definityExtension")
	if err != nil {
		t.Fatal(err)
	}
	e, err := d.Get(dn.MustParse("cn=Ada King,o=Lucent"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Attrs.First("roomNumber") != "NEW-1" {
		t.Errorf("second half of the pair missing: %v", e.Attrs.Map())
	}
	if _, err := d.Get(dn.MustParse("cn=Ada Lovelace,o=Lucent")); err == nil {
		t.Error("old name survived")
	}
}

// TestRenameCrashWindow reproduces §5.1: a crash between the ModifyRDN and
// the Modify leaves the entry renamed but not updated — visible to readers
// until resynchronization repairs it.
func TestRenameCrashWindow(t *testing.T) {
	f, d := newLDAPFilter(t)
	img := pbxImage("2-1", "Ada Lovelace")
	if err := f.Apply(&lexpress.TargetUpdate{Target: "ldap", Op: lexpress.OpAdd, Key: "2-1", New: img}, "definityExtension"); err != nil {
		t.Fatal(err)
	}
	f.AfterRename = func() error { return errors.New("um crashed") }
	renamed := pbxImage("2-1", "Ada King")
	renamed.Set("roomNumber", "NEW-1")
	err := f.Apply(&lexpress.TargetUpdate{
		Target: "ldap", Op: lexpress.OpModify, Key: "2-1", OldKey: "2-1",
		Old: img, New: renamed,
	}, "definityExtension")
	if err == nil || !strings.Contains(err.Error(), "um crashed") {
		t.Fatalf("err = %v", err)
	}
	// Inconsistent state: renamed, but the room never arrived.
	e, err := d.Get(dn.MustParse("cn=Ada King,o=Lucent"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Attrs.Has("roomNumber") {
		t.Fatal("crash window did not reproduce")
	}
	// Recovery: rerunning the (reapplied) update converges the entry.
	f.AfterRename = nil
	err = f.Apply(&lexpress.TargetUpdate{
		Target: "ldap", Op: lexpress.OpModify, Conditional: true, Key: "2-1", OldKey: "2-1",
		Old: img, New: renamed,
	}, "definityExtension")
	if err != nil {
		t.Fatal(err)
	}
	e, _ = d.Get(dn.MustParse("cn=Ada King,o=Lucent"))
	if e.Attrs.First("roomNumber") != "NEW-1" {
		t.Error("resync did not repair the §5.1 inconsistency")
	}
}

func TestLDAPFilterDeleteClearsOwnedOnly(t *testing.T) {
	f, d := newLDAPFilter(t)
	img := pbxImage("2-1", "Ada Lovelace")
	img.Set("telephoneNumber", "+1 908 582 0001")
	if err := f.Apply(&lexpress.TargetUpdate{Target: "ldap", Op: lexpress.OpAdd, Key: "2-1", New: img}, "definityExtension"); err != nil {
		t.Fatal(err)
	}
	err := f.Apply(&lexpress.TargetUpdate{
		Target: "ldap", Op: lexpress.OpDelete, Key: "2-1", OldKey: "2-1",
		Old:   img,
		Owned: []string{"definityExtension", "definityName", "definityCOS"},
	}, "definityExtension")
	if err != nil {
		t.Fatal(err)
	}
	e, err := d.Get(dn.MustParse("cn=Ada Lovelace,o=Lucent"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Attrs.Has("definityExtension") || e.Attrs.Has("definityName") {
		t.Error("owned attributes survived")
	}
	if !e.Attrs.Has("telephoneNumber") {
		t.Error("shared attribute cleared")
	}
}

func TestLDAPFilterConditionalModifyOfMissingAdds(t *testing.T) {
	f, d := newLDAPFilter(t)
	img := pbxImage("2-7", "Grace Hopper")
	err := f.Apply(&lexpress.TargetUpdate{
		Target: "ldap", Op: lexpress.OpModify, Conditional: true,
		Key: "2-7", OldKey: "2-7", New: img,
	}, "definityExtension")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(dn.MustParse("cn=Grace Hopper,o=Lucent")); err != nil {
		t.Errorf("conditional modify fallback add missing: %v", err)
	}
	// A plain modify of a missing entry errors.
	err = f.Apply(&lexpress.TargetUpdate{
		Target: "ldap", Op: lexpress.OpModify, Key: "9-9", OldKey: "9-9",
		New: pbxImage("9-9", "Nobody"),
	}, "definityExtension")
	if !ldap.IsCode(err, ldap.ResultNoSuchObject) {
		t.Errorf("err = %v", err)
	}
}

func TestLocateAmbiguityIsAnError(t *testing.T) {
	f, d := newLDAPFilter(t)
	for _, name := range []string{"cn=A,o=Lucent", "cn=B,o=Lucent"} {
		attrs := directory.AttrsFrom(map[string][]string{
			"objectClass":       {"mcPerson", "definityUser"},
			"sn":                {"X"},
			"definityExtension": {"2-1"},
		})
		if err := d.Add(dn.MustParse(name), attrs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Locate("definityExtension", "2-1"); err == nil {
		t.Error("ambiguous key lookup succeeded")
	}
}
