package lexpress

import "testing"

// Allocation budgets for the translation hot path: every directory update
// and every record of a synchronization pass crosses these calls, so a
// regression in them shows up as garbage-collector time on every workload.

// allocPerson is a directory person the PBX manages, as the sync pass and
// the update path hand it to lexpress.
func allocPerson(room string) Record {
	return Record{
		"objectclass":       {"top", "person", "mcPerson", "definityUser", "messagingUser"},
		"cn":                {"John Doe"},
		"sn":                {"Doe"},
		"telephonenumber":   {"+1 908 582 9000"},
		"definityextension": {"2-9000"},
		"definityname":      {"John Doe"},
		"definitycos":       {"1"},
		"roomnumber":        {room},
		"mailboxnumber":     {"9000"},
		"lastupdater":       {"ldap"},
	}
}

func checkAllocs(t *testing.T, what string, budget float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(200, f)
	if got > budget {
		t.Errorf("%s: %.0f allocations, budget %.0f", what, got, budget)
	}
	t.Logf("%s: %.0f allocations (budget %.0f)", what, got, budget)
}

func TestTranslateModifyAllocs(t *testing.T) {
	toPBX, _ := MustStandardLibrary().Get("LDAPToPBX")
	d := Descriptor{Source: "ldap", Op: OpModify, Key: "cn=John Doe,o=Lucent",
		Old: allocPerson("2C-401"), New: allocPerson("2C-402")}
	if u, err := toPBX.Translate(d); err != nil || u == nil || u.Op != OpModify {
		t.Fatalf("Translate = %v, %v", u, err)
	}
	checkAllocs(t, "LDAPToPBX Translate of a modify", 40, func() { _, _ = toPBX.Translate(d) })
}

func TestTranslateOutsidePartitionAllocs(t *testing.T) {
	toPBX, _ := MustStandardLibrary().Get("LDAPToPBX")
	rec := Record{
		"objectclass":   {"top", "person", "mcPerson", "messagingUser"},
		"cn":            {"Jane Roe"},
		"sn":            {"Roe"},
		"mailboxnumber": {"9001"},
		"lastupdater":   {"ldap"},
	}
	d := Descriptor{Source: "ldap", Op: OpModify, Key: "cn=Jane Roe,o=Lucent", Old: rec, New: rec}
	if u, err := toPBX.Translate(d); err != nil || u != nil {
		t.Fatalf("Translate = %v, %v; want nil (outside the partition)", u, err)
	}
	checkAllocs(t, "Translate of a person outside the partition", 4, func() { _, _ = toPBX.Translate(d) })
}

func TestImageAllocs(t *testing.T) {
	toLDAP, _ := MustStandardLibrary().Get("PBXToLDAP")
	station := Record{
		"extension": {"2-9000"},
		"name":      {"John Doe"},
		"cos":       {"1"},
		"cor":       {"1"},
		"room":      {"2C-401"},
		"port":      {"01A0101"},
	}
	if img, err := toLDAP.Image(station); err != nil || img.First("sn") != "Doe" {
		t.Fatalf("Image = %v, %v", img, err)
	}
	checkAllocs(t, "PBXToLDAP Image", 35, func() { _, _ = toLDAP.Image(station) })
}

func TestPatternMatchAllocs(t *testing.T) {
	p := MustCompilePattern(`.* ([^ ]+)`)
	if g, ok := p.Match("John Doe"); !ok || g[1] != "Doe" {
		t.Fatalf("Match = %v, %v", g, ok)
	}
	checkAllocs(t, "Pattern match of a hit", 1, func() { _, _ = p.Match("John Doe") })
	checkAllocs(t, "Pattern group of a hit", 0, func() { _, _ = p.group("John Doe", 1) })
	checkAllocs(t, "Pattern like of a hit", 0, func() { _ = p.Like("John Doe") })
}
