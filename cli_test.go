package metacomm_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	metacomm "metacomm"
	"metacomm/internal/ldap"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildTools compiles the command-line tools once per test binary.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "metacomm-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"ldapcli", "lexc", "pbxadmin", "metacommd", "replicad"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			cmd.Env = os.Environ()
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build tools: %v", buildErr)
	}
	return binDir
}

func runTool(t *testing.T, name string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIEndToEnd(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	addr := s.LTAPAddrActual

	// add through ldapcli
	out, err := runTool(t, "ldapcli", "-addr", addr, "add", "cn=CLI Person,o=Lucent",
		"objectClass=mcPerson", "objectClass=definityUser",
		"cn=CLI Person", "sn=Person", "definityExtension=2-6100")
	if err != nil {
		t.Fatalf("add: %v\n%s", err, out)
	}
	// The add provisioned the PBX.
	if _, err := s.PBX.Store.Get("2-6100"); err != nil {
		t.Fatalf("station missing after CLI add: %v", err)
	}

	// search
	out, err = runTool(t, "ldapcli", "-addr", addr, "search", "o=Lucent", "(cn=CLI Person)")
	if err != nil {
		t.Fatalf("search: %v\n%s", err, out)
	}
	if !strings.Contains(out, "definityExtension: 2-6100") {
		t.Errorf("search output:\n%s", out)
	}

	// modify
	out, err = runTool(t, "ldapcli", "-addr", addr, "modify", "cn=CLI Person,o=Lucent",
		"replace:roomNumber=7C-700")
	if err != nil {
		t.Fatalf("modify: %v\n%s", err, out)
	}
	station, _ := s.PBX.Store.Get("2-6100")
	if station.First("room") != "7C-700" {
		t.Errorf("station room = %q", station.First("room"))
	}

	// compare
	out, err = runTool(t, "ldapcli", "-addr", addr, "compare", "cn=CLI Person,o=Lucent", "sn", "Person")
	if err != nil || !strings.Contains(out, "true") {
		t.Errorf("compare: %v\n%s", err, out)
	}

	// rename
	if out, err := runTool(t, "ldapcli", "-addr", addr, "rename",
		"cn=CLI Person,o=Lucent", "cn=CLI Renamed"); err != nil {
		t.Fatalf("rename: %v\n%s", err, out)
	}

	// quiesce on/off via extended ops
	if out, err := runTool(t, "ldapcli", "-addr", addr, "quiesce", "on"); err != nil {
		t.Fatalf("quiesce on: %v\n%s", err, out)
	}
	if !s.Gateway.Quiesced() {
		t.Error("quiesce on did not take effect")
	}
	if out, err := runTool(t, "ldapcli", "-addr", addr, "quiesce", "off"); err != nil {
		t.Fatalf("quiesce off: %v\n%s", err, out)
	}

	// delete
	if out, err := runTool(t, "ldapcli", "-addr", addr, "delete", "cn=CLI Renamed,o=Lucent"); err != nil {
		t.Fatalf("delete: %v\n%s", err, out)
	}
	if s.PBX.Store.Len() != 0 {
		t.Error("station survived CLI delete")
	}

	// A failed operation exits non-zero.
	if _, err := runTool(t, "ldapcli", "-addr", addr, "delete", "cn=Ghost,o=Lucent"); err == nil {
		t.Error("deleting a ghost succeeded")
	}
}

func TestCLIPBXAdminDrivesDDUs(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	addr := s.PBXAddrActual

	out, err := runTool(t, "pbxadmin", "-addr", addr, "add", "2-6200", "Name", "Console Added")
	if err != nil {
		t.Fatalf("pbxadmin add: %v\n%s", err, out)
	}
	out, err = runTool(t, "pbxadmin", "-addr", addr, "show", "2-6200")
	if err != nil || !strings.Contains(out, "Console Added") {
		t.Fatalf("pbxadmin show: %v\n%s", err, out)
	}
	// The DDU propagated to the directory.
	c := client(t, s)
	waitFor(t, "DDU from pbxadmin", func() bool {
		entries, err := c.Search(&ldap.SearchRequest{
			BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree,
			Filter: ldap.Eq("definityExtension", "2-6200"),
		})
		return err == nil && len(entries) == 1
	})

	out, err = runTool(t, "pbxadmin", "-addr", addr, "list")
	if err != nil || !strings.Contains(out, "2-6200") {
		t.Fatalf("pbxadmin list: %v\n%s", err, out)
	}
	if out, err := runTool(t, "pbxadmin", "-addr", addr, "remove", "2-6200"); err != nil {
		t.Fatalf("pbxadmin remove: %v\n%s", err, out)
	}
}

// TestCLIReplicadFollows runs the read-only follower as its own process: it
// must catch up on what the node already holds, follow live writes (the
// device-generated write-back included), and refuse writes of its own.
func TestCLIReplicadFollows(t *testing.T) {
	s := startSystem(t, metacomm.Config{ReplicationAddr: "127.0.0.1:0"})
	c := client(t, s)
	if err := c.Add(johnDN, johnDoeAttrs()); err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	cmd := exec.Command(filepath.Join(buildTools(t), "replicad"), "-from", s.ReplicationAddrActual, "-ldap", addr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	search := func(name string) (string, error) {
		return runTool(t, "ldapcli", "-addr", addr, "search", "o=Lucent", "(cn="+name+")")
	}
	waitFor(t, "replicad to catch up", func() bool {
		out, err := search("John Doe")
		return err == nil && strings.Contains(out, "mailboxId: MBX")
	})
	if err := c.Modify(johnDN, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"9Z-999"}}}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replicad to follow a live write", func() bool {
		out, err := search("John Doe")
		return err == nil && strings.Contains(out, "roomNumber: 9Z-999")
	})
	if out, err := runTool(t, "ldapcli", "-addr", addr, "modify", johnDN, "replace:roomNumber=X"); err == nil {
		t.Fatalf("replicad accepted a write:\n%s", out)
	}
}

func TestCLIExportImportLDIF(t *testing.T) {
	s := startSystem(t, metacomm.Config{})
	addr := s.LTAPAddrActual
	// Seed two people.
	for i, name := range []string{"Export One", "Export Two"} {
		out, err := runTool(t, "ldapcli", "-addr", addr, "add",
			"cn="+name+",o=Lucent",
			"objectClass=mcPerson", "objectClass=definityUser",
			"cn="+name, "sn=Exported",
			"definityExtension=2-63"+string(rune('0'+i))+"0")
		if err != nil {
			t.Fatalf("seed: %v\n%s", err, out)
		}
	}
	// Capture stdout alone: the entry count goes to stderr and must not
	// pollute the LDIF.
	cmd := exec.Command(filepath.Join(buildTools(t), "ldapcli"),
		"-addr", addr, "export", "o=Lucent", "(objectClass=mcPerson)")
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	out := string(stdout)
	if !strings.Contains(out, "dn: cn=Export One,o=Lucent") ||
		!strings.Contains(out, "definityExtension: 2-6300") {
		t.Fatalf("export output:\n%s", out)
	}

	// Import the dump into a SECOND system: backup/restore across sites.
	s2 := startSystem(t, metacomm.Config{})
	ldifFile := filepath.Join(t.TempDir(), "dump.ldif")
	if err := os.WriteFile(ldifFile, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	out2, err := runTool(t, "ldapcli", "-addr", s2.LTAPAddrActual, "import", ldifFile)
	if err != nil {
		t.Fatalf("import: %v\n%s", err, out2)
	}
	if !strings.Contains(out2, "added 2 entries") {
		t.Errorf("import output: %s", out2)
	}
	// The import flowed through LTAP: the second system's PBX is
	// provisioned too.
	if got := s2.PBX.Store.Len(); got != 2 {
		t.Errorf("second system stations = %d, want 2", got)
	}
}

func TestCLILexc(t *testing.T) {
	out, err := runTool(t, "lexc", "-std")
	if err != nil {
		t.Fatalf("lexc -std: %v\n%s", err, out)
	}
	for _, want := range []string{"PBXToLDAP", "LDAPToMP", "LDAPClosure",
		"originator: lastUpdater", "owns:", "cyclic closure dependency"} {
		if !strings.Contains(out, want) {
			t.Errorf("lexc output missing %q:\n%s", want, out)
		}
	}
	out, err = runTool(t, "lexc", "-std", "-d")
	if err != nil || !strings.Contains(out, "pushconst") {
		t.Errorf("lexc disassembly: %v", err)
	}
	// Bad source via a file.
	bad := filepath.Join(t.TempDir(), "bad.lex")
	if err := os.WriteFile(bad, []byte("mapping oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runTool(t, "lexc", bad); err == nil {
		t.Error("lexc accepted bad source")
	}
}
