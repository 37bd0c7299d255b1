package um_test

// Fault-injection tests for the durable device-update outbox: outage
// mid-fan-out, partial multi-device failures, targeted repair on replay
// conflicts, crash/restart with a non-empty journal, and the circuit
// breaker's open/half-open/close transitions. They drive a UM over an
// in-memory fake directory and in-process device stores, so every fault is
// injected deterministically.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"metacomm/internal/device"
	"metacomm/internal/dn"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/lexpress"
	"metacomm/internal/ltap"
	"metacomm/internal/record"
	"metacomm/internal/um"
)

// fakeDir is an in-memory backing LDAP client: enough of the protocol for
// the UM's write path and the outbox repair's base-object search.
type fakeDir struct {
	mu      sync.Mutex
	entries map[string]*fakeEntry // normalized DN -> entry
}

type fakeEntry struct {
	dn  string
	rec lexpress.Record
}

func newFakeDir() *fakeDir { return &fakeDir{entries: map[string]*fakeEntry{}} }

func normTestDN(s string) string {
	d, err := dn.Parse(s)
	if err != nil {
		return strings.ToLower(s)
	}
	return d.Normalize()
}

func resultErr(code ldap.ResultCode, msg string) error {
	return &ldap.ResultError{Result: ldap.Result{Code: code, Message: msg}}
}

func (d *fakeDir) Add(dnStr string, attrs []ldap.Attribute) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	norm := normTestDN(dnStr)
	if _, ok := d.entries[norm]; ok {
		return resultErr(ldap.ResultEntryAlreadyExists, dnStr)
	}
	rec := lexpress.NewRecord()
	for _, a := range attrs {
		rec.Set(a.Type, a.Values...)
	}
	d.entries[norm] = &fakeEntry{dn: dnStr, rec: rec}
	return nil
}

func (d *fakeDir) Modify(dnStr string, changes []ldap.Change) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[normTestDN(dnStr)]
	if !ok {
		return resultErr(ldap.ResultNoSuchObject, dnStr)
	}
	for _, c := range changes {
		switch c.Op {
		case ldap.ModReplace:
			e.rec.Set(c.Attribute.Type, c.Attribute.Values...)
		case ldap.ModAdd:
			e.rec.Set(c.Attribute.Type,
				append(e.rec.Get(c.Attribute.Type), c.Attribute.Values...)...)
		case ldap.ModDelete:
			e.rec.Set(c.Attribute.Type)
		}
	}
	return nil
}

func (d *fakeDir) Delete(dnStr string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	norm := normTestDN(dnStr)
	if _, ok := d.entries[norm]; !ok {
		return resultErr(ldap.ResultNoSuchObject, dnStr)
	}
	delete(d.entries, norm)
	return nil
}

func (d *fakeDir) ModifyDN(dnStr, newRDN string, _ bool) error {
	return resultErr(ldap.ResultUnwillingToPerform, "fakeDir: no rename")
}

func (d *fakeDir) Search(req *ldap.SearchRequest) ([]*ldapclient.Entry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if req.Scope != ldap.ScopeBaseObject {
		return nil, nil // only the repair path's base search matters here
	}
	e, ok := d.entries[normTestDN(req.BaseDN)]
	if !ok {
		return nil, resultErr(ldap.ResultNoSuchObject, req.BaseDN)
	}
	out := &ldapclient.Entry{DN: e.dn}
	for _, a := range e.rec.Attrs() {
		out.Attributes = append(out.Attributes,
			ldap.Attribute{Type: a, Values: e.rec.Get(a)})
	}
	return []*ldapclient.Entry{out}, nil
}

// record returns a copy of the entry's record (nil when absent).
func (d *fakeDir) record(dnStr string) lexpress.Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[normTestDN(dnStr)]
	if !ok {
		return nil
	}
	return e.rec.Clone()
}

// errorEntries counts logged ou=errors children.
func (d *fakeDir) errorEntries() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for norm := range d.entries {
		if strings.Contains(norm, "ou=errors") && norm != "ou=errors,o=lucent" {
			n++
		}
	}
	return n
}

// outboxEnv is one UM over a fakeDir with in-process device stores.
type outboxEnv struct {
	u   *um.UM
	dir *fakeDir
	pbx *device.Store
	mp  *device.Store // nil unless twoDevices
}

// startOutboxUM builds and starts the harness. The stores and dir may be
// shared with a previous instance (the crash/restart tests reuse them).
func startOutboxUM(t *testing.T, cfg um.Config, pol um.OutboxPolicy, dir *fakeDir, pbx, mp *device.Store) *outboxEnv {
	t.Helper()
	u := newOutboxUM(t, cfg, pol, dir, pbx, mp)
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	return &outboxEnv{u: u, dir: dir, pbx: pbx, mp: mp}
}

// newOutboxUM builds the harness's UM without starting it.
func newOutboxUM(t *testing.T, cfg um.Config, pol um.OutboxPolicy, dir *fakeDir, pbx, mp *device.Store) *um.UM {
	t.Helper()
	if cfg.Suffix == nil {
		cfg.Suffix = dn.MustParse("o=Lucent")
	}
	if cfg.Library == nil {
		cfg.Library = lexpress.MustStandardLibrary()
	}
	cfg.Backing = dir
	u, err := um.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*device.Store{pbx, mp} {
		if st == nil {
			continue
		}
		conv := device.NewStoreConverter(st, "metacomm")
		t.Cleanup(func() { conv.Close() })
		f, err := filter.NewDeviceFilter(conv, cfg.Library)
		if err != nil {
			t.Fatal(err)
		}
		u.AddDevice(f)
	}
	u.SetOutboxPolicy(pol)
	return u
}

// fastOutbox is an outbox policy with millisecond-scale backoffs so the
// tests converge quickly.
func fastOutbox() um.OutboxPolicy {
	return um.OutboxPolicy{
		MaxRetries:       6,
		BaseBackoff:      2 * time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
		BreakerThreshold: 3,
	}
}

func (e *outboxEnv) addPerson(t *testing.T, name, ext string) string {
	t.Helper()
	dnStr := fmt.Sprintf("cn=%s,o=Lucent", name)
	attrs := lexpress.NewRecord()
	attrs.Set("objectClass", "mcPerson", "definityUser")
	attrs.Set("cn", name)
	attrs.Set("sn", name)
	attrs.Set("definityExtension", ext)
	res := e.u.OnUpdate(ltap.Event{Kind: ltap.EventAdd, DN: dnStr, Attrs: attrs})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("add %s: %+v", dnStr, res)
	}
	return dnStr
}

func (e *outboxEnv) setRoom(t *testing.T, dnStr, room string) {
	t.Helper()
	old := e.dir.record(dnStr)
	if old == nil {
		t.Fatalf("setRoom: no entry %s", dnStr)
	}
	res := e.u.OnUpdate(ltap.Event{
		Kind: ltap.EventModify, DN: dnStr, Old: old,
		Changes: []ltap.Change{{Op: "replace", Attr: "roomNumber", Values: []string{room}}},
	})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("modify %s: %+v", dnStr, res)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deviceRoom reads the Room field the device stores for an extension.
func deviceRoom(st *device.Store, ext string) string {
	rec, err := st.Get(ext)
	if err != nil {
		return "<err:" + err.Error() + ">"
	}
	return rec.First("Room")
}

func pbxStats(t *testing.T, u *um.UM) um.OutboxStats {
	t.Helper()
	for _, s := range u.OutboxStats() {
		if s.Device == "pbx" {
			return s
		}
	}
	t.Fatal("no outbox stats for pbx")
	return um.OutboxStats{}
}

// TestOutboxFaultScenarios drives the single-device fault table: each case
// injects a different failure around one roomNumber update and states what
// must converge and which counters must move.
func TestOutboxFaultScenarios(t *testing.T) {
	cases := []struct {
		name string
		// inject arms the fault before the update; recover clears it after.
		inject  func(e *outboxEnv)
		recover func(e *outboxEnv)
		// wantRepairs is the minimum Repairs count at convergence.
		wantRepairs uint64
	}{
		{
			name:    "outage mid-fan-out",
			inject:  func(e *outboxEnv) { e.pbx.SetDown(true) },
			recover: func(e *outboxEnv) { e.pbx.SetDown(false) },
		},
		{
			name: "transient command failure",
			// One-shot failure: the fan-out apply fails, the first replay
			// succeeds — no repair needed.
			inject:  func(e *outboxEnv) { e.pbx.FailNext("administration command rejected") },
			recover: func(e *outboxEnv) {},
		},
		{
			name: "replay conflict falls back to targeted repair",
			// Two one-shot failures: the fan-out apply fails AND the first
			// replay fails with the device answering — the drainer must
			// repair the entry from the live directory.
			inject: func(e *outboxEnv) {
				e.pbx.FailNext("administration command rejected")
				e.pbx.FailNext("administration command rejected")
			},
			recover:     func(e *outboxEnv) {},
			wantRepairs: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := newFakeDir()
			pbx := device.NewStore("pbx", "Extension")
			e := startOutboxUM(t, um.Config{Shards: 2}, fastOutbox(), dir, pbx, nil)
			dnStr := e.addPerson(t, "Fault Case", "2-9001")
			waitUntil(t, time.Second, func() bool { return deviceRoom(pbx, "2-9001") != "<err:device: record not found>" },
				"initial add to reach the device")

			tc.inject(e)
			e.setRoom(t, dnStr, "R-42")
			// The directory accepted the update even though the device
			// could not (the acceptance criterion: no stall, no loss).
			if got := e.dir.record(dnStr).First("roomNumber"); got != "R-42" {
				t.Fatalf("directory roomNumber = %q, want R-42", got)
			}
			tc.recover(e)

			waitUntil(t, 5*time.Second, func() bool {
				return e.u.OutboxBacklog() == 0 && deviceRoom(pbx, "2-9001") == "R-42"
			}, "outbox to drain and the device to converge")

			st := pbxStats(t, e.u)
			if st.Enqueued == 0 {
				t.Error("no update was journaled")
			}
			if st.Drained == 0 {
				t.Error("nothing drained")
			}
			if st.Repairs < tc.wantRepairs {
				t.Errorf("Repairs = %d, want >= %d", st.Repairs, tc.wantRepairs)
			}
			if st.Dropped != 0 {
				t.Errorf("Dropped = %d, want 0", st.Dropped)
			}
			if n := dir.errorEntries(); n != 0 {
				t.Errorf("%d error entries logged; the outbox should have absorbed the failure", n)
			}
		})
	}
}

// TestOutboxPartialMultiDeviceApply fails only the PBX half of a fan-out
// touching both devices: the messaging platform must apply immediately, the
// PBX through the outbox, and no error entry appears.
func TestOutboxPartialMultiDeviceApply(t *testing.T) {
	dir := newFakeDir()
	pbx := device.NewStore("pbx", "Extension")
	mp := device.NewStore("msgplat", "Mailbox")
	e := startOutboxUM(t, um.Config{Shards: 2}, fastOutbox(), dir, pbx, mp)

	// A person with an extension gets a derived mailbox through the closure,
	// so updates fan out to both devices.
	dnStr := e.addPerson(t, "Partial Person", "2-9007")
	waitUntil(t, time.Second, func() bool {
		return e.u.OutboxBacklog() == 0 &&
			deviceRoom(pbx, "2-9007") != "<err:device: record not found>"
	}, "initial fan-out")
	if _, err := mp.Get("9007"); err != nil {
		t.Fatalf("mailbox 9007 not at the messaging platform: %v", err)
	}

	pbx.FailNext("port board unavailable")
	e.setRoom(t, dnStr, "R-7")

	// The messaging platform applied in the same fan-out (its Name field
	// carries cn; the roomNumber change itself maps only to the PBX, but the
	// update still reaches it — msgplat must not be disturbed).
	waitUntil(t, 5*time.Second, func() bool {
		return e.u.OutboxBacklog() == 0 && deviceRoom(pbx, "2-9007") == "R-7"
	}, "pbx to drain")
	if _, err := mp.Get("9007"); err != nil {
		t.Errorf("mailbox lost after partial failure: %v", err)
	}
	if n := dir.errorEntries(); n != 0 {
		t.Errorf("%d error entries logged", n)
	}
	st := pbxStats(t, e.u)
	if st.Enqueued != 1 || st.Drained != 1 {
		t.Errorf("pbx outbox enqueued=%d drained=%d, want 1/1", st.Enqueued, st.Drained)
	}
}

// TestOutboxCrashRestartDrainsJournal proves the acceptance criterion: a
// backlog journaled before a crash survives the restart and drains.
func TestOutboxCrashRestartDrainsJournal(t *testing.T) {
	journalDir := t.TempDir()
	dir := newFakeDir()
	pbx := device.NewStore("pbx", "Extension")

	e := startOutboxUM(t, um.Config{Shards: 2, OutboxDir: journalDir}, fastOutbox(), dir, pbx, nil)
	dnStr := e.addPerson(t, "Crash Person", "2-9003")
	waitUntil(t, time.Second, func() bool { return deviceRoom(pbx, "2-9003") != "<err:device: record not found>" },
		"initial add")

	pbx.SetDown(true)
	e.setRoom(t, dnStr, "R-11")
	e.setRoom(t, dnStr, "R-12")
	if got := pbxStats(t, e.u).Backlog; got != 2 {
		t.Fatalf("backlog before crash = %d, want 2", got)
	}
	e.u.Stop() // "crash": the journal holds two unacknowledged updates

	pbx.SetDown(false)
	e2 := startOutboxUM(t, um.Config{Shards: 2, OutboxDir: journalDir}, fastOutbox(), dir, pbx, nil)
	waitUntil(t, 5*time.Second, func() bool {
		return e2.u.OutboxBacklog() == 0 && deviceRoom(pbx, "2-9003") == "R-12"
	}, "journaled backlog to drain after restart")
	if st := pbxStats(t, e2.u); st.Dropped != 0 {
		t.Errorf("Dropped = %d after restart drain", st.Dropped)
	}
}

// TestOutboxBreakerTransitions walks the breaker through closed -> open
// (consecutive failures) -> half-open probe -> closed (recovery), and
// checks that fan-out applies during the open window are deferred straight
// into the outbox without touching the device.
func TestOutboxBreakerTransitions(t *testing.T) {
	dir := newFakeDir()
	pbx := device.NewStore("pbx", "Extension")
	pol := fastOutbox()
	pol.BreakerThreshold = 2
	e := startOutboxUM(t, um.Config{Shards: 2}, pol, dir, pbx, nil)
	dnStr := e.addPerson(t, "Breaker Person", "2-9005")
	waitUntil(t, time.Second, func() bool { return deviceRoom(pbx, "2-9005") != "<err:device: record not found>" },
		"initial add")

	pbx.SetDown(true)
	e.setRoom(t, dnStr, "R-1")
	// The fan-out failure plus drainer retries trip the breaker open.
	waitUntil(t, 5*time.Second, func() bool { return pbxStats(t, e.u).Breaker == "open" },
		"breaker to open")

	// While open, new updates are deferred into the outbox (Deferred moves)
	// rather than applied (which would eat an apply each).
	before := pbxStats(t, e.u).Deferred
	e.setRoom(t, dnStr, "R-2")
	if got := pbxStats(t, e.u); got.Deferred != before+1 {
		t.Errorf("Deferred = %d, want %d: open breaker did not divert the fan-out", got.Deferred, before+1)
	}

	// Recovery: a half-open probe succeeds and closes the breaker; the
	// backlog drains in order, so the device ends at R-2.
	pbx.SetDown(false)
	waitUntil(t, 5*time.Second, func() bool {
		st := pbxStats(t, e.u)
		return st.Breaker == "closed" && st.Backlog == 0 && deviceRoom(pbx, "2-9005") == "R-2"
	}, "breaker to close and backlog to drain")
	if st := pbxStats(t, e.u); st.Trips == 0 {
		t.Error("breaker never recorded a trip")
	}
}

// TestOutboxRepairDeletesVanishedEntry covers the repair path's other arm:
// the directory entry is gone by the time the replay conflicts, so the
// targeted repair removes the stale device record.
func TestOutboxRepairDeletesVanishedEntry(t *testing.T) {
	dir := newFakeDir()
	pbx := device.NewStore("pbx", "Extension")
	e := startOutboxUM(t, um.Config{Shards: 2}, fastOutbox(), dir, pbx, nil)
	dnStr := e.addPerson(t, "Vanish Person", "2-9009")
	waitUntil(t, time.Second, func() bool { return deviceRoom(pbx, "2-9009") != "<err:device: record not found>" },
		"initial add")

	// Journal an update while the device is down, remove the entry from
	// the directory behind the UM's back, then arm one conflict for the
	// replay: the drainer's repair must find nothing live. (The device
	// stays down until everything is staged — the drainer checks downness
	// before consuming injected failures, so the ordering is race-free.)
	pbx.SetDown(true)
	e.setRoom(t, dnStr, "R-99")
	if err := dir.Delete(dnStr); err != nil {
		t.Fatal(err)
	}
	pbx.FailNext("administration command rejected")
	pbx.SetDown(false)

	waitUntil(t, 5*time.Second, func() bool {
		_, err := pbx.Get("2-9009")
		return e.u.OutboxBacklog() == 0 && err != nil
	}, "repair to delete the stale device record")
	if st := pbxStats(t, e.u); st.Repairs == 0 {
		t.Error("no repair recorded")
	}
}

// journalOutage journals three roomNumber updates for one person while the
// PBX is down (R-1, R-2, R-3, in that order) and stops the UM, leaving
// three unacknowledged update frames in <journalDir>/pbx.outbox.
func journalOutage(t *testing.T, journalDir string, dir *fakeDir, pbx *device.Store) string {
	t.Helper()
	e := startOutboxUM(t, um.Config{Shards: 2, OutboxDir: journalDir}, fastOutbox(), dir, pbx, nil)
	dnStr := e.addPerson(t, "Journal Person", "2-9011")
	waitUntil(t, time.Second, func() bool { return deviceRoom(pbx, "2-9011") != "<err:device: record not found>" },
		"initial add")
	pbx.SetDown(true)
	for _, room := range []string{"R-1", "R-2", "R-3"} {
		e.setRoom(t, dnStr, room)
	}
	if got := pbxStats(t, e.u).Backlog; got != 3 {
		t.Fatalf("backlog before stop = %d, want 3", got)
	}
	e.u.Stop()
	pbx.SetDown(false)
	return filepath.Join(journalDir, "pbx.outbox")
}

// frameEnds returns the end offset of every complete frame in the file.
func frameEnds(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	var fr record.Reader
	r := bufio.NewReader(bytes.NewReader(data))
	off := 0
	for off < len(data) {
		_, n, err := fr.ReadFrame(r)
		if err != nil {
			t.Fatalf("frame at offset %d: %v", off, err)
		}
		off += n
		ends = append(ends, off)
	}
	return ends
}

// TestOutboxCorruptRecordRefused: a complete journal frame that fails its
// checksum is corruption, not a torn tail. The frames after it cannot be
// trusted to be the only ones lost, so Start refuses and names the file
// instead of silently dropping them.
func TestOutboxCorruptRecordRefused(t *testing.T) {
	journalDir := t.TempDir()
	dir := newFakeDir()
	pbx := device.NewStore("pbx", "Extension")
	path := journalOutage(t, journalDir, dir, pbx)

	ends := frameEnds(t, path)
	if len(ends) != 3 {
		t.Fatalf("journal holds %d frames, want 3", len(ends))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[(ends[0]+ends[1])/2] ^= 0xff // one byte inside the second frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	u := newOutboxUM(t, um.Config{Shards: 2, OutboxDir: journalDir}, fastOutbox(), dir, pbx, nil)
	t.Cleanup(u.Stop)
	err = u.Start()
	if err == nil {
		t.Fatal("Start accepted a journal with a corrupt frame")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("Start error does not name %s: %v", path, err)
	}
}

// TestOutboxTornTailTruncated: a final frame cut short by a crash
// mid-append is truncated, counted and the records before it still drain,
// in order.
func TestOutboxTornTailTruncated(t *testing.T) {
	journalDir := t.TempDir()
	dir := newFakeDir()
	pbx := device.NewStore("pbx", "Extension")
	path := journalOutage(t, journalDir, dir, pbx)

	ends := frameEnds(t, path)
	if err := os.Truncate(path, int64(ends[2]-3)); err != nil { // R-3 loses its checksum
		t.Fatal(err)
	}

	e := startOutboxUM(t, um.Config{Shards: 2, OutboxDir: journalDir}, fastOutbox(), dir, pbx, nil)
	st := pbxStats(t, e.u)
	if st.TornTails != 1 {
		t.Errorf("TornTails = %d, want 1", st.TornTails)
	}
	waitUntil(t, 5*time.Second, func() bool {
		// Drained moves after the record's ack frame is written.
		return pbxStats(t, e.u).Drained == 2 && deviceRoom(pbx, "2-9011") == "R-2"
	}, "the two complete records to drain")
	if st := pbxStats(t, e.u); st.Backlog != 0 || st.Dropped != 0 {
		t.Errorf("Backlog = %d, Dropped = %d after the drain, want 0/0", st.Backlog, st.Dropped)
	}
	// The acks were appended at a frame boundary, not after the torn bytes.
	if n := len(frameEnds(t, path)); n != 4 {
		t.Errorf("journal holds %d frames after the drain, want 2 updates + 2 acks", n)
	}
}
