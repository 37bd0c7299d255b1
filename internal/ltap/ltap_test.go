package ltap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
	"metacomm/internal/mcschema"
)

// testDIT builds a small schema-checked directory.
func testDIT(t testing.TB) *directory.DIT {
	t.Helper()
	d := directory.New(mcschema.New())
	add := func(name string, attrs map[string][]string) {
		if err := d.Add(dn.MustParse(name), directory.AttrsFrom(attrs)); err != nil {
			t.Fatal(err)
		}
	}
	add("o=Lucent", map[string][]string{"objectClass": {"organization"}})
	add("cn=John Doe,o=Lucent", map[string][]string{
		"objectClass": {"mcPerson"}, "sn": {"Doe"},
		"telephoneNumber": {"+1 908 582 9000"},
	})
	return d
}

// recordingAction captures events and returns success.
type recordingAction struct {
	mu     sync.Mutex
	events []Event
	delay  time.Duration
	result ldap.Result
}

func (a *recordingAction) OnUpdate(ev Event) ldap.Result {
	if a.delay > 0 {
		time.Sleep(a.delay)
	}
	a.mu.Lock()
	a.events = append(a.events, ev)
	a.mu.Unlock()
	if a.result.Code != 0 || a.result.Message != "" {
		return a.result
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

func (a *recordingAction) all() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Event(nil), a.events...)
}

// startGateway serves a gateway over TCP and returns a connected client.
func startGateway(t testing.TB, g *Gateway) *ldapclient.Conn {
	t.Helper()
	srv := ldapserver.NewServer(g)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := ldapclient.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// applyAction services trapped events against the DIT, standing in for the
// Update Manager's write-back (LTAP itself never applies updates).
func applyAction(d *directory.DIT) ActionFunc {
	return func(ev Event) ldap.Result {
		name, err := dn.Parse(ev.DN)
		if err != nil {
			return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: err.Error()}
		}
		switch ev.Kind {
		case EventAdd:
			err = d.Add(name, directory.AttrsFrom(ev.Attrs))
		case EventDelete:
			err = d.Delete(name)
		case EventModify:
			changes := make([]ldap.Change, 0, len(ev.Changes))
			for _, c := range ev.Changes {
				lc, cerr := c.ToLDAP()
				if cerr != nil {
					return ldap.Result{Code: ldap.ResultProtocolError, Message: cerr.Error()}
				}
				changes = append(changes, lc)
			}
			err = d.Modify(name, changes)
		case EventModifyDN:
			newRDN, perr := dn.Parse(ev.NewRDN)
			if perr != nil || newRDN.Depth() != 1 {
				return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: "bad newRDN"}
			}
			err = d.ModifyDN(name, newRDN.RDN(), ev.DeleteOldRDN)
		}
		if err != nil {
			return resultFromErr(err)
		}
		return ldap.Result{Code: ldap.ResultSuccess}
	}
}

// applyingGateway is a gateway whose action records each trapped event and
// then applies it to d.
func applyingGateway(d *directory.DIT) (*Gateway, *recordingAction) {
	rec := &recordingAction{}
	apply := applyAction(d)
	return NewGateway(ldapserver.NewDITClient(d), ActionFunc(func(ev Event) ldap.Result {
		rec.OnUpdate(ev)
		return apply(ev)
	})), rec
}

func replaceReq(name, attr, value string) *ldap.ModifyRequest {
	return &ldap.ModifyRequest{DN: name, Changes: []ldap.Change{{
		Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: attr, Values: []string{value}}}}}
}

// TestBeforeImageFollowsRepeatedWrites: each trap's before-image is the
// previous committed write, read from the directory under the entry's lock.
func TestBeforeImageFollowsRepeatedWrites(t *testing.T) {
	d := testDIT(t)
	g, action := applyingGateway(d)
	conn := &ldapserver.Conn{}
	const name = "cn=John Doe,o=Lucent"
	for i := 1; i <= 5; i++ {
		if res := g.Modify(conn, replaceReq(name, "roomNumber", fmt.Sprintf("2C-%03d", i))); res.Code != ldap.ResultSuccess {
			t.Fatalf("modify %d: %+v", i, res)
		}
	}
	evs := action.all()
	if len(evs) != 5 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Old.Has("roomNumber") {
		t.Errorf("first old image = %v", evs[0].Old)
	}
	for i := 1; i < 5; i++ {
		if got, want := evs[i].Old.First("roomNumber"), fmt.Sprintf("2C-%03d", i); got != want {
			t.Errorf("trap %d old roomNumber = %q, want %q", i+1, got, want)
		}
	}
	if st := g.Stats(); st.BackendFetches != 5 || st.Cache.Hits != 0 || st.Cache.Misses != 0 {
		t.Errorf("stats = %+v, want 5 backend fetches and zero cache counters", st)
	}
}

// TestBeforeImageSeesWritesThatBypassTheGateway: a write straight to the
// directory (a device-originated update the UM applied) and a replicated
// apply are both in the next trap's before-image.
func TestBeforeImageSeesWritesThatBypassTheGateway(t *testing.T) {
	d := testDIT(t)
	action := &recordingAction{}
	g := NewGateway(ldapserver.NewDITClient(d), action)
	conn := &ldapserver.Conn{}
	name := dn.MustParse("cn=John Doe,o=Lucent")

	if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "telephoneNumber", Values: []string{"+1 908 582 7777"}}}}); err != nil {
		t.Fatal(err)
	}
	if res := g.Modify(conn, replaceReq(name.String(), "roomNumber", "2C-401")); res.Code != ldap.ResultSuccess {
		t.Fatalf("modify: %+v", res)
	}
	image := directory.AttrsFrom(map[string][]string{
		"objectClass": {"mcPerson"}, "cn": {"John Doe"}, "sn": {"Doe"},
		"telephoneNumber": {"+1 908 582 8888"}})
	if _, err := d.ApplyRemote(name, image, directory.Stamp{Seq: 1 << 40, Node: 9}, false); err != nil {
		t.Fatal(err)
	}
	if res := g.Modify(conn, replaceReq(name.String(), "roomNumber", "2C-402")); res.Code != ldap.ResultSuccess {
		t.Fatalf("modify: %+v", res)
	}
	evs := action.all()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if got := evs[0].Old.First("telephoneNumber"); got != "+1 908 582 7777" {
		t.Errorf("old telephoneNumber after DIT.Modify = %q", got)
	}
	if got := evs[1].Old.First("telephoneNumber"); got != "+1 908 582 8888" {
		t.Errorf("old telephoneNumber after ApplyRemote = %q", got)
	}
}

// TestBeforeImageFollowsAddAndDelete: an add traps no before-image, the
// next write sees what it added, and after a delete the name is empty again.
func TestBeforeImageFollowsAddAndDelete(t *testing.T) {
	d := testDIT(t)
	g, action := applyingGateway(d)
	conn := &ldapserver.Conn{}
	const name = "cn=Pat Smith,o=Lucent"
	add := &ldap.AddRequest{DN: name, Attributes: []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson"}}, {Type: "sn", Values: []string{"Smith"}}}}
	for i, res := range []ldap.Result{
		g.Add(conn, add),
		g.Modify(conn, replaceReq(name, "roomNumber", "1A")),
		g.Delete(conn, &ldap.DeleteRequest{DN: name}),
		g.Add(conn, add),
	} {
		if res.Code != ldap.ResultSuccess {
			t.Fatalf("op %d: %+v", i, res)
		}
	}
	evs := action.all()
	if evs[0].Old != nil || evs[3].Old != nil {
		t.Errorf("add before-images = %v, %v; want none", evs[0].Old, evs[3].Old)
	}
	if evs[1].Old.First("sn") != "Smith" || evs[1].Old.Has("roomNumber") {
		t.Errorf("modify before-image = %v", evs[1].Old)
	}
	if evs[2].Old.First("roomNumber") != "1A" {
		t.Errorf("delete before-image = %v", evs[2].Old)
	}
}

// TestBeforeImageAfterModifyDN: after a rename the old name has no
// before-image and the new name carries the moved entry.
func TestBeforeImageAfterModifyDN(t *testing.T) {
	d := testDIT(t)
	g, action := applyingGateway(d)
	conn := &ldapserver.Conn{}
	if res := g.ModifyDN(conn, &ldap.ModifyDNRequest{
		DN: "cn=John Doe,o=Lucent", NewRDN: "cn=John Q Doe", DeleteOldRDN: true}); res.Code != ldap.ResultSuccess {
		t.Fatalf("rename: %+v", res)
	}
	if res := g.Modify(conn, replaceReq("cn=John Doe,o=Lucent", "roomNumber", "x")); res.Code == ldap.ResultSuccess {
		t.Error("modify of the old name succeeded after the rename")
	}
	if res := g.Modify(conn, replaceReq("cn=John Q Doe,o=Lucent", "roomNumber", "2C-401")); res.Code != ldap.ResultSuccess {
		t.Fatalf("modify of the new name: %+v", res)
	}
	evs := action.all()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[1].Old != nil {
		t.Errorf("old name's before-image = %v", evs[1].Old)
	}
	if got := evs[2].Old.First("cn"); got != "John Q Doe" || evs[2].Old.First("telephoneNumber") != "+1 908 582 9000" {
		t.Errorf("new name's before-image = %v", evs[2].Old)
	}
}

func TestReadsPassThroughWithoutAction(t *testing.T) {
	d := testDIT(t)
	action := &recordingAction{}
	g := NewGateway(ldapserver.NewDITClient(d), action)
	c := startGateway(t, g)

	entries, err := c.Search(&ldap.SearchRequest{
		BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.Eq("objectClass", "mcPerson"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].First("telephoneNumber") != "+1 908 582 9000" {
		t.Fatalf("entries = %v", entries)
	}
	match, err := c.Compare("cn=John Doe,o=Lucent", "sn", "Doe")
	if err != nil || !match {
		t.Errorf("compare = %v %v", match, err)
	}
	if len(action.all()) != 0 {
		t.Error("reads reached the action server")
	}
}

func TestUpdatesAreTrappedWithOldImage(t *testing.T) {
	d := testDIT(t)
	action := &recordingAction{}
	g := NewGateway(ldapserver.NewDITClient(d), action)
	c := startGateway(t, g)

	if err := c.Modify("cn=John Doe,o=Lucent", []ldap.Change{
		{Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"2C-401"}}},
	}); err != nil {
		t.Fatal(err)
	}
	evs := action.all()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	ev := evs[0]
	if ev.Kind != EventModify || ev.DN != "cn=John Doe,o=Lucent" {
		t.Errorf("event = %+v", ev)
	}
	if ev.Old.First("telephoneNumber") != "+1 908 582 9000" {
		t.Errorf("old image = %v", ev.Old)
	}
	if len(ev.Changes) != 1 || ev.Changes[0].Op != "replace" {
		t.Errorf("changes = %v", ev.Changes)
	}
	// LTAP does NOT apply the update itself — the action (UM) services it.
	e, _ := d.Get(dn.MustParse("cn=John Doe,o=Lucent"))
	if e.Attrs.Has("roomNumber") {
		t.Error("gateway applied the update directly")
	}
}

func TestActionResultPropagatesToClient(t *testing.T) {
	d := testDIT(t)
	action := &recordingAction{result: ldap.Result{Code: ldap.ResultUnwillingToPerform, Message: "nope"}}
	g := NewGateway(ldapserver.NewDITClient(d), action)
	c := startGateway(t, g)
	err := c.Delete("cn=John Doe,o=Lucent")
	if !ldap.IsCode(err, ldap.ResultUnwillingToPerform) {
		t.Errorf("err = %v", err)
	}
}

func TestConflictingUpdatesSerializePerEntry(t *testing.T) {
	d := testDIT(t)
	var active, maxActive atomic.Int32
	action := ActionFunc(func(ev Event) ldap.Result {
		cur := active.Add(1)
		for {
			m := maxActive.Load()
			if cur <= m || maxActive.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		active.Add(-1)
		return ldap.Result{Code: ldap.ResultSuccess}
	})
	g := NewGateway(ldapserver.NewDITClient(d), action)

	conn := &ldapserver.Conn{}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Modify(conn, &ldap.ModifyRequest{
				DN: "cn=John Doe,o=Lucent",
				Changes: []ldap.Change{{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"x"}}}},
			})
		}()
	}
	wg.Wait()
	if maxActive.Load() != 1 {
		t.Errorf("max concurrent actions on one entry = %d, want 1", maxActive.Load())
	}
}

func TestDifferentEntriesProceedConcurrently(t *testing.T) {
	d := testDIT(t)
	if err := d.Add(dn.MustParse("cn=Pat Smith,o=Lucent"), directory.AttrsFrom(map[string][]string{
		"objectClass": {"mcPerson"}, "sn": {"Smith"},
	})); err != nil {
		t.Fatal(err)
	}
	var active, maxActive atomic.Int32
	action := ActionFunc(func(ev Event) ldap.Result {
		cur := active.Add(1)
		for {
			m := maxActive.Load()
			if cur <= m || maxActive.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		active.Add(-1)
		return ldap.Result{Code: ldap.ResultSuccess}
	})
	g := NewGateway(ldapserver.NewDITClient(d), action)
	conn := &ldapserver.Conn{}
	var wg sync.WaitGroup
	for _, name := range []string{"cn=John Doe,o=Lucent", "cn=Pat Smith,o=Lucent"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			g.Modify(conn, &ldap.ModifyRequest{DN: name,
				Changes: []ldap.Change{{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"y"}}}}})
		}(name)
	}
	wg.Wait()
	if maxActive.Load() < 2 {
		t.Errorf("updates to different entries did not overlap (max=%d)", maxActive.Load())
	}
}

func TestQuiesceBlocksUpdatesAllowsReads(t *testing.T) {
	d := testDIT(t)
	action := &recordingAction{}
	g := NewGateway(ldapserver.NewDITClient(d), action)
	if !g.Quiesce() {
		t.Fatal("quiesce failed")
	}
	if g.Quiesce() {
		t.Error("double quiesce succeeded")
	}

	conn := &ldapserver.Conn{}
	done := make(chan ldap.Result, 1)
	go func() {
		done <- g.Delete(conn, &ldap.DeleteRequest{DN: "cn=John Doe,o=Lucent"})
	}()
	select {
	case <-done:
		t.Fatal("update proceeded during quiesce")
	case <-time.After(50 * time.Millisecond):
	}
	// Reads still work during quiesce.
	res := g.Compare(conn, &ldap.CompareRequest{DN: "cn=John Doe,o=Lucent", Attr: "sn", Value: "Doe"})
	if res.Code != ldap.ResultCompareTrue {
		t.Errorf("read during quiesce = %v", res)
	}
	g.Unquiesce()
	select {
	case r := <-done:
		if r.Code != ldap.ResultSuccess {
			t.Errorf("post-quiesce update = %v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update never resumed")
	}
}

func TestQuiesceWaitsForInFlightUpdates(t *testing.T) {
	d := testDIT(t)
	started := make(chan struct{})
	release := make(chan struct{})
	action := ActionFunc(func(ev Event) ldap.Result {
		close(started)
		<-release
		return ldap.Result{Code: ldap.ResultSuccess}
	})
	g := NewGateway(ldapserver.NewDITClient(d), action)
	conn := &ldapserver.Conn{}
	go g.Delete(conn, &ldap.DeleteRequest{DN: "cn=John Doe,o=Lucent"})
	<-started

	quiesced := make(chan struct{})
	go func() {
		g.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("quiesce returned while an update was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-quiesced:
	case <-time.After(2 * time.Second):
		t.Fatal("quiesce never completed")
	}
	g.Unquiesce()
}

func TestQuiesceExtendedOp(t *testing.T) {
	d := testDIT(t)
	g := NewGateway(ldapserver.NewDITClient(d), &recordingAction{})
	c := startGateway(t, g)
	if _, err := c.Extended(OIDQuiesceBegin, nil); err != nil {
		t.Fatal(err)
	}
	if !g.Quiesced() {
		t.Error("extended op did not quiesce")
	}
	if _, err := c.Extended(OIDQuiesceBegin, nil); !ldap.IsCode(err, ldap.ResultUnwillingToPerform) {
		t.Errorf("double quiesce err = %v", err)
	}
	if _, err := c.Extended(OIDQuiesceEnd, nil); err != nil {
		t.Fatal(err)
	}
	if g.Quiesced() {
		t.Error("extended op did not unquiesce")
	}
}

func TestQuiesceRequiresAdminWhenConfigured(t *testing.T) {
	d := testDIT(t)
	g := NewGateway(ldapserver.NewDITClient(d), &recordingAction{})
	g.AdminDN = "cn=um"
	c := startGateway(t, g)
	if _, err := c.Extended(OIDQuiesceBegin, nil); !ldap.IsCode(err, ldap.ResultInsufficientAccess) {
		t.Errorf("anonymous quiesce err = %v", err)
	}
	if err := c.Bind("cn=um", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Extended(OIDQuiesceBegin, nil); err != nil {
		t.Errorf("admin quiesce err = %v", err)
	}
	g.Unquiesce()
}

func TestModifyDNLocksBothNames(t *testing.T) {
	d := testDIT(t)
	inAction := make(chan struct{})
	release := make(chan struct{})
	action := ActionFunc(func(ev Event) ldap.Result {
		if ev.Kind == EventModifyDN {
			close(inAction)
			<-release
		}
		return ldap.Result{Code: ldap.ResultSuccess}
	})
	g := NewGateway(ldapserver.NewDITClient(d), action)
	conn := &ldapserver.Conn{}
	go g.ModifyDN(conn, &ldap.ModifyDNRequest{
		DN: "cn=John Doe,o=Lucent", NewRDN: "cn=John Q Doe", DeleteOldRDN: true})
	<-inAction

	// An update to the NEW name must block while the rename is processing.
	done := make(chan struct{})
	go func() {
		g.Add(conn, &ldap.AddRequest{DN: "cn=John Q Doe,o=Lucent", Attributes: []ldap.Attribute{
			{Type: "objectClass", Values: []string{"mcPerson"}},
			{Type: "sn", Values: []string{"Doe"}}}})
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("add to target name proceeded during rename")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked add never resumed")
	}
}

func TestRemoteActionRoundTrip(t *testing.T) {
	action := &recordingAction{}
	srv := NewActionServer(action)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	remote, err := DialAction(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })

	// A sequence of updates flows over ONE persistent connection.
	for i := 1; i <= 5; i++ {
		res := remote.OnUpdate(Event{ID: uint64(i), Kind: EventModify, DN: "cn=x"})
		if res.Code != ldap.ResultSuccess {
			t.Fatalf("event %d: %v", i, res)
		}
	}
	evs := action.all()
	if len(evs) != 5 {
		t.Fatalf("server saw %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.ID != uint64(i+1) {
			t.Errorf("event order broken: %v", evs)
		}
	}
}

func TestRemoteActionThroughGateway(t *testing.T) {
	d := testDIT(t)
	action := &recordingAction{}
	srv := NewActionServer(action)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	remote, err := DialAction(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })

	g := NewGateway(ldapserver.NewDITClient(d), remote)
	c := startGateway(t, g)
	if err := c.Modify("cn=John Doe,o=Lucent", []ldap.Change{
		{Op: ldap.ModAdd, Attribute: ldap.Attribute{Type: "mail", Values: []string{"jd@lucent.com"}}},
	}); err != nil {
		t.Fatal(err)
	}
	evs := action.all()
	if len(evs) != 1 || evs[0].Old == nil {
		t.Fatalf("remote events = %+v", evs)
	}
	if evs[0].Old.First("sn") != "Doe" {
		t.Error("old image lost over the wire")
	}
}

func TestRemoteActionUnavailable(t *testing.T) {
	action := &recordingAction{}
	srv := NewActionServer(action)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := DialAction(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	srv.Close()
	res := remote.OnUpdate(Event{ID: 1, Kind: EventModify, DN: "cn=x"})
	if res.Code != ldap.ResultUnavailable {
		t.Errorf("res = %+v", res)
	}
}
