package ltap

import (
	"testing"
	"time"

	"metacomm/internal/ldap"
	"metacomm/internal/ldapserver"
)

// TestQuiesceAccounting: the gateway counts quiesce windows, their total
// duration (including an in-progress window), and the updates they delayed —
// the synchronization pass's update-rejection cost made observable.
func TestQuiesceAccounting(t *testing.T) {
	d := testDIT(t)
	g := NewGateway(ldapserver.NewDITClient(d), &recordingAction{})
	if s := g.Stats(); s.Quiesces != 0 || s.QuiesceNs != 0 || s.UpdatesDelayedByQuiesce != 0 {
		t.Fatalf("fresh gateway stats = %+v", s)
	}

	if !g.Quiesce() {
		t.Fatal("quiesce failed")
	}
	conn := &ldapserver.Conn{}
	done := make(chan ldap.Result, 1)
	go func() {
		done <- g.Delete(conn, &ldap.DeleteRequest{DN: "cn=John Doe,o=Lucent"})
	}()
	// Wait until the delete has parked on the quiesce gate.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s := g.Stats(); s.UpdatesDelayedByQuiesce == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delayed update never counted")
		}
		time.Sleep(time.Millisecond)
	}
	mid := g.Stats()
	if mid.Quiesces != 1 {
		t.Errorf("Quiesces = %d, want 1", mid.Quiesces)
	}
	if mid.QuiesceNs == 0 {
		t.Error("in-progress quiesce window not counted")
	}

	g.Unquiesce()
	if r := <-done; r.Code != ldap.ResultSuccess {
		t.Fatalf("post-quiesce update = %+v", r)
	}
	after := g.Stats()
	if after.QuiesceNs < mid.QuiesceNs {
		t.Errorf("QuiesceNs went backward: %d -> %d", mid.QuiesceNs, after.QuiesceNs)
	}

	// A second window bumps the count; the delayed counter is cumulative.
	if !g.Quiesce() {
		t.Fatal("second quiesce failed")
	}
	g.Unquiesce()
	final := g.Stats()
	if final.Quiesces != 2 || final.UpdatesDelayedByQuiesce != 1 {
		t.Errorf("final stats = %+v, want Quiesces=2 UpdatesDelayed=1", final)
	}
}
