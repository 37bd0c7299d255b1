package ltap

import (
	"sync"
	"testing"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapserver"
)

// firedLog collects trigger invocations.
type firedLog struct {
	mu    sync.Mutex
	calls []Event
}

func (l *firedLog) fn(ev Event, res ldap.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, ev)
}

func (l *firedLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.calls)
}

func okAction() Action {
	return ActionFunc(func(Event) ldap.Result { return ldap.Result{Code: ldap.ResultSuccess} })
}

func failAction() Action {
	return ActionFunc(func(Event) ldap.Result {
		return ldap.Result{Code: ldap.ResultUnwillingToPerform}
	})
}

func modify(g *Gateway, name string) ldap.Result {
	return g.Modify(&ldapserver.Conn{}, &ldap.ModifyRequest{
		DN: name,
		Changes: []ldap.Change{{Op: ldap.ModReplace,
			Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"x"}}}},
	})
}

func TestTriggerFiresOnMatchingUpdate(t *testing.T) {
	g := NewGateway(ldapserver.NewDITClient(testDIT(t)), okAction())
	log := &firedLog{}
	g.RegisterTrigger(dn.MustParse("o=Lucent"), []EventKind{EventModify}, log.fn)

	modify(g, "cn=John Doe,o=Lucent")
	g.WaitTriggers()
	if log.count() != 1 {
		t.Fatalf("fired %d times", log.count())
	}
	// Wrong kind: a delete does not fire a modify trigger.
	g.Delete(&ldapserver.Conn{}, &ldap.DeleteRequest{DN: "cn=John Doe,o=Lucent"})
	g.WaitTriggers()
	if log.count() != 1 {
		t.Fatalf("delete fired a modify trigger")
	}
}

func TestTriggerSubtreeScoping(t *testing.T) {
	g := NewGateway(ldapserver.NewDITClient(testDIT(t)), okAction())
	log := &firedLog{}
	g.RegisterTrigger(dn.MustParse("o=SomewhereElse"), nil, log.fn)
	modify(g, "cn=John Doe,o=Lucent")
	g.WaitTriggers()
	if log.count() != 0 {
		t.Fatal("out-of-scope trigger fired")
	}
}

func TestTriggerAllKindsAndWholeTree(t *testing.T) {
	g := NewGateway(ldapserver.NewDITClient(testDIT(t)), okAction())
	log := &firedLog{}
	g.RegisterTrigger(dn.DN{}, nil, log.fn)
	modify(g, "cn=John Doe,o=Lucent")
	g.Delete(&ldapserver.Conn{}, &ldap.DeleteRequest{DN: "cn=John Doe,o=Lucent"})
	g.WaitTriggers()
	if log.count() != 2 {
		t.Fatalf("fired %d times, want 2", log.count())
	}
}

func TestTriggerSkipsFailuresUnlessRequested(t *testing.T) {
	g := NewGateway(ldapserver.NewDITClient(testDIT(t)), failAction())
	normal := &firedLog{}
	audit := &firedLog{}
	g.RegisterTrigger(dn.DN{}, nil, normal.fn)
	g.RegisterFailureTrigger(dn.DN{}, nil, audit.fn)
	modify(g, "cn=John Doe,o=Lucent")
	g.WaitTriggers()
	if normal.count() != 0 {
		t.Error("normal trigger fired on failure")
	}
	if audit.count() != 1 {
		t.Error("failure trigger did not fire")
	}
}

func TestUnregisterTrigger(t *testing.T) {
	g := NewGateway(ldapserver.NewDITClient(testDIT(t)), okAction())
	log := &firedLog{}
	id := g.RegisterTrigger(dn.DN{}, nil, log.fn)
	if !g.UnregisterTrigger(id) {
		t.Fatal("unregister failed")
	}
	if g.UnregisterTrigger(id) {
		t.Fatal("double unregister succeeded")
	}
	modify(g, "cn=John Doe,o=Lucent")
	g.WaitTriggers()
	if log.count() != 0 {
		t.Fatal("unregistered trigger fired")
	}
}

func TestTriggerSeesEventDetails(t *testing.T) {
	g := NewGateway(ldapserver.NewDITClient(testDIT(t)), okAction())
	log := &firedLog{}
	g.RegisterTrigger(dn.DN{}, nil, log.fn)
	modify(g, "cn=John Doe,o=Lucent")
	g.WaitTriggers()
	ev := log.calls[0]
	if ev.Kind != EventModify || ev.DN != "cn=John Doe,o=Lucent" {
		t.Errorf("event = %+v", ev)
	}
	if ev.Old == nil || ev.Old.First("telephoneNumber") == "" {
		t.Error("trigger event missing old image")
	}
}
