package ldapserver

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/ldap"
	"metacomm/internal/mcschema"
)

// TestAcceptLoopDifferential is the wire path's regression corpus. It
// replays one scripted op corpus — pipelined bursts, torn/partial frames, an
// oversize request, mid-op disconnects — against a server at the default
// idle interval, where these connections never park, and against one at
// parkAfter = 0, where every wait parks and every request arrives through
// the park set. The response byte streams must be identical per scenario and
// the op counters identical in total: parking is invisible on the wire. (The
// test keeps the name it had when the two sides were two accept loops.)
func TestAcceptLoopDifferential(t *testing.T) {
	requireParking(t)
	scenarios := differentialScenarios()
	type run struct {
		streams [][]byte
		stats   WireStats
	}
	runMode := func(mode string, after time.Duration) run {
		t.Helper()
		old := parkAfter
		parkAfter = after
		defer func() { parkAfter = old }()
		d := directory.New(mcschema.New())
		srv := NewServer(NewDITHandler(d))
		srv.MaxMessageSize = 1 << 16
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var streams [][]byte
		for _, sc := range scenarios {
			streams = append(streams, sc.play(t, mode, addr.String()))
		}
		// Every scenario's stream ended in EOF, and the server counts before
		// it closes, so the counters are final here.
		return run{streams: streams, stats: srv.WireStats()}
	}

	held := runMode("default", idleInterval)
	parked := runMode("park-every-wait", 0)

	for i, sc := range scenarios {
		if !bytes.Equal(held.streams[i], parked.streams[i]) {
			t.Errorf("scenario %q: response streams differ:\n default interval (%d bytes): %x\n park every wait  (%d bytes): %x",
				sc.name, len(held.streams[i]), held.streams[i], len(parked.streams[i]), parked.streams[i])
		}
	}
	// Flushes are left out: how many a pipelined burst takes depends on how
	// TCP segments it, on either side.
	h, p := held.stats, parked.stats
	h.Flushes, p.Flushes = 0, 0
	if h != p {
		t.Errorf("WireStats differ:\n default interval: %+v\n park every wait:  %+v", h, p)
	}
	if h.MessagesRead == 0 || h.ResponsesWritten == 0 {
		t.Fatalf("corpus exercised nothing: %+v", h)
	}
}

// diffStep is one client action in a scenario script.
type diffStep struct {
	send       []byte
	pause      time.Duration // settle time before the next segment (torn frames)
	closeWrite bool          // half-close after sending: mid-op disconnect
}

type diffScenario struct {
	name  string
	steps []diffStep
}

// play runs the script on a fresh connection and returns everything the
// server sent back until it closed the connection.
func (sc diffScenario) play(t *testing.T, mode, addr string) []byte {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("%s/%s: dial: %v", mode, sc.name, err)
	}
	defer nc.Close()
	for _, st := range sc.steps {
		if len(st.send) > 0 {
			if _, err := nc.Write(st.send); err != nil {
				t.Fatalf("%s/%s: write: %v", mode, sc.name, err)
			}
		}
		if st.pause > 0 {
			time.Sleep(st.pause)
		}
		if st.closeWrite {
			if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatalf("%s/%s: close-write: %v", mode, sc.name, err)
			}
		}
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	stream, err := io.ReadAll(nc)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("%s/%s: read: %v", mode, sc.name, err)
	}
	return stream
}

func encodeMsg(id int32, op ldap.Op) []byte {
	return (&ldap.Message{ID: id, Op: op}).AppendTo(nil)
}

func differentialScenarios() []diffScenario {
	unbind := encodeMsg(99, &ldap.UnbindRequest{})
	baseSearch := encodeMsg(2, &ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeBaseObject})

	// Scenario state carries across the corpus in order (the org added first
	// exists for everything after), so both runs see the same directory.
	var crud []byte
	crud = append(crud, encodeMsg(1, &ldap.AddRequest{DN: "o=Lucent", Attributes: []ldap.Attribute{
		{Type: "objectClass", Values: []string{"organization"}}}})...)
	crud = append(crud, encodeMsg(2, &ldap.AddRequest{DN: "cn=Ann Example,o=Lucent", Attributes: []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson"}},
		{Type: "sn", Values: []string{"Example"}},
		{Type: "telephoneNumber", Values: []string{"+1 908 582 1234"}}}})...)
	crud = append(crud, encodeMsg(3, &ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree})...)
	crud = append(crud, encodeMsg(4, &ldap.CompareRequest{DN: "cn=Ann Example,o=Lucent", Attr: "sn", Value: "Example"})...)
	crud = append(crud, encodeMsg(5, &ldap.ModifyRequest{DN: "cn=Ann Example,o=Lucent", Changes: []ldap.Change{
		{Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: "telephoneNumber", Values: []string{"+1 908 582 5678"}}}}})...)
	crud = append(crud, encodeMsg(6, &ldap.ExtendedRequest{Name: "1.2.3.4.5", Value: []byte("?")})...)
	crud = append(crud, encodeMsg(7, &ldap.DeleteRequest{DN: "cn=Ann Example,o=Lucent"})...)
	crud = append(crud, unbind...)

	var burst []byte
	for i := int32(1); i <= 32; i++ {
		burst = append(burst, encodeMsg(i, &ldap.SearchRequest{
			BaseDN: "o=Lucent", Scope: ldap.ScopeBaseObject})...)
	}
	burst = append(burst, unbind...)

	// A search torn into 3-byte segments with settle pauses: arrives as many
	// separate reads, the first of them through the park set.
	var torn []diffStep
	tornReq := append(append([]byte{}, baseSearch...), unbind...)
	for i := 0; i < len(tornReq); i += 3 {
		end := i + 3
		if end > len(tornReq) {
			end = len(tornReq)
		}
		torn = append(torn, diffStep{send: tornReq[i:end], pause: 2 * time.Millisecond})
	}

	// Pipeline with an unbind in the middle: the op after the unbind must be
	// discarded unserved by both runs.
	var midUnbind []byte
	midUnbind = append(midUnbind, baseSearch...)
	midUnbind = append(midUnbind, unbind...)
	midUnbind = append(midUnbind, encodeMsg(3, &ldap.SearchRequest{
		BaseDN: "o=Lucent", Scope: ldap.ScopeBaseObject})...)

	return []diffScenario{
		{name: "crud", steps: []diffStep{{send: crud}}},
		{name: "pipelined-burst", steps: []diffStep{{send: burst}}},
		{name: "torn-frames", steps: torn},
		{name: "oversize", steps: []diffStep{
			// SEQUENCE declaring 16 MB against the 64 KB limit: unsolicited
			// notice-of-disconnection, then close.
			{send: []byte{0x30, 0x84, 0x01, 0x00, 0x00, 0x00}}}},
		{name: "unbind-mid-pipeline", steps: []diffStep{{send: midUnbind}}},
		{name: "partial-frame-disconnect", steps: []diffStep{
			{send: baseSearch[:4], pause: 5 * time.Millisecond, closeWrite: true}}},
		{name: "complete-op-disconnect", steps: []diffStep{
			{send: baseSearch, closeWrite: true}}},
		{name: "malformed-length", steps: []diffStep{
			{send: []byte{0x30, 0x85, 0x01, 0x02, 0x03, 0x04, 0x05}}}},
	}
}
