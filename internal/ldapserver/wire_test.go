package ldapserver

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/mcschema"
)

// startWireServer brings up a DIT server and returns it together with its
// address, so tests can open raw connections and inspect wire counters.
// maxMsg is applied before Start (the field is read by connection
// goroutines and must not change once serving); 0 keeps the default.
func startWireServer(t testing.TB, maxMsg int) (*Server, string) {
	t.Helper()
	d := directory.New(mcschema.New())
	srv := NewServer(NewDITHandler(d))
	srv.MaxMessageSize = maxMsg
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr.String()
}

// TestOversizeRequestRejected sends a message declaring a length over the
// server's limit and expects the LDAP unsolicited notice of disconnection
// with protocolError, then a closed connection — and no attempt to read or
// allocate the declared content.
func TestOversizeRequestRejected(t *testing.T) {
	srv, addr := startWireServer(t, 1<<16) // 64 KB limit for the test

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// SEQUENCE, long-form length declaring 16 MB of content. Only the header
	// is sent; a server that tried to read the content would block and time
	// the test out instead of answering.
	if _, err := nc.Write([]byte{0x30, 0x84, 0x01, 0x00, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := ldap.NewReader(nc)
	msg, err := rd.ReadMessage()
	if err != nil {
		t.Fatalf("reading unsolicited notice: %v", err)
	}
	if msg.ID != 0 {
		t.Errorf("notice message ID = %d, want 0", msg.ID)
	}
	ext, ok := msg.Op.(*ldap.ExtendedResponse)
	if !ok {
		t.Fatalf("notice op = %T, want ExtendedResponse", msg.Op)
	}
	if ext.Name != ldap.NoticeOfDisconnection {
		t.Errorf("notice OID = %q, want %q", ext.Name, ldap.NoticeOfDisconnection)
	}
	if ext.Result.Code != ldap.ResultProtocolError {
		t.Errorf("notice code = %v, want protocolError", ext.Result.Code)
	}
	// The server closes the connection after the notice.
	if _, err := rd.ReadMessage(); err != io.EOF {
		t.Errorf("read after notice = %v, want EOF", err)
	}
	if got := srv.WireStats().OversizeRejected; got != 1 {
		t.Errorf("OversizeRejected = %d, want 1", got)
	}
}

// TestOversizeDefaultLimit checks the default 4 MB bound applies without any
// configuration.
func TestOversizeDefaultLimit(t *testing.T) {
	_, addr := startWireServer(t, 0)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Declares 8 MB, over the 4 MB default.
	if _, err := nc.Write([]byte{0x30, 0x84, 0x00, 0x80, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := ldap.NewReader(nc)
	msg, err := rd.ReadMessage()
	if err != nil {
		t.Fatalf("reading unsolicited notice: %v", err)
	}
	ext, ok := msg.Op.(*ldap.ExtendedResponse)
	if !ok || ext.Result.Code != ldap.ResultProtocolError {
		t.Fatalf("notice = %#v, want protocolError extended response", msg.Op)
	}
}

// TestMalformedRequestGetsNotice sends a complete message whose ID is out of
// RFC 4511's range (2^31) and expects the notice of disconnection with
// protocolError, then a closed connection, rather than an answer to a
// wrapped ID or a silent close.
func TestMalformedRequestGetsNotice(t *testing.T) {
	srv, addr := startWireServer(t, 0)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// SEQUENCE { INTEGER 2^31, [APPLICATION 10] "cn=x" } — a delete request.
	msg := []byte{0x30, 0x0d, 0x02, 0x05, 0x00, 0x80, 0x00, 0x00, 0x00, 0x4a, 0x04, 'c', 'n', '=', 'x'}
	if _, err := nc.Write(msg); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	rd := ldap.NewReader(nc)
	notice, err := rd.ReadMessage()
	if err != nil {
		t.Fatalf("reading unsolicited notice: %v", err)
	}
	ext, ok := notice.Op.(*ldap.ExtendedResponse)
	if notice.ID != 0 || !ok || ext.Name != ldap.NoticeOfDisconnection || ext.Result.Code != ldap.ResultProtocolError {
		t.Fatalf("got id %d %#v, want the notice of disconnection with protocolError", notice.ID, notice.Op)
	}
	if _, err := rd.ReadMessage(); err != io.EOF {
		t.Errorf("read after notice = %v, want EOF", err)
	}
	if got := srv.WireStats().OversizeRejected; got != 0 {
		t.Errorf("OversizeRejected = %d, want 0", got)
	}
}

// TestPipelinedResponsesCoalesce sends a burst of requests in one client
// write and checks the server answered them in far fewer buffer flushes than
// responses — the per-connection pipelining payoff.
func TestPipelinedResponsesCoalesce(t *testing.T) {
	srv, addr := startWireServer(t, 0)
	c, err := ldapclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Add("o=Lucent", []ldap.Attribute{
		{Type: "objectClass", Values: []string{"organization"}}}); err != nil {
		t.Fatal(err)
	}

	const k = 64
	before := srv.WireStats()
	ops := make([]ldap.Op, k)
	for i := range ops {
		ops[i] = &ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeBaseObject}
	}
	for i, r := range c.Pipeline(ops) {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
		if len(r.Entries) != 1 {
			t.Fatalf("op %d: %d entries", i, len(r.Entries))
		}
	}
	after := srv.WireStats()
	// Each base search is an entry plus a done: 2k responses total.
	if got := after.ResponsesWritten - before.ResponsesWritten; got != 2*k {
		t.Errorf("responses = %d, want %d", got, 2*k)
	}
	// The whole burst arrives in one client write, so the server should
	// answer it in a handful of flushes, not one per request. The bound is
	// deliberately loose: TCP may split the burst across segments.
	if got := after.Flushes - before.Flushes; got > k/2 {
		t.Errorf("flushes = %d for %d pipelined requests; coalescing broken", got, k)
	}
}

// TestServerEchoAllocs guards the per-request allocation count of the full
// round trip (client encode, server decode, handler, response encode, client
// decode) against regression. The bound is process-wide and generous; the
// zero-copy decode path keeps the steady state well under it.
func TestServerEchoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	_, addr := startWireServer(t, 0)
	c, err := ldapclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Add("o=Lucent", []ldap.Attribute{
		{Type: "objectClass", Values: []string{"organization"}}}); err != nil {
		t.Fatal(err)
	}
	req := &ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeBaseObject}
	// Warm both ends' reusable buffers.
	for i := 0; i < 16; i++ {
		if _, err := c.Search(req); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := c.Search(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("allocs/roundtrip (process-wide) = %.1f", perOp)
	// Measured ~103 with the zero-copy reader on both ends (decode itself is
	// allocation-free; what remains is request/response construction and the
	// client's owned Entry copies). The pre-reader decode paths added ~46 on
	// top, so 160 catches a reintroduced per-message decode allocation while
	// riding out scheduler noise.
	if perOp > 160 {
		t.Errorf("allocs/roundtrip = %.1f, want <= 160", perOp)
	}
}
