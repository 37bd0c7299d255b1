package ldapserver

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/mcschema"
)

// requireParking skips where connections cannot park (no epoll set).
func requireParking(t testing.TB) {
	t.Helper()
	p, err := newParkSet()
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Skip("idle connections do not park on this platform")
	}
	p.close()
}

// withParkAfter sets the idle interval for the rest of the test. Call it
// before starting servers: cleanups run last-registered first, so the
// servers are closed before the interval is restored.
func withParkAfter(t testing.TB, d time.Duration) {
	t.Helper()
	old := parkAfter
	parkAfter = d
	t.Cleanup(func() { parkAfter = old })
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEpollAcceptLoopSuite re-runs the server suite — end-to-end ops, auth,
// schema errors, pipelining coalescing, oversize notice-of-disconnection,
// panic recovery — with parkAfter = 0: a connection parks in the epoll set
// whenever it has nothing buffered, so every request crosses a park and a
// wake. TestAuthRequiredForUpdates then shows the bound DN survives a park.
// (The test keeps the name it had when it ran the suite on the epoll accept
// loop this path replaced.)
func TestEpollAcceptLoopSuite(t *testing.T) {
	requireParking(t)
	withParkAfter(t, 0)
	for name, fn := range map[string]func(*testing.T){
		"EndToEndAddSearch":          TestEndToEndAddSearch,
		"EndToEndModifyDeleteDN":     TestEndToEndModifyDeleteModifyDN,
		"CompareOverWire":            TestCompareOverWire,
		"AuthRequiredForUpdates":     TestAuthRequiredForUpdates,
		"SchemaViolations":           TestSchemaViolationsSurfaceOverWire,
		"AttributeSelection":         TestAttributeSelection,
		"InvalidDN":                  TestInvalidDNSurfacesCleanly,
		"ManyClientsConcurrently":    TestManyClientsConcurrently,
		"UnknownExtendedOp":          TestUnknownExtendedOp,
		"SizeLimitPartialResults":    TestSizeLimitReturnsPartialResults,
		"OversizeRequestRejected":    TestOversizeRequestRejected,
		"OversizeDefaultLimit":       TestOversizeDefaultLimit,
		"PipelinedResponsesCoalesce": TestPipelinedResponsesCoalesce,
		"HandlerPanicRecovery":       TestHandlerPanicBecomesOperationsError,
		"ParksBetweenRequests":       testParksBetweenRequests,
	} {
		t.Run(name, fn)
	}
}

// testParksBetweenRequests checks the suite above really parks: between
// requests the connection sits in the park set, and each request wakes it.
func testParksBetweenRequests(t *testing.T) {
	srv, addr := startWireServer(t, 0)
	c, err := ldapclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		waitFor(t, 5*time.Second, "the connection to park", func() bool { return srv.WireStats().Parked == 1 })
		_, err := c.Search(&ldap.SearchRequest{BaseDN: "o=Nowhere", Scope: ldap.ScopeBaseObject})
		if !ldap.IsCode(err, ldap.ResultNoSuchObject) {
			t.Fatalf("search %d: err = %v, want noSuchObject", i, err)
		}
	}
	if got := srv.WireStats().MessagesRead; got != 5 {
		t.Errorf("messages read = %d, want 5", got)
	}
}

// TestTornFramesAcrossEvents drips a request a few bytes at a time, with a
// settle pause between segments, and expects a correct response: the server
// reassembles a request that arrives over many reads.
func TestTornFramesAcrossEvents(t *testing.T) {
	_, addr := startWireServer(t, 0)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	req := encodeMsg(1, &ldap.SearchRequest{BaseDN: "o=Nowhere", Scope: ldap.ScopeBaseObject})
	for i := 0; i < len(req); i += 3 {
		if _, err := nc.Write(req[i:min(i+3, len(req))]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	expectNoSuchObject(t, ldap.NewReader(nc), nc, 1)
}

// expectNoSuchObject reads one response and requires it to be the
// noSuchObject SearchResultDone for message id.
func expectNoSuchObject(t testing.TB, rd *ldap.Reader, nc net.Conn, id int32) {
	t.Helper()
	if err := readNoSuchObject(rd, nc, id); err != nil {
		t.Fatal(err)
	}
}

func readNoSuchObject(rd *ldap.Reader, nc net.Conn, id int32) error {
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := rd.ReadMessage()
	if err != nil {
		return fmt.Errorf("reading response %d: %w", id, err)
	}
	done, ok := msg.Op.(*ldap.SearchResultDone)
	if msg.ID != id || !ok || done.Result.Code != ldap.ResultNoSuchObject {
		return fmt.Errorf("response = id %d %#v, want id %d noSuchObject SearchResultDone", msg.ID, msg.Op, id)
	}
	return nil
}

// TestTornRequestAcrossIdleInterval sends a request in pieces with pauses of
// several idle intervals between them — after its first byte, inside its
// header, inside its content. A connection holding part of a request must
// not park (the reader cannot resume a message after a read error), so the
// request is answered, not dropped; once answered, the idle connection
// parks, and a parked connection answers too.
func TestTornRequestAcrossIdleInterval(t *testing.T) {
	requireParking(t)
	const ivl = 5 * time.Millisecond
	withParkAfter(t, ivl)
	srv, addr := startWireServer(t, 0)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rd := ldap.NewReader(nc)
	req := encodeMsg(1, &ldap.SearchRequest{BaseDN: "o=Nowhere", Scope: ldap.ScopeBaseObject})
	prev := 0
	for _, cut := range []int{1, 3, 7, len(req)} {
		if _, err := nc.Write(req[prev:cut]); err != nil {
			t.Fatal(err)
		}
		prev = cut
		if cut < len(req) {
			time.Sleep(6 * ivl)
			if p := srv.WireStats().Parked; p != 0 {
				t.Fatalf("parked = %d after %d of %d request bytes; a connection holding part of a request must not park", p, cut, len(req))
			}
		}
	}
	expectNoSuchObject(t, rd, nc, 1)

	waitFor(t, 5*time.Second, "the idle connection to park", func() bool { return srv.WireStats().Parked == 1 })
	if _, err := nc.Write(encodeMsg(2, &ldap.SearchRequest{BaseDN: "o=Nowhere", Scope: ldap.ScopeBaseObject})); err != nil {
		t.Fatal(err)
	}
	expectNoSuchObject(t, rd, nc, 2)
}

// TestParkWakeRace runs clients that pause for random gaps around the idle
// interval — some shorter than a sweep, some long enough to park — before
// each request, sometimes pipelining two requests and sometimes tearing one
// across a pause. Under -race this races the sweep's interrupt against
// arriving requests, parking against waking, and a woken goroutine against
// the one that parked; every request must be answered, in order.
func TestParkWakeRace(t *testing.T) {
	requireParking(t)
	const ivl = 2 * time.Millisecond
	withParkAfter(t, ivl)
	srv, addr := startWireServer(t, 0)

	const clients, rounds = 8, 60
	var wg sync.WaitGroup
	var mu sync.Mutex
	sent := 0
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k)))
			gap := func() { time.Sleep(time.Duration(rng.Int63n(int64(3 * ivl)))) }
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer nc.Close()
			rd := ldap.NewReader(nc)
			id, n := int32(0), 0
			for r := 0; r < rounds; r++ {
				gap()
				var burst []byte
				first := id + 1
				for j := 0; j < 1+rng.Intn(2); j++ {
					id++
					burst = append(burst, encodeMsg(id, &ldap.SearchRequest{
						BaseDN: "o=Nowhere", Scope: ldap.ScopeBaseObject})...)
				}
				if rng.Intn(4) == 0 {
					cut := 1 + rng.Intn(len(burst)-1)
					if _, err := nc.Write(burst[:cut]); err != nil {
						errs <- err
						return
					}
					gap()
					burst = burst[cut:]
				}
				if _, err := nc.Write(burst); err != nil {
					errs <- err
					return
				}
				for want := first; want <= id; want++ {
					if err := readNoSuchObject(rd, nc, want); err != nil {
						errs <- fmt.Errorf("client %d: %w", k, err)
						return
					}
					n++
				}
			}
			mu.Lock()
			sent += n
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.WireStats().MessagesRead; got != uint64(sent) {
		t.Errorf("messages read = %d, want %d", got, sent)
	}
}

// TestCloseClosesParkedConns parks connections, closes the server, and
// requires every client to see its connection closed, and the goroutine and
// descriptor counts to return to where they were before the server started.
func TestCloseClosesParkedConns(t *testing.T) {
	requireParking(t)
	withParkAfter(t, 0)
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	baseG, baseFD := runtime.NumGoroutine(), fds()

	srv := NewServer(NewDITHandler(directory.New(mcschema.New())))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var conns []net.Conn
	defer func() {
		for _, nc := range conns {
			nc.Close()
		}
	}()
	for i := 0; i < n; i++ {
		nc, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, nc)
		if _, err := nc.Write(encodeMsg(1, &ldap.SearchRequest{BaseDN: "o=Nowhere", Scope: ldap.ScopeBaseObject})); err != nil {
			t.Fatal(err)
		}
		expectNoSuchObject(t, ldap.NewReader(nc), nc, 1)
	}
	waitFor(t, 5*time.Second, "every connection to park", func() bool { return srv.WireStats().Parked == n })

	srv.Close()
	if p := srv.WireStats().Parked; p != 0 {
		t.Errorf("parked = %d after Close", p)
	}
	for i, nc := range conns {
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var b [1]byte
		if _, err := nc.Read(b[:]); !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isReset(err) {
			t.Fatalf("conn %d: read after Close = %v, want EOF", i, err)
		}
		nc.Close()
	}
	conns = nil
	waitFor(t, 5*time.Second, fmt.Sprintf("goroutines back to %d and descriptors back to %d", baseG, baseFD), func() bool {
		return runtime.NumGoroutine() <= baseG && fds() <= baseFD
	})
}

func isReset(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "read" && !op.Timeout()
}
