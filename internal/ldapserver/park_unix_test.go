//go:build unix

package ldapserver

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"metacomm/internal/ldap"
)

// TestManyIdleConns holds ~10k connections (bounded by RLIMIT_NOFILE:
// client and server share this process), each of which issues one
// operation and then sits idle. Once the idle interval has passed every one
// of them is parked: the process holds no goroutine per connection and at
// most 2 KB of heap plus stack per connection, client side included. A
// connection kept on its goroutine costs ~23 KB.
func TestManyIdleConns(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-connection smoke")
	}
	requireParking(t)
	// A short interval keeps the ramp's peak (connections not parked yet)
	// small; what a parked connection costs does not depend on it.
	withParkAfter(t, 50*time.Millisecond)
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Cur < rl.Max {
		rl.Cur = rl.Max
		_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
		_ = syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
	// Two fds per connection in-process, plus headroom for the test runner.
	target := min((int(uint64(rl.Cur))-512)/2, 10000)
	if target < 1000 {
		t.Skipf("RLIMIT_NOFILE %d too low for a many-conns smoke", uint64(rl.Cur))
	}

	srv, addr := startWireServer(t, 0)
	// Raw clients: no ldapclient.Conn buffers, so the client side stays
	// cheap and spawns no goroutines.
	req := encodeMsg(1, &ldap.SearchRequest{BaseDN: "o=Nowhere", Scope: ldap.ScopeBaseObject})
	conns := make([]net.Conn, target)
	before := idleFootprint()

	const dialers = 64
	var wg sync.WaitGroup
	errs := make(chan error, dialers)
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := d; i < target; i += dialers {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					errs <- fmt.Errorf("dial: %w", err)
					return
				}
				conns[i] = nc
				if _, err := nc.Write(req); err != nil {
					errs <- fmt.Errorf("write: %w", err)
					return
				}
				if err := readOneMessage(nc); err != nil {
					errs <- fmt.Errorf("read: %w", err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	defer func() {
		for _, nc := range conns {
			if nc != nil {
				nc.Close()
			}
		}
	}()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.WireStats().MessagesRead; got != uint64(target) {
		t.Errorf("messages read = %d, want %d", got, target)
	}
	waitFor(t, 30*time.Second, fmt.Sprintf("%d connections to park", target), func() bool {
		return srv.WireStats().Parked == uint64(target)
	})

	after := idleFootprint()
	heap, stack := after.heap-before.heap, after.stack-before.stack
	per := float64(heap+stack) / float64(target)
	g := runtime.NumGoroutine()
	t.Logf("%d idle conns: heap %.0f B/conn + stack %.0f B/conn = %.0f B/conn; goroutines=%d",
		target, float64(heap)/float64(target), float64(stack)/float64(target), per, g)
	if per > 2048 {
		t.Errorf("idle connection costs %.0f B of heap plus stack, want <= 2048", per)
	}
	if g >= 100 {
		t.Errorf("goroutines = %d with %d idle conns; want < 100", g, target)
	}
}

type footprint struct{ heap, stack int64 }

// idleFootprint reads in-use heap and stack after enough collections to
// empty the buffer pools (a pooled object survives one collection).
func idleFootprint() footprint {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return footprint{heap: int64(ms.HeapInuse), stack: int64(ms.StackInuse)}
}

// readOneMessage consumes one small response frame from nc with a
// throwaway buffer.
func readOneMessage(nc net.Conn) error {
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer nc.SetReadDeadline(time.Time{})
	_, err := ldap.NewReader(nc).ReadMessage()
	return err
}
