package um_test

// Race regression for the UM's observability surface. The WBA status page
// and the shutdown summary call Stats, LastSyncStats, and OutboxStats from
// their own goroutines while shard workers, the outbox drainer, and the
// quiesce barrier are all active; this test pins the locking discipline by
// hammering every reader against a full write load under -race (it runs in
// the race lists of Makefile and scripts/check.sh).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"metacomm/internal/device"
	"metacomm/internal/ltap"
	"metacomm/internal/um"
)

func TestConcurrentStatsReadersUnderLoad(t *testing.T) {
	dir := newFakeDir()
	pbx := device.NewStore("pbx", "Extension")
	pol := fastOutbox()
	pol.BreakerThreshold = 2
	e := startOutboxUM(t, um.Config{Shards: 4}, pol, dir, pbx, nil)

	const writers = 6
	const updates = 40
	dns := make([]string, writers)
	for i := range dns {
		dns[i] = e.addPerson(t, fmt.Sprintf("Race Person %d", i), fmt.Sprintf("2-8%03d", i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Device flapper: the outbox and breaker state churn while readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		down := false
		for {
			select {
			case <-stop:
				pbx.SetDown(false)
				return
			case <-time.After(3 * time.Millisecond):
				down = !down
				pbx.SetDown(down)
			}
		}
	}()

	// Readers: every externally callable observer, concurrently.
	for _, read := range []func(){
		func() { _ = e.u.Stats() },
		func() { _ = e.u.OutboxStats() },
		func() { _ = e.u.OutboxBacklog() },
		func() { _ = e.u.LastSyncStats() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}()
	}

	// Quiescer: exercises the drain barrier against the same state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				if e.u.Quiesce() {
					e.u.Resume()
				}
			}
		}
	}()

	// Writers: each owns one entry, so per-writer Old images are
	// well-defined; busy rejections under quiesce pressure are tolerated.
	var writerWG sync.WaitGroup
	for i, dnStr := range dns {
		writerWG.Add(1)
		go func(i int, dnStr string) {
			defer writerWG.Done()
			for j := 0; j < updates; j++ {
				old := dir.record(dnStr)
				if old == nil {
					t.Errorf("writer %d: entry vanished", i)
					return
				}
				e.u.OnUpdate(ltap.Event{
					Kind: ltap.EventModify, DN: dnStr, Old: old,
					Changes: []ltap.Change{{
						Op: "replace", Attr: "roomNumber",
						Values: []string{fmt.Sprintf("R-%d-%d", i, j)},
					}},
				})
			}
		}(i, dnStr)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	// With the flapper parked up, everything journaled must drain.
	deadline := time.Now().Add(10 * time.Second)
	for e.u.OutboxBacklog() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outbox backlog stuck at %d after load", e.u.OutboxBacklog())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
