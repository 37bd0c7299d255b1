package metacomm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	metacomm "metacomm"
	"metacomm/internal/ldap"
)

// TestConvergenceSoak hammers the same small population from three origins
// at once — LDAP clients, a PBX craft terminal, and a voicemail console —
// then stops and verifies the paper's core guarantee: every repository
// converges to the same values (relaxed write-write consistency, §4).
func TestConvergenceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	s := startSystem(t, metacomm.Config{})
	setup := client(t, s)

	const people = 6
	for i := 0; i < people; i++ {
		err := setup.Add(fmt.Sprintf("cn=Soak %d,o=Lucent", i), []ldap.Attribute{
			{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
			{Type: "cn", Values: []string{fmt.Sprintf("Soak %d", i)}},
			{Type: "sn", Values: []string{fmt.Sprintf("S%d", i)}},
			{Type: "definityExtension", Values: []string{fmt.Sprintf("2-70%02d", i)}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// LDAP writers.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := s.Client()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dn := fmt.Sprintf("cn=Soak %d,o=Lucent", rng.Intn(people))
				conn.Modify(dn, []ldap.Change{{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber",
						Values: []string{fmt.Sprintf("L%d-%d", w, i)}}}})
			}
		}(w)
	}
	// A switch administrator making direct device updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		admin, err := s.PBXAdmin("soak-craft")
		if err != nil {
			t.Error(err)
			return
		}
		defer admin.Close()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ext := fmt.Sprintf("2-70%02d", rng.Intn(people))
			rec, err := admin.Get(ext)
			if err != nil {
				continue // mid-migration; retry another station
			}
			rec.Set("Room", fmt.Sprintf("D-%d", i))
			admin.Modify(ext, rec)
		}
	}()

	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()

	// Quiescence: wait until the UM stops processing (DDU echoes drain).
	var last uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := s.UM.Stats().UpdatesProcessed
		if cur == last {
			break
		}
		last = cur
		if time.Now().After(deadline) {
			t.Fatal("UM never quiesced")
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Convergence check: every person's directory state matches the PBX.
	entries, err := setup.Search(&ldap.SearchRequest{
		BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.Present("definityExtension"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != people {
		t.Fatalf("directory has %d PBX users, want %d", len(entries), people)
	}
	for _, e := range entries {
		ext := e.First("definityExtension")
		station, err := s.PBX.Store.Get(ext)
		if err != nil {
			t.Errorf("station %s missing: %v", ext, err)
			continue
		}
		if got, want := station.First("room"), e.First("roomNumber"); got != want {
			t.Errorf("%s diverged: PBX room=%q directory room=%q", ext, got, want)
		}
		if got, want := station.First("name"), e.First("cn"); !strings.EqualFold(got, want) {
			t.Errorf("%s name diverged: %q vs %q", ext, got, want)
		}
	}
	stats := s.UM.Stats()
	t.Logf("soak: %d updates processed, %d device applies, %d reapplies, %d errors logged",
		stats.UpdatesProcessed, stats.DeviceApplies, stats.Reapplies, stats.ErrorsLogged)
}

// TestDeviceFlapChaosSoak runs the outbox's chaos scenario: a 95/5
// read/write workload (one writer per person, so each person's last
// accepted write is well defined) while both devices flap up and down on a
// seeded random schedule. When the flapping stops, the test asserts the
// paper's guarantee end to end: the outbox backlog drains to zero, no
// update that the directory accepted is lost, and directory, PBX, and
// messaging platform converge three ways. The outbox runs its shipped
// retry policy. The RNG seed is logged so a failing schedule can be
// replayed exactly.
func TestDeviceFlapChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	seed := time.Now().UnixNano()
	t.Logf("chaos seed: %d", seed)

	s := startSystem(t, metacomm.Config{})
	setup := client(t, s)

	const people = 6
	for i := 0; i < people; i++ {
		err := setup.Add(fmt.Sprintf("cn=Flap %d,o=Lucent", i), []ldap.Attribute{
			{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
			{Type: "cn", Values: []string{fmt.Sprintf("Flap %d", i)}},
			{Type: "sn", Values: []string{fmt.Sprintf("F%d", i)}},
			{Type: "definityExtension", Values: []string{fmt.Sprintf("2-71%02d", i)}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Flapper: both devices go down and come back on a seeded schedule.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		stores := []interface{ SetDown(bool) }{s.PBX.Store, s.MP.Store}
		down := make([]bool, len(stores))
		for {
			select {
			case <-stop:
				for _, st := range stores {
					st.SetDown(false)
				}
				return
			case <-time.After(time.Duration(2+rng.Intn(8)) * time.Millisecond):
				i := rng.Intn(len(stores))
				down[i] = !down[i]
				stores[i].SetDown(down[i])
			}
		}
	}()

	// One writer per person: 95% reads, 5% writes. lastRoom records the
	// newest write the gateway accepted — the value nothing may lose.
	lastRoom := make([]string, people)
	for p := 0; p < people; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			conn, err := s.Client()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			rng := rand.New(rand.NewSource(seed + int64(p) + 1))
			dn := fmt.Sprintf("cn=Flap %d,o=Lucent", p)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(100) < 95 {
					conn.Search(&ldap.SearchRequest{
						BaseDN: dn, Scope: ldap.ScopeBaseObject,
					})
					continue
				}
				room := fmt.Sprintf("C%d-%d", p, i)
				err := conn.Modify(dn, []ldap.Change{{Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{room}}}})
				if err == nil {
					lastRoom[p] = room
				}
			}
		}(p)
	}

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Devices are back up; the backlog must drain and the UM quiesce.
	deadline := time.Now().Add(15 * time.Second)
	var last uint64
	for {
		cur := s.UM.Stats().UpdatesProcessed
		if s.UM.OutboxBacklog() == 0 && cur == last {
			break
		}
		last = cur
		if time.Now().After(deadline) {
			t.Fatalf("never quiesced: backlog=%d", s.UM.OutboxBacklog())
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Three-way convergence, and zero lost updates: the directory holds the
	// last accepted write, and both devices hold the directory's state.
	for p := 0; p < people; p++ {
		dn := fmt.Sprintf("cn=Flap %d,o=Lucent", p)
		entries, err := setup.Search(&ldap.SearchRequest{
			BaseDN: dn, Scope: ldap.ScopeBaseObject,
		})
		if err != nil || len(entries) != 1 {
			t.Fatalf("person %d: %v (%d entries)", p, err, len(entries))
		}
		e := entries[0]
		if want := lastRoom[p]; want != "" && e.First("roomNumber") != want {
			t.Errorf("person %d: accepted write lost: directory room=%q, last accepted=%q",
				p, e.First("roomNumber"), want)
		}
		ext := e.First("definityExtension")
		station, err := s.PBX.Store.Get(ext)
		if err != nil {
			t.Errorf("person %d: station %s missing: %v", p, ext, err)
			continue
		}
		if got, want := station.First("room"), e.First("roomNumber"); got != want {
			t.Errorf("person %d: PBX diverged: room=%q directory=%q", p, got, want)
		}
		mbox := e.First("mailboxNumber")
		if mbox == "" {
			t.Errorf("person %d: no derived mailbox", p)
			continue
		}
		vm, err := s.MP.Store.Get(mbox)
		if err != nil {
			t.Errorf("person %d: mailbox %s missing: %v", p, mbox, err)
			continue
		}
		if got, want := vm.First("name"), e.First("cn"); !strings.EqualFold(got, want) {
			t.Errorf("person %d: messaging platform diverged: name=%q cn=%q", p, got, want)
		}
	}
	for _, obs := range s.UM.OutboxStats() {
		t.Logf("outbox %s: breaker=%s enqueued=%d drained=%d deferred=%d retries=%d repairs=%d dropped=%d trips=%d",
			obs.Device, obs.Breaker, obs.Enqueued, obs.Drained, obs.Deferred,
			obs.Retries, obs.Repairs, obs.Dropped, obs.Trips)
		if obs.Dropped != 0 {
			t.Errorf("outbox %s dropped %d updates during a pure-outage chaos run", obs.Device, obs.Dropped)
		}
	}
}
