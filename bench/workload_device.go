package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	metacomm "metacomm"
	"metacomm/internal/device"
	"metacomm/internal/lexpress"
)

// device_origin: updates enter at the devices. One administration session
// on the PBX (and one on the messaging platform when C >= 2) changes records
// directly; each change is timed from when it was due until the directory
// commits it, so it covers the device command, the notification, the
// from-device translation, the LTAP trap and the Update Manager. Then 2 000
// PBX records are changed behind MetaComm's back and a synchronization pass
// recovers them.
//
// The latencies come from a stage with ONE update in flight, the sessions
// taking turns; the throughput from a stage where every session runs its own
// closed loop. The Update Manager forwards device notifications one at a
// time, across devices too: two sessions at once complete no more updates
// per second than one (1 380 against 1 480 on the reference box), and each
// update either finds the path free (0.65 ms) or queues behind the other
// session's (1.9 ms). The median of that two-humped distribution sits in the
// gap between the humps and jumped 1.2-1.8 ms from run to run with the
// humps' shares; with one update in flight the distribution has one hump.

const (
	deviceEntries  = 5000
	deviceDiverged = 2000
	// dduRate is the traced run's open-loop rate per session, about a third
	// of what one session sustains in a closed loop on the reference box:
	// the Update Manager forwards one device's notifications one at a time.
	dduRate = 250.0
)

// session is one administration session issuing direct device updates.
type session struct {
	name  string
	conv  device.Converter
	attr  string // the directory attribute the change lands in
	rng   *rand.Rand
	pop   int
	k, of int // this session changes entries congruent to k modulo of
	n     int
	last  map[int]string // entry -> last value visible in the directory
	fails []string
}

// change builds the record for the n-th update of entry i.
func (s *session) change(i int, value string) (key string, rec lexpress.Record) {
	rec = lexpress.NewRecord()
	num := personNumber(i)
	rec.Set("Name", personCN(i))
	if s.name == "pbx" {
		rec.Set("Extension", extensionOf(num))
		rec.Set("Room", value)
		return extensionOf(num), rec
	}
	rec.Set("COS", value)
	return num, rec
}

// issue performs one direct device update that was due at `due` and returns
// its follow record.
func (s *session) issue(f *follower, due int64) *followed {
	s.n++
	// Sessions change disjoint entries, so "the last value" of an entry's
	// attribute is one session's and no two devices race on one entry.
	i := s.rng.Intn(s.pop/s.of)*s.of + s.k
	value := fmt.Sprintf("d-%s-%d", s.name, s.n)
	key, rec := s.change(i, value)
	r := f.expect(value, due)
	if _, err := s.conv.Modify(key, rec); err != nil {
		if len(s.fails) < 5 {
			s.fails = append(s.fails, fmt.Sprintf("%s change %s: %v", s.name, key, err))
		}
		return r
	}
	f.acked(value, f.now())
	s.last[i] = value
	return r
}

// closed issues updates one at a time, each after the previous one is
// visible in the directory, until `until`.
func (s *session) closed(f *follower, until int64) {
	for f.now() < until {
		r := s.issue(f, f.now())
		select {
		case <-r.visible:
		case <-time.After(10 * time.Second):
			return // the stage's wait() reports it
		}
	}
}

// serial issues updates one at a time, the sessions taking turns, each after
// the previous one is visible in the directory, until `until`.
func serial(f *follower, sessions []*session, until int64) {
	for n := 0; f.now() < until; n++ {
		r := sessions[n%len(sessions)].issue(f, f.now())
		select {
		case <-r.visible:
		case <-time.After(10 * time.Second):
			return // the stage's wait() reports it
		}
	}
}

// open issues updates on a Poisson schedule; the device command itself is
// synchronous, so a slow device makes the session late and the wait is
// charged to the updates behind it.
func (s *session) open(f *follower, start int64, dur time.Duration, rate float64, arrivals *rand.Rand) {
	for due := start; ; {
		due += int64(arrivals.ExpFloat64() / rate * float64(time.Second))
		if due >= start+int64(dur) {
			return
		}
		if d := due - f.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		s.issue(f, due)
	}
}

func openSessions(rc *runCtx, sys *metacomm.System, entries int) ([]*session, error) {
	pbxAdmin, err := sys.PBXAdmin("craft")
	if err != nil {
		return nil, err
	}
	sessions := []*session{{name: "pbx", conv: pbxAdmin, attr: "roomNumber"}}
	if rc.conns >= 2 {
		mpAdmin, err := sys.MPAdmin("craft")
		if err != nil {
			pbxAdmin.Close()
			return nil, err
		}
		sessions = append(sessions, &session{name: "msgplat", conv: mpAdmin, attr: "messagingCOS"})
	}
	for k, s := range sessions {
		s.rng = rand.New(rand.NewSource(rc.seed*7919 + int64(k)))
		s.pop, s.last = entries, map[int]string{}
		s.k, s.of = k, len(sessions)
	}
	return sessions, nil
}

// dduStage runs one stage and returns its window: the sessions taking turns
// with one update in flight (oneInFlight), every session's closed loop at
// once (rate 0), or every session's open loop at `rate`.
func dduStage(rc *runCtx, f *follower, sessions []*session, dur time.Duration, rate float64) (from, to int64) {
	from = f.now()
	to = from + int64(dur)
	if rate == oneInFlight {
		serial(f, sessions, to)
	} else {
		var wg sync.WaitGroup
		for k, s := range sessions {
			wg.Add(1)
			go func(k int, s *session) {
				defer wg.Done()
				if rate == 0 {
					s.closed(f, to)
					return
				}
				s.open(f, from, dur, rate, rand.New(rand.NewSource(rc.seed*104729+int64(k))))
			}(k, s)
		}
		wg.Wait()
	}
	if missing := f.wait(10 * time.Second); missing > 0 {
		rc.res.failf("%d direct device updates never reached the directory", missing)
	}
	return from, to
}

// oneInFlight is the dduStage "rate" of the stage in which the sessions take
// turns.
const oneInFlight = -1

// dduReadings turns a stage window into readings: the update's whole way
// (due -> directory commit) is returned, the part after the device's ack is
// reported as ddu_visible_*.
func dduReadings(rc *runCtx, f *follower, from, to int64) latency {
	total, afterAck := f.spans(from, to)
	dur := time.Duration(to - from)
	a := latencyOf(afterAck, dur, rc.short)
	rc.res.set("ddu_visible_p50_us", a.p50, a.n, "device ack -> directory commit")
	rc.res.set("ddu_visible_p99_us", a.p99, a.wins, "device ack -> directory commit; median of 2 s window p99s")
	return latencyOf(total, dur, rc.short)
}

func runDeviceOrigin(rc *runCtx) error {
	r := rc.res
	entries, diverged := deviceEntries, deviceDiverged
	if rc.short {
		entries, diverged = 300, 50
	}
	r.Env.Entries = entries
	r.Env.Rates = map[string]float64{"mid_per_session": dduRate}
	// Seeding 5 000 people takes a third of a second: more repeats are cheap.
	sys, dataDir, setupS, err := setupRepeated(rc.tmp, rc.repeats(2*setupRepeats), buildPeople(entries))
	if err != nil {
		return err
	}
	defer func() { sys.Close() }()
	r.set("setup_s", setupS, rc.repeats(2*setupRepeats), "median; start + seed")

	sessions, err := openSessions(rc, sys, entries)
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range sessions {
			s.conv.Close()
		}
	}()
	f := follow(sys.DIT, time.Now(), "roomNumber", "messagingCOS")
	dduStage(rc, f, sessions, rc.scale(warmup), 0)

	if rc.trace {
		if err := traceDeviceOrigin(rc, sys, f, sessions); err != nil {
			return err
		}
	} else {
		from, to := dduStage(rc, f, sessions, frac(rc.seconds, 0.5), oneInFlight)
		r.primary(dduReadings(rc, f, from, to), "direct device update, issued -> directory commit, one in flight, sessions in turn")

		from, to = dduStage(rc, f, sessions, frac(rc.seconds, 0.5), 0)
		total, _ := f.spans(from, to)
		var done []timed
		for _, t := range total {
			done = append(done, timed{due: t.due + t.lat}) // place each update at its commit
		}
		ops, wins := windowRate(done, to-from)
		r.set("ops_per_s", ops, wins, fmt.Sprintf("median of 0.5 s windows; %d sessions, each a closed loop", len(sessions)))
	}
	f.stop()
	for _, s := range sessions {
		r.Attempted += int64(s.n)
		for _, msg := range s.fails {
			r.failf("%s", msg)
		}
	}

	// Every update's last value must be what the directory listener returns.
	g := &gate{res: r}
	if err := checkSessions(g, sys, sessions); err != nil {
		return err
	}

	// Diverge records behind MetaComm's back (the filters' own session
	// raises no notification), then recover them; three rounds, median.
	rng := rand.New(rand.NewSource(rc.seed))
	var rates []float64
	for round := 0; round < rc.repeats(bulkRepeats); round++ {
		lost := map[int]string{}
		for _, i := range rng.Perm(entries)[:diverged] {
			ext := extensionOf(personNumber(i))
			rec, err := sys.PBX.Store.Get(ext)
			if err != nil {
				return err
			}
			lost[i] = fmt.Sprintf("lost-%d-%d", round, i)
			rec.Set("Room", lost[i])
			if _, err := sys.PBX.Store.Modify("metacomm", ext, rec); err != nil {
				return err
			}
		}
		t0 := time.Now()
		stats, err := sys.UM.SynchronizeAll()
		wall := time.Since(t0).Seconds()
		g.check(err == nil, "recovery synchronization: %v", err)
		g.check(stats["pbx"].DirectoryMods == diverged, "recovery synchronization converged %d entries, want %d: %+v",
			stats["pbx"].DirectoryMods, diverged, stats["pbx"])
		records := 0
		for _, st := range stats {
			records += st.DeviceRecords
		}
		rates = append(rates, float64(records)/wall)
		if err := checkSessions(g, sys, []*session{{name: "pbx", attr: "roomNumber", last: lost}}); err != nil {
			return err
		}
	}
	note := fmt.Sprintf("median; device records reconciled per second by a recovery pass, %d diverged", diverged)
	r.set("sync_entries_per_s", median(rates), len(rates), note)
	r.set("bulk_entries_per_s", median(rates), len(rates), note)
	if rc.trace {
		syncReadings(r, sys)
	}
	// The second pass must find nothing left to do.
	g.audit(sys)
	err = restartAndFinish(rc, g, &sys, dataDir)
	r.Attempted += g.checked
	return err
}

// checkSessions reads every entry the sessions changed and compares the
// attribute with the last value issued.
func checkSessions(g *gate, sys *metacomm.System, sessions []*session) error {
	c, err := sys.DirectoryClient()
	if err != nil {
		return err
	}
	defer c.Close()
	for _, s := range sessions {
		var ids []int
		var dns []string
		for i := range s.last {
			ids = append(ids, i)
			dns = append(dns, personDN(i))
		}
		entries, err := fetch(c, dns)
		if err != nil {
			return err
		}
		for k, i := range ids {
			got := ""
			if entries[k] != nil {
				got = entries[k].First(s.attr)
			}
			g.check(got == s.last[i], "%s: %s = %q after a direct %s update to %q", dns[k], s.attr, got, s.name, s.last[i])
		}
	}
	return nil
}

// windowRate is the median count per second over half-second windows of
// events placed at their due time, over a stage of length dur.
func windowRate(events []timed, dur int64) (float64, int) {
	const width = int64(500 * time.Millisecond)
	full := dur / width
	if full == 0 {
		return float64(len(events)) / (float64(dur) / 1e9), 1
	}
	counts := make([]float64, full)
	for _, e := range events {
		if w := e.due / width; w >= 0 && w < full {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] *= float64(time.Second) / float64(width)
	}
	return median(counts), len(counts)
}
