package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	metacomm "metacomm"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/lexpress"
)

// startDefault starts MetaComm exactly as shipped: gateway mode, group-commit
// journal, default shards, segments, cache and accept loop, no device
// latency. No tuning flag is set on purpose — a later change to a default
// must show up here.
func startDefault(dataDir string) (*metacomm.System, error) {
	return metacomm.Start(metacomm.Config{DataDir: dataDir})
}

// personImage is person i exactly as MetaComm leaves it after an LDAP add
// with a Definity extension: the closure has derived the telephone number,
// the mailbox and the device names, the messaging platform's generated
// mailbox id has been written back, and the update is stamped "ldap".
func personImage(i int, mailboxID string) *directory.Attrs {
	num := personNumber(i)
	cn := personCN(i)
	return directory.AttrsFrom(map[string][]string{
		"objectClass":       {"mcPerson", "definityUser", "messagingUser"},
		"cn":                {cn},
		"sn":                {fmt.Sprintf("%06d", i)},
		"roomNumber":        {"R0"},
		"telephoneNumber":   {telephoneOf(num)},
		"definityExtension": {extensionOf(num)},
		"definityName":      {cn},
		"mailboxNumber":     {num},
		"mailboxId":         {mailboxID},
		"messagingName":     {cn},
		"lastUpdater":       {"ldap"},
	})
}

// plainImage is a person no device owns (the replicated-pair population).
func plainImage(i int) *directory.Attrs {
	return directory.AttrsFrom(map[string][]string{
		"objectClass": {"mcPerson"},
		"cn":          {personCN(i)},
		"sn":          {fmt.Sprintf("%06d", i)},
		"roomNumber":  {"R0"},
		"mail":        {fmt.Sprintf("p%06d@lucent.example", i)},
	})
}

// seedWorkers is the number of concurrent seeders; group commit shares one
// fsync among whatever they stage together.
const seedWorkers = 64

// seedEach runs seed(i) for i in [0, n) on seedWorkers goroutines and
// returns the first error.
func seedEach(n int, seed func(i int) error) error {
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < seedWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += seedWorkers {
				if err := seed(i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return fmt.Errorf("seeding: %w", err)
	}
	return nil
}

// seedPeople loads n device-backed people straight into the three
// repositories — station, mailbox, directory entry — bypassing the update
// path, which would take ~0.6 ms per person. The images are the ones the
// update path produces; the synchronization audit that ends every run proves
// it (a seeded entry that differed from its device records would be
// "repaired" there and fail the gate).
func seedPeople(sys *metacomm.System, n int) error {
	return seedEach(n, func(i int) error { return seedPerson(sys, i) })
}

func seedPerson(sys *metacomm.System, i int) error {
	num := personNumber(i)
	cn := personCN(i)
	station := lexpress.NewRecord()
	station.Set("Extension", extensionOf(num))
	station.Set("Name", cn)
	station.Set("Room", "R0")
	// The "metacomm" session is the filters' own: the devices raise no
	// direct-device-update notification for it.
	if _, err := sys.PBX.Store.Add("metacomm", station); err != nil {
		return err
	}
	mailbox := lexpress.NewRecord()
	mailbox.Set("Mailbox", num)
	mailbox.Set("Name", cn)
	stored, err := sys.MP.Store.Add("metacomm", mailbox)
	if err != nil {
		return err
	}
	return sys.DIT.Add(dn.MustParse(personDN(i)), personImage(i, stored.First("MailboxID")))
}

// seedPlain loads n plain people into a directory.
func seedPlain(d *directory.DIT, n int) error {
	return seedEach(n, func(i int) error { return d.Add(dn.MustParse(personDN(i)), plainImage(i)) })
}

// freshHeap collects what the previous instance left behind. A system that
// is started — for the first time or after a crash — starts in a new
// process with an empty heap; the repeats here share one process, and
// without this the discarded instances' garbage would decide when the
// collector runs during the next start (and during the measurement).
func freshHeap() { runtime.GC() }

// setupRepeated runs build several times, each on a fresh directory under base,
// and returns the last system built with the median set-up time: one set-up
// is a single sample of something a page-cache flush can double.
func setupRepeated(base string, times int, build func(dir string) (*metacomm.System, error)) (*metacomm.System, string, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		dir := fmt.Sprintf("%s/data%d", base, i)
		freshHeap()
		t0 := time.Now()
		sys, err := build(dir)
		if err != nil {
			return nil, "", 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == times-1 {
			return sys, dir, median(secs), nil
		}
		sys.Close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", 0, err
		}
	}
}

// recoverRepeated closes sys and cold-starts it on its data directory
// `times` times; each start must replay wantEntries entries (a gate check).
// It returns the last system, left running, and the median start time.
func recoverRepeated(g *gate, sys *metacomm.System, times int, start func() (*metacomm.System, error), wantEntries int) (*metacomm.System, float64, error) {
	var secs []float64
	for i := 0; i < times; i++ {
		sys.Close()
		freshHeap()
		t0 := time.Now()
		var err error
		if sys, err = start(); err != nil {
			return nil, 0, fmt.Errorf("cold start %d: %w", i, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		g.check(sys.DIT.Len() == wantEntries, "cold start %d replayed %d entries, want %d", i, sys.DIT.Len(), wantEntries)
	}
	return sys, median(secs), nil
}

// restartAndFinish ends a single-node workload: cold restarts on the data
// directory the run left, peak memory, and the directory's removal.
func restartAndFinish(rc *runCtx, g *gate, sys **metacomm.System, dataDir string) error {
	restarted, recoverS, err := recoverRepeated(g, *sys, rc.repeats(recoverRepeats),
		func() (*metacomm.System, error) { return startDefault(dataDir) }, (*sys).DIT.Len())
	if err != nil {
		return err
	}
	*sys = restarted
	rc.res.set("recover_s", recoverS, rc.repeats(recoverRepeats), "median cold start on the run's data directory")
	rc.res.set("rss_mb", peakRSSMB(), 0, "VmHWM at workload end")
	return os.RemoveAll(dataDir)
}
