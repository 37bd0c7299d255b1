package um_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	metacomm "metacomm"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/lexpress"
)

// benchSyncPeople is the population of BenchmarkSynchronizeAll: every person
// has a PBX station and a mailbox, so one pass audits twice as many device
// records.
const benchSyncPeople = 3000

// seedSyncPerson loads person i straight into the three repositories, in
// the state the update path would leave them, so a pass finds nothing to
// repair: the benchmark times the audit itself.
func seedSyncPerson(b *testing.B, s *metacomm.System, i int) {
	b.Helper()
	num := fmt.Sprintf("0%06d", i)
	cn := fmt.Sprintf("Person %06d", i)
	station := lexpress.NewRecord()
	station.Set("Extension", "3-"+num)
	station.Set("Name", cn)
	station.Set("Room", "R0")
	if _, err := s.PBX.Store.Add("metacomm", station); err != nil {
		b.Fatal(err)
	}
	mailbox := lexpress.NewRecord()
	mailbox.Set("Mailbox", num)
	mailbox.Set("Name", cn)
	stored, err := s.MP.Store.Add("metacomm", mailbox)
	if err != nil {
		b.Fatal(err)
	}
	err = s.DIT.Add(dn.MustParse("cn="+cn+",o=Lucent"), directory.AttrsFrom(map[string][]string{
		"objectClass":       {"mcPerson", "definityUser", "messagingUser"},
		"cn":                {cn},
		"sn":                {fmt.Sprintf("%06d", i)},
		"roomNumber":        {"R0"},
		"telephoneNumber":   {"+1 908 583 " + num},
		"definityExtension": {"3-" + num},
		"definityName":      {cn},
		"mailboxNumber":     {num},
		"mailboxId":         {stored.First("MailboxID")},
		"messagingName":     {cn},
		"lastUpdater":       {"ldap"},
	}))
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSynchronizeAll times one SynchronizeAll pass over a node whose
// devices and directory agree: the snapshot walk, both device dumps, one
// lexpress translation per record and person, and the comparisons. It
// reports device records audited per second and allocations per record.
func BenchmarkSynchronizeAll(b *testing.B) {
	s, err := metacomm.Start(metacomm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < benchSyncPeople; i++ {
		seedSyncPerson(b, s, i)
	}
	var records int
	var elapsed time.Duration
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		start := time.Now()
		stats, err := s.UM.SynchronizeAll()
		elapsed += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		for dev, st := range stats {
			if st.DirectoryMods+st.DirectoryAdds+st.DeviceAdds+st.DeviceMods+st.Errors != 0 {
				b.Fatalf("%s: a pass over an agreeing node changed something: %+v", dev, st)
			}
			records += st.DeviceRecords
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(records)/elapsed.Seconds(), "records/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(records), "allocs/record")
}
