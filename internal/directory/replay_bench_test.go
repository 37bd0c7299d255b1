package directory

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkReplay measures cold-attach replay of a compacted 8-segment
// journal set and reports per-record decode+apply cost. Attach sizes its
// worker pool from GOMAXPROCS, so `-cpu 1,2` compares sequential and
// parallel replay. This is the unit-level view of experiment E22; the
// bench/ mesh_restart workload has the full-population numbers.
func BenchmarkReplay(b *testing.B) {
	base := filepath.Join(b.TempDir(), "dir.journal")
	d := NewSegmented(nil, 8)
	if _, err := d.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncNone}); err != nil {
		b.Fatal(err)
	}
	const n = 20000
	if err := d.Add(mustDN("o=Lucent"), AttrsFrom(map[string][]string{"objectClass": {"organization"}})); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		attrs := AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {fmt.Sprintf("u%07d", i)},
			"sn": {fmt.Sprintf("User%07d", i)}, "telephoneNumber": {fmt.Sprintf("+1 908 555 %04d", i%10000)},
			"definityExtension": {fmt.Sprintf("%07d", i)}, "mailboxNumber": {fmt.Sprintf("%07d", i)}})
		if err := d.Add(mustDN(fmt.Sprintf("cn=u%07d,o=Lucent", i)), attrs); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := d.CloseJournal(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold := NewSegmented(nil, 8)
		if _, err := cold.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncNone}); err != nil {
			b.Fatal(err)
		}
		if cold.Len() != n+1 {
			b.Fatalf("len %d", cold.Len())
		}
		b.SetBytes(int64(cold.JournalStats().ReplayedBytes))
		if err := cold.CloseJournal(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
}
