package main

import (
	"fmt"
	"time"

	metacomm "metacomm"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
)

// The correctness gate. A run that answers fast and wrong is worthless, so
// every run ends by checking the state it left behind; each failed check is
// a failed operation in the result and the process exits non-zero.

// gate collects check outcomes.
type gate struct {
	checked int64
	res     *result
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.checked++
	if !ok {
		g.res.failf(format, args...)
	}
}

// fetch reads entries by DN from the directory listener, pipelined; a nil
// slot is an entry that does not exist.
func fetch(c *ldapclient.Conn, dns []string) ([]*ldapclient.Entry, error) {
	out := make([]*ldapclient.Entry, len(dns))
	const batch = 64
	for lo := 0; lo < len(dns); lo += batch {
		hi := min(lo+batch, len(dns))
		ops := make([]ldap.Op, 0, hi-lo)
		for _, name := range dns[lo:hi] {
			ops = append(ops, &ldap.SearchRequest{BaseDN: name, Scope: ldap.ScopeBaseObject})
		}
		for i, r := range c.Pipeline(ops) {
			switch {
			case r.Err == nil && len(r.Entries) == 1:
				out[lo+i] = r.Entries[0]
			case ldap.IsCode(r.Err, ldap.ResultNoSuchObject):
			default:
				return nil, fmt.Errorf("reading %s: %d entries, %v", dns[lo+i], len(r.Entries), r.Err)
			}
		}
	}
	return out, nil
}

// checkWrites verifies, for every entry the run wrote, that the last acked
// value of each attribute is what the directory listener returns, and for
// one entry in a hundred that the PBX and the messaging platform hold the
// translated value too. Entries added or deleted by the run are all checked
// in all three repositories.
func (g *gate) checkWrites(sys *metacomm.System, trackers []*tracker, devices bool) error {
	c, err := sys.DirectoryClient()
	if err != nil {
		return err
	}
	defer c.Close()
	for _, t := range trackers {
		var ids []int32
		var dns []string
		for id := range t.entries {
			ids = append(ids, id)
			dns = append(dns, personDN(int(id)))
		}
		entries, err := fetch(c, dns)
		if err != nil {
			return err
		}
		for k, id := range ids {
			g.checkPerson(sys, int(id), t.entries[id], entries[k], devices && k%100 == 0)
		}
		ids, dns = nil, nil
		for k := range t.added {
			ids = append(ids, k)
			dns = append(dns, extraDN(t.conn, int(k)))
		}
		if entries, err = fetch(c, dns); err != nil {
			return err
		}
		for k, id := range ids {
			g.checkExtra(sys, t.conn, int(id), t.added[id], entries[k])
		}
	}
	return nil
}

func (g *gate) checkPerson(sys *metacomm.System, i int, want *expect, got *ldapclient.Entry, sampleDevices bool) {
	name := personDN(i)
	if got == nil {
		g.check(false, "%s: written entry is gone", name)
		return
	}
	attr := func(a, v string) {
		if v != "" {
			g.check(got.First(a) == v, "%s: %s = %q, last acked value %q", name, a, got.First(a), v)
		}
	}
	attr("roomNumber", want.room)
	attr("definityCOS", want.cos)
	attr("messagingCOS", want.mcos)
	num := personNumber(i)
	if !sampleDevices {
		return
	}
	station, err := sys.PBX.Store.Get(extensionOf(num))
	g.check(err == nil, "%s: no station %s on the PBX: %v", name, extensionOf(num), err)
	if err == nil {
		if want.room != "" {
			g.check(station.First("Room") == want.room, "%s: PBX Room = %q, want %q", name, station.First("Room"), want.room)
		}
		if want.cos != "" {
			g.check(station.First("COS") == want.cos, "%s: PBX COS = %q, want %q", name, station.First("COS"), want.cos)
		}
	}
	mailbox, err := sys.MP.Store.Get(num)
	g.check(err == nil, "%s: no mailbox %s on the messaging platform: %v", name, num, err)
	if err == nil && want.mcos != "" {
		g.check(mailbox.First("COS") == want.mcos, "%s: mailbox COS = %q, want %q", name, mailbox.First("COS"), want.mcos)
	}
}

func (g *gate) checkExtra(sys *metacomm.System, conn, k int, live bool, got *ldapclient.Entry) {
	name, num := extraDN(conn, k), extraNumber(conn, k)
	_, pbxErr := sys.PBX.Store.Get(extensionOf(num))
	_, mpErr := sys.MP.Store.Get(num)
	if !live {
		g.check(got == nil && pbxErr != nil && mpErr != nil,
			"%s: deleted, but directory=%v station=%v mailbox=%v remain", name, got != nil, pbxErr == nil, mpErr == nil)
		return
	}
	g.check(got != nil && pbxErr == nil && mpErr == nil,
		"%s: added, but directory=%v station=%v mailbox=%v", name, got != nil, pbxErr == nil, mpErr == nil)
	if got != nil {
		// The mailbox id the messaging platform generated must have been
		// written back.
		g.check(got.First("mailboxId") != "", "%s: no generated mailboxId written back", name)
	}
}

// audit runs one full synchronization pass and requires it to find every
// device record already in agreement with the directory: the paper's claim
// is that all repositories converge, and a propagation bug that loses one
// update anywhere in the population shows up here as a repair. It returns
// the device records audited per second.
func (g *gate) audit(sys *metacomm.System) float64 {
	t0 := time.Now()
	stats, err := sys.UM.SynchronizeAll()
	wall := time.Since(t0).Seconds()
	g.check(err == nil, "synchronization audit: %v", err)
	records := 0
	for dev, st := range stats {
		records += st.DeviceRecords
		repairs := st.DirectoryAdds + st.DirectoryMods + st.DeviceAdds + st.DeviceMods + st.DuplicateKeys + st.Errors
		g.check(repairs == 0 && st.AlreadyInSync == st.DeviceRecords,
			"synchronization audit of %s found diffs: %+v", dev, st)
	}
	g.check(sys.UM.Stats().ErrorsLogged == 0, "the update manager logged %d failed updates", sys.UM.Stats().ErrorsLogged)
	return float64(records) / wall
}
