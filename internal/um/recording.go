package um

import (
	"strings"
	"sync"

	"metacomm/internal/directory"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
)

// recordingClient wraps the backing LDAP client for a synchronization pass:
// every successful write is noted as (normalized DN, content fingerprint)
// so the delta drain can tell the pass's own writebacks apart from external
// updates that landed during the unquiesced bulk phase. Each client write
// produces exactly one changelog record, so attribution is a multiset
// match: a drained record whose fingerprint is still outstanding for its DN
// is ours.
type recordingClient struct {
	inner filter.LDAPClient

	mu sync.Mutex
	// writes: normalized DN -> fingerprint -> outstanding count.
	writes map[string]map[string]int
}

func (c *recordingClient) note(normDN, fp string) {
	c.mu.Lock()
	m := c.writes[normDN]
	if m == nil {
		m = map[string]int{}
		c.writes[normDN] = m
	}
	m[fp]++
	c.mu.Unlock()
}

// consume reports whether an outstanding own-write matches the record and
// removes it from the multiset.
func (c *recordingClient) consume(normDN, fp string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.writes[normDN]
	if m == nil || m[fp] == 0 {
		return false
	}
	m[fp]--
	return true
}

func (c *recordingClient) Search(req *ldap.SearchRequest) ([]*ldapclient.Entry, error) {
	return c.inner.Search(req)
}

func (c *recordingClient) Add(dn string, attrs []ldap.Attribute) error {
	err := c.inner.Add(dn, attrs)
	if err == nil {
		c.note(normalizeDNString(dn), "add")
	}
	return err
}

func (c *recordingClient) Modify(dn string, changes []ldap.Change) error {
	err := c.inner.Modify(dn, changes)
	if err == nil {
		c.note(normalizeDNString(dn), modifyFingerprint(changes))
	}
	return err
}

func (c *recordingClient) ModifyDN(dn, newRDN string, deleteOldRDN bool) error {
	err := c.inner.ModifyDN(dn, newRDN, deleteOldRDN)
	if err == nil {
		// The changelog's modifydn record carries the OLD name.
		c.note(normalizeDNString(dn), "modifydn|"+strings.ToLower(newRDN))
	}
	return err
}

func (c *recordingClient) Delete(dn string) error {
	err := c.inner.Delete(dn)
	if err == nil {
		c.note(normalizeDNString(dn), "delete")
	}
	return err
}

// modifyFingerprint canonicalizes a change list for own-write attribution.
// It must produce the same string as recordFingerprint does for the
// changelog record the write commits (the DIT journals the request's
// changes verbatim).
func modifyFingerprint(changes []ldap.Change) string {
	var b strings.Builder
	b.WriteString("modify")
	for _, ch := range changes {
		b.WriteByte('|')
		b.WriteString(ch.Op.String())
		b.WriteByte(':')
		b.WriteString(strings.ToLower(ch.Attribute.Type))
		for _, v := range ch.Attribute.Values {
			b.WriteByte('=')
			b.WriteString(v)
		}
	}
	return b.String()
}

// recordFingerprint is modifyFingerprint's counterpart for drained
// changelog records.
func recordFingerprint(rec directory.UpdateRecord) string {
	switch rec.Op {
	case "add", "entry":
		return "add"
	case "delete":
		return "delete"
	case "modifydn":
		return "modifydn|" + strings.ToLower(rec.NewRDN)
	}
	var b strings.Builder
	b.WriteString("modify")
	for _, ch := range rec.Changes {
		b.WriteByte('|')
		b.WriteString(ch.Op)
		b.WriteByte(':')
		b.WriteString(strings.ToLower(ch.Attr))
		for _, v := range ch.Values {
			b.WriteByte('=')
			b.WriteString(v)
		}
	}
	return b.String()
}
