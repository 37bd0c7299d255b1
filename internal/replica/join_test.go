package replica_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/mcschema"
	"metacomm/internal/replica"
)

func person(name string, extra ...string) *directory.Attrs {
	a := directory.AttrsFrom(map[string][]string{
		"objectClass": {"mcPerson"}, "cn": {name}, "sn": {name}})
	for i := 0; i+1 < len(extra); i += 2 {
		a.Put(extra[i], extra[i+1])
	}
	return a
}

// TestDurableJoinGroupCommits joins a journaled node to a 20 000-entry
// publisher: the snapshot must reach disk in commit groups of whole batches
// — at most one fsync per 32 entries, where applying record by record paid
// one per entry — and a cold restart of the joiner must replay every entry.
func TestDurableJoinGroupCommits(t *testing.T) {
	const entries = 20000
	a, _, addr := meshNode(t, 1, "")
	org := directory.NewAttrs()
	org.Put("objectClass", "organization")
	if err := a.Add(dn.MustParse("o=Lucent"), org); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		name := fmt.Sprintf("P%05d", i)
		if err := a.Add(dn.MustParse("cn="+name+",o=Lucent"), person(name)); err != nil {
			t.Fatal(err)
		}
	}

	base := filepath.Join(t.TempDir(), "directory.journal")
	b := directory.NewSegmented(mcschema.New(), 0)
	if _, err := b.AttachJournalSet(directory.JournalSetConfig{Base: base, Mode: directory.SyncGroup}); err != nil {
		t.Fatal(err)
	}
	rb := replica.NewReplicator(2, b)
	rb.AddPeer(addr)
	rb.Start()
	waitConverged(t, a, b)
	rb.Stop()

	st := b.JournalStats()
	if st.Appends != entries+1 {
		t.Fatalf("joiner journaled %d records, want %d", st.Appends, entries+1)
	}
	if st.Fsyncs > entries/32 {
		t.Fatalf("joiner fsynced %d times for %d entries, want <= %d", st.Fsyncs, entries, entries/32)
	}
	if ps := rb.Stats().Peers[0]; ps.Snapshots != 1 || ps.Structural != 0 {
		t.Fatalf("join took %d snapshots with %d structural skips", ps.Snapshots, ps.Structural)
	}
	if err := b.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	cold := directory.NewSegmented(mcschema.New(), 0)
	n, err := cold.AttachJournalSet(directory.JournalSetConfig{Base: base, Mode: directory.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.CloseJournal()
	if n != entries+1 || cold.Fingerprint() != a.Fingerprint() {
		t.Fatalf("cold restart replayed %d records, fingerprint equal = %v", n, cold.Fingerprint() == a.Fingerprint())
	}
}

// TestNestedTreeJoinsInOrder joins a tree of nested ous in which children
// hash to earlier segments than their parents: a publisher that streamed
// segment by segment without sending interior entries first would deliver
// those children before their parents, and the joiner would skip them as
// structural conflicts.
func TestNestedTreeJoinsInOrder(t *testing.T) {
	const segs = 4
	a, _, addr := meshNode(t, 1, "")
	a.SetChangeTail(0) // no tail to resume from: every catch-up is a snapshot
	seg := func(name dn.DN) uint32 {
		h := fnv.New32a()
		h.Write([]byte(name.Normalize()))
		return h.Sum32() % segs
	}
	add := func(name string, attrs *directory.Attrs) dn.DN {
		parsed := dn.MustParse(name)
		if err := a.Add(parsed, attrs); err != nil {
			t.Fatal(err)
		}
		return parsed
	}
	ou := func(name string) *directory.Attrs {
		attrs := directory.NewAttrs()
		attrs.Put("objectClass", "organizationalUnit")
		attrs.Put("ou", name)
		return attrs
	}
	org := directory.NewAttrs()
	org.Put("objectClass", "organization")
	add("o=Lucent", org)
	early := 0 // entries in an earlier segment than their parent
	for i := 0; i < 6; i++ {
		outer := add(fmt.Sprintf("ou=Site %d,o=Lucent", i), ou(fmt.Sprintf("Site %d", i)))
		for j := 0; j < 3; j++ {
			inner := add(fmt.Sprintf("ou=Lab %d,%s", j, outer), ou(fmt.Sprintf("Lab %d", j)))
			if seg(inner) < seg(outer) {
				early++
			}
			for k := 0; k < 4; k++ {
				name := fmt.Sprintf("N%d-%d-%d", i, j, k)
				if leaf := add(fmt.Sprintf("cn=%s,%s", name, inner), person(name)); seg(leaf) < seg(inner) {
					early++
				}
			}
		}
	}
	if early == 0 {
		t.Fatal("no entry hashes to an earlier segment than its parent; the test tree proves nothing")
	}

	b, rb, _ := meshNode(t, 2, "")
	rb.AddPeer(addr)
	rb.Start()
	waitConverged(t, a, b)
	if ps := rb.Stats().Peers[0]; ps.Structural != 0 || ps.Snapshots != 1 || ps.Applied != uint64(a.Len()) {
		t.Fatalf("join of %d entries: %+v", a.Len(), ps)
	}
}

// flipProxy forwards TCP connections to target and, while armed, flips one
// bit inside the first occurrence of a marker string in the target's
// replies — a corruption that is certain to land in a frame's payload.
type flipProxy struct {
	l      net.Listener
	target string

	mu      sync.Mutex
	marker  []byte
	flipped int
}

func startFlipProxy(t *testing.T, target string) *flipProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flipProxy{l: l, target: target}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			down, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			go func() {
				defer up.Close()
				defer down.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := down.Read(buf)
					if n > 0 {
						up.Write(buf[:n])
					}
					if err != nil {
						return
					}
				}
			}()
			go func() {
				defer up.Close()
				defer down.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := up.Read(buf)
					if n > 0 {
						p.corrupt(buf[:n])
						if _, werr := down.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

func (p *flipProxy) arm(marker string) {
	p.mu.Lock()
	p.marker = []byte(marker)
	p.mu.Unlock()
}

func (p *flipProxy) corrupt(chunk []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.marker == nil {
		return
	}
	if i := bytes.Index(chunk, p.marker); i >= 0 {
		chunk[i+1] ^= 0x04
		p.marker = nil
		p.flipped++
	}
}

func (p *flipProxy) flips() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flipped
}

// TestCorruptStreamAbortsAndConverges flips one bit mid-snapshot and one
// mid-stream. Each time the frame's checksum must end the session before
// the damaged record (or anything after it) is applied, and the link must
// reconnect and converge on the publisher's exact tree.
func TestCorruptStreamAbortsAndConverges(t *testing.T) {
	d := primaryDIT(t)
	d.SetChangeTail(2) // first catch-up is a snapshot
	for i := 0; i < 300; i++ {
		extra := []string{}
		if i >= 150 && i < 155 {
			// Several carriers, so at least one sits whole inside one of
			// the proxy's reads.
			extra = []string{"roomNumber", "SNAPSHOT-MARK"}
		}
		name := fmt.Sprintf("Snap %03d", i)
		if err := d.Add(dn.MustParse("cn="+name+",o=Lucent"), person(name, extra...)); err != nil {
			t.Fatal(err)
		}
	}
	pub := replica.NewPublisher(d)
	addr, err := pub.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pub.Close)
	proxy := startFlipProxy(t, addr.String())
	proxy.arm("SNAPSHOT-MARK")

	r := replica.New(proxy.l.Addr().String(), mcschema.New())
	r.Start()
	t.Cleanup(r.Stop)
	waitSeq(t, r, d.Seq())
	sameTrees(t, d, r.DIT)
	if proxy.flips() != 1 || r.Resyncs() != 2 {
		t.Fatalf("mid-snapshot: %d flips, %d snapshot sessions (want 1 and 2)", proxy.flips(), r.Resyncs())
	}

	// Mid-stream: the damaged change frame must not apply and must not move
	// the cursor; the reconnect resumes from the cursor and re-fetches it.
	d.SetChangeTail(64)
	proxy.arm("STREAM-MARK")
	name := dn.MustParse("cn=Snap 000,o=Lucent")
	for i := 0; i < 5; i++ {
		if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace, Attribute: ldap.Attribute{
			Type: "roomNumber", Values: []string{fmt.Sprintf("STREAM-MARK %d", i)}}}}); err != nil {
			t.Fatal(err)
		}
	}
	waitSeq(t, r, d.Seq())
	sameTrees(t, d, r.DIT)
	if proxy.flips() != 2 || r.Resumes() < 1 {
		t.Fatalf("mid-stream: %d flips, %d resumes", proxy.flips(), r.Resumes())
	}
	if got := pub.Stats().Conns; got < 3 {
		t.Fatalf("publisher saw %d connections, want >= 3 (two aborted sessions)", got)
	}
}
