package main

import (
	"fmt"
	"math/rand"

	"metacomm/internal/ldap"
)

const suffix = "o=Lucent"

// Population naming. The mapping library's numbering scheme ties the three
// keys of a person together: extension "X-YYYY" <-> "+1 908 58X YYYY" <->
// mailbox "YYYY", so mailbox uniqueness needs the YYYY part unique on its
// own. Base person i owns "0"+i; entries added during the run own
// "9"+conn+k.

func personCN(i int) string { return fmt.Sprintf("Person %06d", i) }
func personDN(i int) string { return "cn=" + personCN(i) + "," + suffix }

// personNumber is the YYYY part of person i's number.
func personNumber(i int) string { return fmt.Sprintf("0%06d", i) }

func extensionOf(number string) string { return "3-" + number }
func telephoneOf(number string) string { return "+1 908 583 " + number }

func extraCN(conn, k int) string     { return fmt.Sprintf("Extra %d %06d", conn, k) }
func extraDN(conn, k int) string     { return "cn=" + extraCN(conn, k) + "," + suffix }
func extraNumber(conn, k int) string { return fmt.Sprintf("9%d%05d", conn, k) }

type opKind uint8

const (
	opSearchBase opKind = iota
	opSearchEq
	opModify
	opAdd
	opDelete
)

func (k opKind) String() string {
	return [...]string{"search_base", "search_eq", "modify", "add", "delete"}[k]
}

func (k opKind) isSearch() bool { return k == opSearchBase || k == opSearchEq }

// Modify variants, chosen so that every device-mapped direction is used:
// PBX only, messaging platform only, and both.
//
// The paper's running example — a telephoneNumber change that re-keys the
// station and the mailbox — is deliberately absent: the messaging platform
// re-creates the mailbox under a new generated MailboxID and the directory
// keeps the old mailboxId, so the synchronization audit that ends every run
// finds (and repairs) a difference. That is a convergence bug to fix in its
// own change, with this variant added to the mix as its test; a workload may
// only contain operations that succeed.
const (
	modRoom = iota // roomNumber -> PBX Room
	modCOS         // definityCOS -> PBX COS
	modMCOS        // messagingCOS -> MP COS
	modBoth        // roomNumber + messagingCOS -> both devices
)

// op is one generated client operation. entry is a base-population index for
// searches and modifies, and the per-connection sequence number of an extra
// entry for adds and deletes.
type op struct {
	kind    opKind
	variant uint8
	entry   int32
	val     int32 // value counter for modifies; unique per connection
}

// mix is a workload's operation mix.
type mix struct {
	writePct  int     // share of operations that are updates
	addDelPct int     // of the updates, share that are adds + deletes (half each)
	eqPct     int     // of the searches, share that are indexed equality searches
	zipf      float64 // key skew (0 = uniform)
	variants  []uint8 // modify variants, drawn uniformly
}

var (
	// 95/5 with Zipf(1.1) keys: the hot written set fits the gateway's
	// 4 096-entry before-image cache.
	mixReadMostly = mix{writePct: 5, eqPct: 30, zipf: 1.1, variants: []uint8{modRoom}}
	// 100% updates on uniform keys over 20 000 entries: ~80% of
	// before-images miss the cache.
	mixWriteFanout = mix{writePct: 100, addDelPct: 20, variants: []uint8{
		modRoom, modRoom, modCOS, modCOS, modMCOS, modMCOS, modBoth, modBoth}}
	// Plain-person modifies for the replicated pair: no device owns them.
	mixMesh = mix{writePct: 100, variants: []uint8{modRoom}}
)

// stream generates one connection's operations. Everything is drawn from
// the seed, the connection index and the connection count; nothing from the
// clock or the server, so the same seed gives the same bytes on the wire.
//
// Writes are partitioned: connection c of C only writes entries whose index
// is congruent to c, and only deletes extras it added itself. The server
// serves one connection's requests in order, so "the last acked value" of
// every attribute is well defined and no generated operation can fail.
type stream struct {
	mix   mix
	conn  int // write partition: this stream writes entries congruent to conn modulo of
	of    int
	label int // names the stream's extras and values; the connection index
	pop   int
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  []int32 // rank -> entry, so hot keys are spread over the segments
	val   int32
	next  int     // next extra sequence number to add
	live  []int32 // extras added and not yet deleted, oldest first
}

func newStream(m mix, seed int64, conn, of, pop int) *stream {
	s := &stream{mix: m, conn: conn, of: of, label: conn, pop: pop,
		rng: rand.New(rand.NewSource(seed*7919 + int64(conn)))}
	if m.zipf > 1 {
		s.zipf = rand.NewZipf(s.rng, m.zipf, 1, uint64(pop-1))
		// The permutation is shared by all connections of a run: one hot set.
		p := rand.New(rand.NewSource(seed)).Perm(pop)
		s.perm = make([]int32, pop)
		for i, v := range p {
			s.perm[i] = int32(v)
		}
	}
	return s
}

func (s *stream) key() int32 {
	if s.zipf != nil {
		return s.perm[s.zipf.Uint64()]
	}
	return int32(s.rng.Intn(s.pop))
}

// own maps an entry onto this connection's write partition.
func (s *stream) own(e int32) int32 {
	e = e - e%int32(s.of) + int32(s.conn)
	if int(e) >= s.pop {
		e -= int32(s.of)
	}
	return e
}

func (s *stream) nextOp() op {
	if s.rng.Intn(100) >= s.mix.writePct {
		k := opSearchBase
		if s.rng.Intn(100) < s.mix.eqPct {
			k = opSearchEq
		}
		return op{kind: k, entry: s.key()}
	}
	if u := s.rng.Intn(100); u < s.mix.addDelPct {
		if u < s.mix.addDelPct/2 || len(s.live) == 0 {
			k := int32(s.next)
			s.next++
			s.live = append(s.live, k)
			return op{kind: opAdd, entry: k}
		}
		k := s.live[0]
		s.live = s.live[1:]
		return op{kind: opDelete, entry: k}
	}
	s.val++
	return op{kind: opModify, entry: s.own(s.key()), val: s.val,
		variant: s.mix.variants[s.rng.Intn(len(s.mix.variants))]}
}

func replace(attr, value string) ldap.Change {
	return ldap.Change{Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: attr, Values: []string{value}}}
}

func (s *stream) value(o op) string { return fmt.Sprintf("v%d-%d", s.label, o.val) }

// request builds the LDAP request for o.
func (s *stream) request(o op) ldap.Op {
	switch o.kind {
	case opSearchBase:
		return &ldap.SearchRequest{BaseDN: personDN(int(o.entry)), Scope: ldap.ScopeBaseObject}
	case opSearchEq:
		return &ldap.SearchRequest{BaseDN: suffix, Scope: ldap.ScopeWholeSubtree,
			Filter: ldap.Eq("definityExtension", extensionOf(personNumber(int(o.entry))))}
	case opAdd:
		cn := extraCN(s.label, int(o.entry))
		return &ldap.AddRequest{DN: extraDN(s.label, int(o.entry)), Attributes: []ldap.Attribute{
			{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
			{Type: "cn", Values: []string{cn}},
			{Type: "sn", Values: []string{"Extra"}},
			{Type: "definityExtension", Values: []string{extensionOf(extraNumber(s.label, int(o.entry)))}},
		}}
	case opDelete:
		return &ldap.DeleteRequest{DN: extraDN(s.label, int(o.entry))}
	}
	req := &ldap.ModifyRequest{DN: personDN(int(o.entry))}
	v := s.value(o)
	switch o.variant {
	case modRoom:
		req.Changes = []ldap.Change{replace("roomNumber", v)}
	case modCOS:
		req.Changes = []ldap.Change{replace("definityCOS", v)}
	case modMCOS:
		req.Changes = []ldap.Change{replace("messagingCOS", v)}
	case modBoth:
		req.Changes = []ldap.Change{replace("roomNumber", v), replace("messagingCOS", v)}
	}
	return req
}

// expect is what the correctness gate checks an entry against: the last
// acked value of each attribute the run wrote. A connection's reader
// goroutine is the only writer of its tracker.
type expect struct {
	room, cos, mcos string
}

type tracker struct {
	conn    int
	entries map[int32]*expect
	added   map[int32]bool // extras: true = live, false = deleted
}

func newTracker(conn int) *tracker {
	return &tracker{conn: conn, entries: map[int32]*expect{}, added: map[int32]bool{}}
}

// acked records a successful update.
func (t *tracker) acked(o op, value string) {
	switch o.kind {
	case opAdd:
		t.added[o.entry] = true
	case opDelete:
		t.added[o.entry] = false
	case opModify:
		e := t.entries[o.entry]
		if e == nil {
			e = &expect{}
			t.entries[o.entry] = e
		}
		switch o.variant {
		case modRoom:
			e.room = value
		case modCOS:
			e.cos = value
		case modMCOS:
			e.mcos = value
		case modBoth:
			e.room, e.mcos = value, value
		}
	}
}
