package metacomm_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
)

// ---------------------------------------------------------------------------
// Partitionable TCP proxy: every replication link in the chaos mesh runs
// through one of these, so the test can sever any directed edge without
// touching the nodes.

type chaosProxy struct {
	addr    string
	target  string
	ln      net.Listener
	blocked atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{addr: ln.Addr().String(), target: target, ln: ln,
		conns: map[net.Conn]struct{}{}}
	go p.acceptLoop()
	t.Cleanup(p.close)
	return p
}

func (p *chaosProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.blocked.Load() {
			c.Close()
			continue
		}
		up, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			c.Close()
			continue
		}
		p.track(c)
		p.track(up)
		go p.pipe(c, up)
		go p.pipe(up, c)
	}
}

func (p *chaosProxy) track(c net.Conn) {
	p.mu.Lock()
	if p.done || p.blocked.Load() {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *chaosProxy) pipe(dst, src net.Conn) {
	io.Copy(dst, src) //nolint:errcheck — a severed link is the point
	dst.Close()
	src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}

// setBlocked flips the partition: blocking kills live connections and
// refuses new ones; unblocking lets the nodes' own reconnect logic heal.
func (p *chaosProxy) setBlocked(b bool) {
	p.blocked.Store(b)
	if !b {
		return
	}
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.conns = map[net.Conn]struct{}{}
	p.mu.Unlock()
}

func (p *chaosProxy) close() {
	p.mu.Lock()
	p.done = true
	p.mu.Unlock()
	p.ln.Close()
	p.setBlocked(true)
}

// ---------------------------------------------------------------------------
// chaosNode wraps one metacommd OS process so the test can SIGKILL and
// restart it with identical flags (same ports, same data directory).

type chaosNode struct {
	id       int
	ltapAddr string
	replAddr string
	dataDir  string
	peers    []string // proxy addresses, fixed for the node's lifetime
	bin      string

	mu  sync.Mutex
	cmd *exec.Cmd
}

func (n *chaosNode) start(t *testing.T) {
	t.Helper()
	cmd := exec.Command(n.bin,
		"-ltap", n.ltapAddr,
		"-directory", "127.0.0.1:0",
		"-pbx", "127.0.0.1:0",
		"-mp", "127.0.0.1:0",
		"-wba", "",
		"-data", n.dataDir,
		"-replication", n.replAddr,
		"-node-id", strconv.Itoa(n.id),
		"-peers", strings.Join(n.peers, ","),
		"-quiet",
	)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("node %d: %v", n.id, err)
	}
	n.mu.Lock()
	n.cmd = cmd
	n.mu.Unlock()

	// Ready when the LTAP endpoint answers a base search for the suffix.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		c, err := ldapclient.Dial(n.ltapAddr)
		if err == nil {
			_, err = c.Search(&ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeBaseObject})
			c.Close()
			if err == nil {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("node %d never became ready on %s", n.id, n.ltapAddr)
}

// kill SIGKILLs the process — no shutdown hooks, no journal flush beyond
// what group commit already made durable before each ack.
func (n *chaosNode) kill(t *testing.T) {
	t.Helper()
	n.mu.Lock()
	cmd := n.cmd
	n.cmd = nil
	n.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return
	}
	_ = cmd.Process.Kill()
	_, _ = cmd.Process.Wait()
}

// dump reads the node's whole subtree and returns a canonical fingerprint
// plus the roomNumber per DN — the client-visible convergence check (origin
// stamps are server-internal; byte-identical attribute trees are what the
// paper's administrator actually observes).
func (n *chaosNode) dump(t *testing.T) (string, map[string]string, error) {
	c, err := ldapclient.Dial(n.ltapAddr)
	if err != nil {
		return "", nil, err
	}
	defer c.Close()
	entries, err := c.Search(&ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree})
	if err != nil {
		return "", nil, err
	}
	rooms := make(map[string]string, len(entries))
	lines := make([]string, 0, len(entries))
	for _, e := range entries {
		attrs := make([]string, 0, len(e.Attributes))
		for _, a := range e.Attributes {
			vals := append([]string(nil), a.Values...)
			sort.Strings(vals)
			attrs = append(attrs, strings.ToLower(a.Type)+"="+strings.Join(vals, "|"))
			if strings.EqualFold(a.Type, "roomNumber") && len(vals) > 0 {
				rooms[strings.ToLower(e.DN)] = vals[0]
			}
		}
		sort.Strings(attrs)
		lines = append(lines, strings.ToLower(e.DN)+": "+strings.Join(attrs, ", "))
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%x", sum[:8]), rooms, nil
}

// ---------------------------------------------------------------------------

// TestNodeChaosSoak is the tentpole's proof: three full metacommd processes
// in a multi-master mesh survive a seeded schedule of kill -9s, restarts,
// and network partitions under sustained 95/5 load — and when the chaos
// stops and the mesh heals, every node serves a byte-identical tree and not
// one acknowledged write has been lost.
func TestNodeChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	bin := filepath.Join(buildTools(t), "metacommd")
	if _, err := os.Stat(bin); err != nil {
		t.Skipf("metacommd binary missing: %v", err)
	}

	const N = 3
	base := t.TempDir()

	// Fixed node addresses first, then one proxy per directed replication
	// edge, then each node's peer list pointing AT THE PROXIES.
	nodes := make([]*chaosNode, N)
	for i := range nodes {
		nodes[i] = &chaosNode{
			id:       i + 1,
			ltapAddr: freePort(t),
			replAddr: freePort(t),
			dataDir:  filepath.Join(base, fmt.Sprintf("node%d", i+1)),
			bin:      bin,
		}
	}
	edges := make(map[[2]int]*chaosProxy) // [from][to]
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			if i == j {
				continue
			}
			p := newChaosProxy(t, nodes[j].replAddr)
			edges[[2]int{i, j}] = p
			nodes[i].peers = append(nodes[i].peers, p.addr)
		}
	}
	partition := func(k int, blocked bool) {
		for edge, p := range edges {
			if edge[0] == k || edge[1] == k {
				p.setBlocked(blocked)
			}
		}
	}

	// Registered before the first start, so a node that never becomes ready
	// does not leave the ones already started running after the test.
	t.Cleanup(func() {
		for _, n := range nodes {
			n.kill(t)
		}
	})
	for _, n := range nodes {
		n.start(t)
	}

	// Seed the shared population through node 1 and wait until replication
	// has planted it everywhere (writers need their DNs present on their
	// own node before the first modify).
	const perWriter = 8
	seedConn, err := ldapclient.Dial(nodes[0].ltapAddr)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for w := 0; w < N; w++ {
		for k := 0; k < perWriter; k++ {
			cn := fmt.Sprintf("Chaos W%d-%02d", w, k)
			err := seedConn.Add("cn="+cn+",o=Lucent", []ldap.Attribute{
				{Type: "objectClass", Values: []string{"mcPerson"}},
				{Type: "cn", Values: []string{cn}},
				{Type: "sn", Values: []string{"Chaos"}},
			})
			if err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	seedConn.Close()
	for _, n := range nodes {
		nd := n
		deadline := time.Now().Add(15 * time.Second)
		for {
			c, err := ldapclient.Dial(nd.ltapAddr)
			if err == nil {
				entries, serr := c.Search(&ldap.SearchRequest{
					BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree,
					Filter: ldap.Eq("sn", "Chaos")})
				c.Close()
				if serr == nil && len(entries) == total {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed population never reached node %d", nd.id)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Writers: one per node, pinned to that node for life — so each DN's
	// writes all take stamps from one monotonically-advancing clock, making
	// "the last acked write" well-defined even under LWW. 95/5 search/modify
	// with a seeded RNG; redial-and-retry while the node is down.
	type writerState struct {
		acked map[string]int // DN -> counter of the last ACKED modify
		ops   uint64
	}
	var (
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		writers = make([]*writerState, N)
	)
	for w := 0; w < N; w++ {
		ws := &writerState{acked: map[string]int{}}
		writers[w] = ws
		wg.Add(1)
		go func(w int, ws *writerState) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var conn *ldapclient.Conn
			defer func() {
				if conn != nil {
					conn.Close()
				}
			}()
			ctr := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if conn == nil {
					c, err := ldapclient.Dial(nodes[w].ltapAddr)
					if err != nil {
						time.Sleep(100 * time.Millisecond)
						continue
					}
					conn = c
				}
				dn := fmt.Sprintf("cn=Chaos W%d-%02d,o=Lucent", w, rng.Intn(perWriter))
				var err error
				if rng.Intn(100) < 5 {
					ctr++
					err = conn.Modify(dn, []ldap.Change{{Op: ldap.ModReplace,
						Attribute: ldap.Attribute{Type: "roomNumber",
							Values: []string{fmt.Sprintf("v-%d-%d", w, ctr)}}}})
					if err == nil {
						ws.acked[strings.ToLower(dn)] = ctr
					}
				} else {
					_, err = conn.Search(&ldap.SearchRequest{BaseDN: dn, Scope: ldap.ScopeBaseObject})
				}
				if err != nil {
					// Node down or link severed mid-flight: drop the
					// connection and retry against the same node. An errored
					// modify may still have applied — that is fine, only
					// ACKED writes join the loss check.
					conn.Close()
					conn = nil
					time.Sleep(50 * time.Millisecond)
					continue
				}
				ws.ops++
			}
		}(w, ws)
	}

	// The seeded chaos schedule: each round crashes one node (kill -9 then
	// cold restart with the same journal) or partitions one node (every
	// replication edge touching it severed, LTAP still up — writes keep
	// landing on the isolated node and must flow out after the heal).
	chaos := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		victim := chaos.Intn(N)
		if chaos.Intn(2) == 0 {
			t.Logf("round %d: kill -9 node %d", round, victim+1)
			nodes[victim].kill(t)
			time.Sleep(1200 * time.Millisecond)
			nodes[victim].start(t)
		} else {
			t.Logf("round %d: partition node %d", round, victim+1)
			partition(victim, true)
			time.Sleep(1200 * time.Millisecond)
			partition(victim, false)
		}
		time.Sleep(300 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	var totalOps uint64
	for _, ws := range writers {
		totalOps += ws.ops
	}
	if totalOps == 0 {
		t.Fatal("chaos load did nothing")
	}

	// Heal everything and wait for byte-identical trees on all nodes.
	for _, p := range edges {
		p.setBlocked(false)
	}
	var fps [N]string
	var rooms [N]map[string]string
	deadline := time.Now().Add(30 * time.Second)
	for {
		same := true
		for i, n := range nodes {
			fp, rm, err := n.dump(t)
			if err != nil {
				same = false
				break
			}
			fps[i], rooms[i] = fp, rm
			if fps[i] != fps[0] {
				same = false
			}
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh did not converge after heal: fingerprints %v", fps)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Logf("converged: %d ops, fingerprint %s", totalOps, fps[0])

	// Zero acked-write loss: for every DN, the converged value's counter is
	// at least the last ACKED counter — an acked write may be superseded by
	// the same writer's later write, but never by an older value and never
	// dropped.
	for w, ws := range writers {
		for dn, ackedCtr := range ws.acked {
			val, ok := rooms[0][dn]
			if !ok {
				t.Errorf("writer %d: %s lost its acked roomNumber entirely (last acked v-%d-%d)", w, dn, w, ackedCtr)
				continue
			}
			parts := strings.Split(val, "-")
			if len(parts) != 3 {
				t.Errorf("writer %d: %s has foreign value %q", w, dn, val)
				continue
			}
			gotCtr, err := strconv.Atoi(parts[2])
			if err != nil || gotCtr < ackedCtr {
				t.Errorf("writer %d: %s regressed to %q, acked counter was %d", w, dn, val, ackedCtr)
			}
		}
	}
}
