package main

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metacomm/internal/ldap"
	"metacomm/internal/ldapserver"
)

func TestQuantileAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 100, 1001} {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(1_000_000)
		}
		s := sortedCopy(v)
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
			t.Fatal("sortedCopy did not sort")
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			got := quantile(s, q)
			// Oracle: the smallest sample with at least q*n samples <= it.
			want := s[len(s)-1]
			for _, x := range s {
				le := sort.Search(len(s), func(i int) bool { return s[i] > x })
				if float64(le) >= q*float64(n) {
					want = x
					break
				}
			}
			if got != want {
				t.Errorf("n=%d q=%v: quantile = %d, oracle %d", n, q, got, want)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

func TestWindowQuantileIsMedianOfWindows(t *testing.T) {
	// Three windows of 100 samples; one window holds a stall. The whole-stage
	// p99 sees the stall, the median of the window p99s does not.
	var samples []timed
	var all []int64
	for w := 0; w < 3; w++ {
		for i := 0; i < 100; i++ {
			lat := int64(100 + i)
			if w == 1 && i >= 90 {
				lat = 50_000
			}
			samples = append(samples, timed{due: int64(w)*1000 + int64(i), lat: lat})
			all = append(all, lat)
		}
	}
	got, wins := windowQuantile(samples, 1000, 0.99, 1)
	if wins != 3 || got != 198 {
		t.Errorf("windowQuantile = %v over %d windows, want 198 over 3", got, wins)
	}
	if whole := quantile(sortedCopy(all), 0.99); whole != 50_000 {
		t.Errorf("whole-stage p99 = %d, want the stall", whole)
	}
	// A window with too few samples beyond the quantile is left out.
	if _, wins := windowQuantile(samples, 1000, 0.99, 20); wins != 0 {
		t.Errorf("windows with 1 sample beyond p99 were used: %d", wins)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(values, n=4), default exclusive method.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1.0, 3.0, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", s)
	}
}

// wireOf is the first n operations of every connection's stream, encoded.
func wireOf(m mix, seed int64, n int) []byte {
	var buf []byte
	for conn := 0; conn < 2; conn++ {
		st := newStream(m, seed, conn, 2, 500)
		for i := 0; i < n; i++ {
			o := st.nextOp()
			buf = (&ldap.Message{ID: int32(i + 1), Op: st.request(o)}).AppendTo(buf)
		}
	}
	return buf
}

func TestSameSeedSameBytes(t *testing.T) {
	for name, m := range map[string]mix{"read_mostly": mixReadMostly, "write_fanout": mixWriteFanout, "mesh_restart": mixMesh} {
		a, b, c := wireOf(m, 7, 2000), wireOf(m, 7, 2000), wireOf(m, 8, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different bytes", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same bytes", name)
		}
	}
}

func TestStreamNeverGeneratesAFailingOperation(t *testing.T) {
	// Deletes only ever name an extra the same connection added and has not
	// deleted; writes stay in the connection's partition.
	for conn := 0; conn < 3; conn++ {
		st := newStream(mixWriteFanout, 3, conn, 3, 500)
		live := map[int32]bool{}
		for i := 0; i < 20000; i++ {
			o := st.nextOp()
			switch o.kind {
			case opAdd:
				if live[o.entry] {
					t.Fatalf("conn %d adds extra %d twice", conn, o.entry)
				}
				live[o.entry] = true
			case opDelete:
				if !live[o.entry] {
					t.Fatalf("conn %d deletes extra %d which is not live", conn, o.entry)
				}
				delete(live, o.entry)
			case opModify:
				if int(o.entry)%3 != conn || int(o.entry) >= 500 {
					t.Fatalf("conn %d writes entry %d outside its partition", conn, o.entry)
				}
			}
		}
	}
}

// stallingHandler answers searches at once, except that one search sleeps.
type stallingHandler struct {
	cannedHandler
	calls   atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (h *stallingHandler) Search(c *ldapserver.Conn, req *ldap.SearchRequest, send func(*ldap.SearchResultEntry) error) ldap.Result {
	if h.calls.Add(1) == h.stallAt {
		time.Sleep(h.stall)
	}
	return h.cannedHandler.Search(c, req, send)
}

func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	// One connection, 2 000 requests/s, and a server that stalls once for
	// 50 ms. About a hundred requests fall due during the stall. Timed from
	// when each was due they must report it; a generator that waited for the
	// stalled reply before sending the next request (coordinated omission)
	// would show one slow request.
	const stall = 50 * time.Millisecond
	h := &stallingHandler{stallAt: 200, stall: stall,
		cannedHandler: cannedHandler{&ldap.SearchResultEntry{DN: personDN(0)}}}
	srv := ldapserver.NewServer(h)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	search := mix{writePct: 0}
	g, err := newGenerator(addr.String(), search, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	st := g.run("mid", 400*time.Millisecond, 2000)
	if st.failed != 0 {
		t.Fatalf("failures: %v", st.failures)
	}
	slow := 0
	for _, s := range st.samples {
		if s.lat >= int64(stall/2) {
			slow++
		}
	}
	if slow < 20 {
		t.Errorf("%d of %d requests report at least half of the %v stall; the requests due during it must", slow, len(st.samples), stall)
	}
}

func TestRungSelfTime(t *testing.T) {
	leaf := func(name string, ns float64) *rung { return &rung{name: name, ns: ns} }
	fan := &rung{name: "fanout", ns: 70, parallel: true, children: []*rung{leaf("pbx", 70), leaf("mp", 40)}}
	um := &rung{name: "um", ns: 400, children: []*rung{leaf("closure", 10), leaf("directory", 200), fan}}
	gw := &rung{name: "gateway", ns: 520, children: []*rung{um}}
	wire := &rung{name: "wire", ns: 560, children: []*rung{gw}}
	for _, c := range []struct {
		r    *rung
		want float64
	}{{wire, 40}, {gw, 120}, {um, 120}, {fan, 0}} {
		if got := c.r.self(); got != c.want {
			t.Errorf("%s self = %v, want %v", c.r.name, got, c.want)
		}
	}
	// Self times telescope: wire 40 + gateway 120 + um 120 + closure 10 +
	// directory 200 + the slower device chain 70 = the wire rung.
	if got := wire.sumSelf(); got != 560 {
		t.Errorf("sum of self times = %v, want 560", got)
	}
	if got := wire.explained(700); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("explained = %v, want 0.8", got)
	}
	// Two medians of different samples can cross; self time never goes
	// negative.
	if got := (&rung{ns: 10, children: []*rung{leaf("x", 12)}}).self(); got != 0 {
		t.Errorf("self below a slower child = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := func(x float64) []float64 { return []float64{x * 0.99, x, x, x * 1.01} }
	noisy := func(x float64) []float64 { return []float64{x * 0.7, x * 0.9, x * 1.1, x * 1.3} }
	for _, c := range []struct {
		m         metricSpec
		base, cur []float64
		want      string
	}{
		{lower, steady(100), steady(105), "unchanged"},
		{lower, steady(100), steady(120), "REGRESSED"},
		{lower, steady(100), steady(80), "improved"},
		{higher, steady(100), steady(80), "REGRESSED"},
		{higher, steady(100), steady(120), "improved"},
		{lower, noisy(100), steady(104), "unresolved"},
		{metricSpec{Name: "ber.decode_ns", Better: "lower"}, steady(100), steady(300), "-"},
	} {
		if got := verdict(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.m.Name, median(c.base), median(c.cur), got, c.want)
		}
	}
}

// TestShortPassEmitsEveryDeclaredMetric runs all four workloads, untraced
// and traced, on a tiny population with sub-second stages. The numbers mean
// nothing; the gates must pass and every metric BENCHMARK.json declares must
// come out — each end-to-end metric on every workload and never zero, each
// per-layer metric reached by at least one workload.
func TestShortPassEmitsEveryDeclaredMetric(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	reached := map[string]bool{}
	t.Run("workloads", func(t *testing.T) {
		for _, w := range spec.Workloads {
			for _, trace := range []bool{false, true} {
				name := w.Name
				if trace {
					name += "/trace"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					rc := &runCtx{spec: spec, workload: w.Name, seed: 5, seconds: 1.6, trace: trace, short: true,
						conns: 2, tmp: t.TempDir(), outDir: t.TempDir()}
					rc.res = newResult(spec, w.Name, trace, env{})
					if err := rc.run(); err != nil {
						t.Fatal(err)
					}
					rc.res.finish()
					if !rc.res.Correct {
						t.Fatalf("gate failed: %s", strings.Join(rc.res.Failures, "; "))
					}
					mu.Lock()
					defer mu.Unlock()
					for n, rd := range rc.res.Metrics {
						if !trace && rd.Value == 0 {
							t.Errorf("end-to-end metric %s is 0", n)
						}
						if !strings.HasPrefix(rd.Note, "not reached") {
							reached[n] = true
						}
					}
				})
			}
		}
	})
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !reached[m.Name] {
			t.Errorf("no workload measured the declared metric %s", m.Name)
		}
	}
}
