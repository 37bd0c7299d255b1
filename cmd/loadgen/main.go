// Command loadgen drives a running metacommd (or a system it spawns itself)
// with thousands of concurrent LDAP connections and a configurable
// search/modify mix, and writes the measured throughput, latency
// distribution, and allocation rate as machine-readable JSON — the wire-path
// performance trajectory of the repo, one BENCH_wire_<rev>.json per
// revision.
//
// Examples:
//
//	loadgen -spawn -conns 1000 -duration 10s          # hermetic, in-process system
//	loadgen -addr 127.0.0.1:3890 -conns 2000          # against a running metacommd
//	loadgen -spawn -conns 64 -idle-conns 5000                     # mostly-idle regime
//	loadgen -merge BENCH_wire_abc.json run1.json run2.json         # combine runs
//
// Each connection runs a closed loop: it fires a pipelined burst of
// operations (one kernel write for the whole burst, see ldapclient.Pipeline),
// reads the responses, and records each operation's completion latency. The
// op mix defaults to 95% base-object searches / 5% roomNumber modifies —
// the read-mostly regime the paper describes for directory workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/bits"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	metacomm "metacomm"
	"metacomm/internal/ber"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
)

func main() {
	var (
		addr     = flag.String("addr", "", "LDAP address(es) of a running metacommd — comma-separated for a multi-master mesh; connections round-robin across them")
		spawn    = flag.Bool("spawn", false, "start a complete in-process system instead of dialing -addr")
		conns    = flag.Int("conns", 1000, "concurrent LDAP connections")
		duration = flag.Duration("duration", 10*time.Second, "measurement window")
		warmup   = flag.Duration("warmup", time.Second, "warmup before measurement starts")
		writePct = flag.Int("write-pct", 5, "percent of operations that are modifies (rest are searches)")
		depth    = flag.Int("pipeline", 8, "operations pipelined per burst (1 = one round-trip per op)")
		entries  = flag.Int("entries", 1000, "seeded person entries the workload targets")
		shards   = flag.Int("um-shards", 0, "UM shards when -spawn (0 = default)")
		out      = flag.String("out", "", "output JSON path (default BENCH_wire_<rev>.json in the current directory)")
		rev      = flag.String("rev", "", "revision label for the output file (default git rev-parse --short HEAD)")
		seed     = flag.Int64("rand-seed", 1, "workload RNG seed (deterministic op mix per connection)")
		idleN    = flag.Int("idle-conns", 0, "held-open mostly-idle connections alongside the active workers; each issues one base search per -idle-interval")
		idleIvl  = flag.Duration("idle-interval", 10*time.Second, "per-idle-connection operation interval")
		label    = flag.String("label", "", "run label recorded in the output JSON (merge summaries key on it)")
		merge    = flag.String("merge", "", "merge the per-run JSON files given as arguments into one benchmark record at this path; generates no load")
		expName  = flag.String("experiment", "", "experiment tag recorded in the merged record (with -merge)")
	)
	flag.Parse()
	if *merge != "" {
		mergeRuns(*merge, flag.Args(), revision(*rev), *expName)
		return
	}
	if *spawn == (*addr != "") {
		log.Fatal("loadgen: exactly one of -spawn or -addr is required")
	}
	if *writePct < 0 || *writePct > 100 {
		log.Fatal("loadgen: -write-pct must be 0..100")
	}
	if *idleN < 0 {
		log.Fatal("loadgen: -idle-conns must be >= 0")
	}
	if *depth < 1 {
		*depth = 1
	}
	raiseNoFile(*conns+*idleN, *spawn)

	targets := splitTargets(*addr)
	var sys *metacomm.System
	if *spawn {
		var err error
		sys, err = metacomm.Start(metacomm.Config{UMShards: *shards})
		if err != nil {
			log.Fatalf("loadgen: spawn: %v", err)
		}
		defer sys.Close()
		targets = []string{sys.LTAPAddrActual}
		fmt.Printf("spawned system at %s\n", targets[0])
	}

	// Seed through one node; a multi-master mesh replicates the population
	// to the rest before the warmup ends (writes during warmup are retried
	// by virtue of LWW idempotence — re-adds report already-exists).
	dns, err := provision(targets[0], *entries)
	if err != nil {
		log.Fatalf("loadgen: seeding %d entries: %v", *entries, err)
	}
	fmt.Printf("seeded %d entries; opening %d connections across %d target(s)...\n",
		len(dns), *conns, len(targets))

	var idle *idlePool
	if *idleN > 0 {
		idle, err = dialIdle(targets, *idleN)
		if err != nil {
			log.Fatalf("loadgen: idle pool: %v", err)
		}
		defer idle.shutdown()
		idle.start(*idleIvl)
		fmt.Printf("holding %d idle connections open (one op per %s each)\n", *idleN, *idleIvl)
	}

	cfgRun := runConfig{
		conns:    *conns,
		duration: *duration,
		warmup:   *warmup,
		writePct: *writePct,
		depth:    *depth,
		seed:     *seed,
	}
	r := run(targets, dns, cfgRun)
	r.Label = *label
	r.Config.Spawned = *spawn
	r.Config.IdleConns = *idleN
	if *idleN > 0 {
		r.Config.IdleIntervalSec = round2(idleIvl.Seconds())
	}
	if sys != nil {
		ws := sys.WireStats()
		r.ServerWire = &wireJSON{
			LTAPMessagesRead:      ws.LTAP.MessagesRead,
			LTAPResponsesWritten:  ws.LTAP.ResponsesWritten,
			LTAPFlushes:           ws.LTAP.Flushes,
			LTAPResponsesPerFlush: round2(ws.LTAP.ResponsesPerFlush()),
			DirMessagesRead:       ws.Directory.MessagesRead,
			DirResponsesWritten:   ws.Directory.ResponsesWritten,
			DirFlushes:            ws.Directory.Flushes,
			DirResponsesPerFlush:  round2(ws.Directory.ResponsesPerFlush()),
			LTAPParked:            ws.LTAP.Parked,
		}
	}
	if idle != nil {
		idle.shutdown()
		r.IdleOps = idle.ops.Load()
		if n := idle.errs.Load(); n > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: %d idle-connection op errors\n", n)
		}
	}
	r.Rev = revision(*rev)
	r.Timestamp = time.Now().UTC().Format(time.RFC3339)

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_wire_%s.json", r.Rev)
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatalf("loadgen: marshal: %v", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		log.Fatalf("loadgen: write %s: %v", path, err)
	}

	fmt.Printf("ops=%d (%d errors) over %.1fs: %.0f ops/s\n",
		r.Ops, r.Errors, r.Config.DurationSec, r.OpsPerSec)
	fmt.Printf("latency µs: p50=%d p90=%d p99=%d p999=%d max=%d mean=%.0f\n",
		r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.P999, r.Latency.Max, r.Latency.Mean)
	fmt.Printf("client allocs/op=%.1f\n", r.AllocsPerOp)
	fmt.Printf("process after run: heap-in-use=%d bytes goroutines=%d idle-ops=%d\n",
		r.HeapInUse, r.NumGoroutine, r.IdleOps)
	if r.ServerWire != nil {
		fmt.Printf("server coalescing: ltap %.1f responses/flush, directory %.1f responses/flush; ltap parked=%d\n",
			r.ServerWire.LTAPResponsesPerFlush, r.ServerWire.DirResponsesPerFlush, r.ServerWire.LTAPParked)
	}
	fmt.Printf("wrote %s\n", path)
	if r.Errors > r.Ops/100 {
		log.Fatalf("loadgen: error rate over 1%% (%d/%d)", r.Errors, r.Ops)
	}
}

// provision seeds the person entries the workload reads and writes, shaped
// like the repo's benchmark population. Re-running against a system that
// already has them is fine (entryAlreadyExists is not an error here).
func provision(addr string, n int) ([]string, error) {
	c, err := ldapclient.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	dns := make([]string, n)
	const batch = 64
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		ops := make([]ldap.Op, 0, hi-lo)
		for i := lo; i < hi; i++ {
			dns[i] = fmt.Sprintf("cn=Load Person %05d,o=Lucent", i)
			ops = append(ops, &ldap.AddRequest{DN: dns[i], Attributes: []ldap.Attribute{
				{Type: "objectClass", Values: []string{"mcPerson", "definityUser"}},
				{Type: "cn", Values: []string{fmt.Sprintf("Load Person %05d", i)}},
				{Type: "sn", Values: []string{fmt.Sprintf("Person %05d", i)}},
				{Type: "definityExtension", Values: []string{fmt.Sprintf("3-%05d", i)}},
			}})
		}
		for _, res := range c.Pipeline(ops) {
			if res.Err != nil && !strings.Contains(res.Err.Error(), "already exists") {
				return nil, res.Err
			}
		}
	}
	return dns, nil
}

type runConfig struct {
	conns    int
	duration time.Duration
	warmup   time.Duration
	writePct int
	depth    int
	seed     int64
}

// result is the machine-readable benchmark record.
type result struct {
	Rev       string     `json:"rev"`
	Label     string     `json:"label,omitempty"`
	Timestamp string     `json:"timestamp"`
	Config    configJSON `json:"config"`
	Ops       uint64     `json:"ops"`
	Errors    uint64     `json:"errors"`
	OpsPerSec float64    `json:"ops_per_sec"`
	// IdleOps counts the slow-drip operations issued over the held-open idle
	// connections (not part of Ops or the latency histogram).
	IdleOps uint64 `json:"idle_ops,omitempty"`
	// PerSecond is the throughput trajectory, one sample per elapsed second.
	PerSecond []uint64    `json:"per_second"`
	Latency   latencyJSON `json:"latency_us"`
	// AllocsPerOp is the process-wide heap allocation count per completed
	// operation over the measurement window (includes the in-process server
	// when -spawn).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// HeapInUse is the process's live heap after the run and a forced GC,
	// with any idle connections still held open (bytes; includes the
	// in-process server when -spawn — the per-idle-conn server cost is the
	// delta between runs that differ only in -idle-conns).
	HeapInUse uint64 `json:"heap_in_use_bytes"`
	// NumGoroutine is the process goroutine count at the same instant: in
	// -spawn mode it shows whether idle connections hold goroutines.
	NumGoroutine int       `json:"num_goroutine"`
	ServerWire   *wireJSON `json:"server_wire,omitempty"`
}

type configJSON struct {
	Conns           int     `json:"conns"`
	IdleConns       int     `json:"idle_conns"`
	IdleIntervalSec float64 `json:"idle_interval_sec,omitempty"`
	Pipeline        int     `json:"pipeline"`
	WritePct        int     `json:"write_pct"`
	DurationSec     float64 `json:"duration_sec"`
	Entries         int     `json:"entries"`
	Targets         int     `json:"targets"`
	Spawned         bool    `json:"spawned"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"num_cpu"`
}

type latencyJSON struct {
	P50  uint64  `json:"p50"`
	P90  uint64  `json:"p90"`
	P99  uint64  `json:"p99"`
	P999 uint64  `json:"p999"`
	Max  uint64  `json:"max"`
	Mean float64 `json:"mean"`
}

type wireJSON struct {
	LTAPMessagesRead      uint64  `json:"ltap_messages_read"`
	LTAPResponsesWritten  uint64  `json:"ltap_responses_written"`
	LTAPFlushes           uint64  `json:"ltap_flushes"`
	LTAPResponsesPerFlush float64 `json:"ltap_responses_per_flush"`
	DirMessagesRead       uint64  `json:"dir_messages_read"`
	DirResponsesWritten   uint64  `json:"dir_responses_written"`
	DirFlushes            uint64  `json:"dir_flushes"`
	DirResponsesPerFlush  float64 `json:"dir_responses_per_flush"`
	// LTAPParked is the number of idle connections parked on the gateway's
	// listener when the run ended (they hold no goroutine and no buffers).
	LTAPParked uint64 `json:"ltap_parked"`
}

// run opens cfg.conns connections round-robined across the targets, lets
// them spin through warmup, measures for cfg.duration, and aggregates the
// per-worker histograms.
func run(targets []string, dns []string, cfg runConfig) result {
	var (
		recording atomic.Bool
		stop      atomic.Bool
		ops       atomic.Uint64 // completed ops while recording
		errs      atomic.Uint64
		dialErrs  atomic.Uint64
	)
	workers := make([]*worker, cfg.conns)
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{
			hist: newHist(),
			rng:  rand.New(rand.NewSource(cfg.seed + int64(i))),
		}
		workers[i] = w
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := ldapclient.Dial(targets[i%len(targets)])
			if err != nil {
				dialErrs.Add(1)
				return
			}
			defer c.Close()
			w.loop(c, dns, cfg, &recording, &stop, &ops, &errs)
		}(i)
	}

	time.Sleep(cfg.warmup)
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	recording.Store(true)
	start := time.Now()

	// Sample the throughput trajectory once per second.
	perSecond := make([]uint64, 0, int(cfg.duration/time.Second)+1)
	tick := time.NewTicker(time.Second)
	var last uint64
	for elapsed := time.Duration(0); elapsed < cfg.duration; {
		<-tick.C
		elapsed = time.Since(start)
		cur := ops.Load()
		perSecond = append(perSecond, cur-last)
		last = cur
	}
	tick.Stop()

	recording.Store(false)
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	stop.Store(true)
	wg.Wait()

	total := ops.Load()
	h := newHist()
	for _, w := range workers {
		h.merge(w.hist)
	}
	res := result{
		Config: configJSON{
			Conns:       cfg.conns,
			Pipeline:    cfg.depth,
			WritePct:    cfg.writePct,
			DurationSec: round2(elapsed.Seconds()),
			Entries:     len(dns),
			Targets:     len(targets),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
		},
		Ops:       total,
		Errors:    errs.Load() + dialErrs.Load(),
		OpsPerSec: round2(float64(total) / elapsed.Seconds()),
		PerSecond: perSecond,
		Latency: latencyJSON{
			P50:  h.quantile(0.50),
			P90:  h.quantile(0.90),
			P99:  h.quantile(0.99),
			P999: h.quantile(0.999),
			Max:  h.max,
			Mean: round2(h.mean()),
		},
	}
	if total > 0 {
		res.AllocsPerOp = round2(float64(msAfter.Mallocs-msBefore.Mallocs) / float64(total))
	}
	// Steady-state footprint: active workers are gone, idle connections (if
	// any) are still held open. The forced GC makes HeapInuse mean live
	// bytes, not floating garbage.
	runtime.GC()
	var msFinal runtime.MemStats
	runtime.ReadMemStats(&msFinal)
	res.HeapInUse = msFinal.HeapInuse
	res.NumGoroutine = runtime.NumGoroutine()
	if n := dialErrs.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d of %d connections failed to dial\n", n, cfg.conns)
	}
	return res
}

// worker is one connection's closed loop.
type worker struct {
	hist *hist
	rng  *rand.Rand
}

func (w *worker) loop(c *ldapclient.Conn, dns []string, cfg runConfig,
	recording, stop *atomic.Bool, ops, errs *atomic.Uint64) {
	burst := make([]ldap.Op, cfg.depth)
	gen := 0
	for !stop.Load() {
		for i := range burst {
			dn := dns[w.rng.Intn(len(dns))]
			if w.rng.Intn(100) < cfg.writePct {
				gen++
				burst[i] = &ldap.ModifyRequest{DN: dn, Changes: []ldap.Change{{
					Op: ldap.ModReplace,
					Attribute: ldap.Attribute{Type: "roomNumber",
						Values: []string{fmt.Sprintf("R-%d", gen)}},
				}}}
			} else {
				burst[i] = &ldap.SearchRequest{BaseDN: dn, Scope: ldap.ScopeBaseObject}
			}
		}
		t0 := time.Now()
		results := c.Pipeline(burst)
		us := uint64(time.Since(t0).Microseconds())
		if !recording.Load() {
			for _, r := range results {
				if r.Err != nil {
					return // poisoned connection; transport errors don't recover
				}
			}
			continue
		}
		for _, r := range results {
			if r.Err != nil {
				errs.Add(1)
				return
			}
			ops.Add(1)
			w.hist.record(us)
		}
	}
}

// idlePool holds -idle-conns raw LDAP connections open, each issuing one
// base-object search per -idle-interval from a small fixed pool of poker
// goroutines — the 10k-mostly-idle-consumers regime of the paper's directory
// deployments. Raw net.Conns carry no client-library buffers and no per-conn
// goroutines, so the held connections cost this process almost nothing and
// the heap/goroutine readings isolate what the server pays per idle
// connection.
type idlePool struct {
	conns []net.Conn
	req   []byte
	ops   atomic.Uint64
	errs  atomic.Uint64
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// dialIdle opens n raw connections round-robined across the targets and
// proves each live with one search round-trip before it counts as held.
func dialIdle(targets []string, n int) (*idlePool, error) {
	p := &idlePool{
		conns: make([]net.Conn, n),
		// A base search against a missing DN: the cheapest full
		// request/dispatch/response cycle, answered in a single frame.
		req: (&ldap.Message{ID: 1, Op: &ldap.SearchRequest{
			BaseDN: "o=LoadgenIdleProbe", Scope: ldap.ScopeBaseObject}}).AppendTo(nil),
		stop: make(chan struct{}),
	}
	const dialers = 64
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	var next atomic.Int64
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 512)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				nc, err := net.Dial("tcp", targets[i%len(targets)])
				if err == nil {
					err = p.poke(nc, &buf)
				}
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				p.conns[i] = nc
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		p.closeAll()
		return nil, err
	default:
	}
	return p, nil
}

// poke issues one probe op on nc and reads the single-frame response.
func (p *idlePool) poke(nc net.Conn, scratch *[]byte) error {
	if _, err := nc.Write(p.req); err != nil {
		return err
	}
	return readFrame(nc, scratch)
}

// readFrame consumes exactly one BER frame using the caller's scratch buffer.
func readFrame(nc net.Conn, scratch *[]byte) error {
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer nc.SetReadDeadline(time.Time{})
	buf := (*scratch)[:0]
	defer func() { *scratch = buf }()
	for {
		size, ok, err := ber.FrameSize(buf, 0)
		if err != nil {
			return err
		}
		if ok && len(buf) >= size {
			return nil
		}
		var chunk [512]byte
		n, err := nc.Read(chunk[:])
		if err != nil {
			return err
		}
		buf = append(buf, chunk[:n]...)
	}
}

// start launches the poker pool: each poker owns a contiguous share of the
// connections and sweeps it once per interval, with first sweeps staggered
// across the interval so the drip never lands as a synchronized burst.
func (p *idlePool) start(interval time.Duration) {
	pokers := 8
	if len(p.conns) < pokers {
		pokers = len(p.conns)
	}
	share := (len(p.conns) + pokers - 1) / pokers
	for i := 0; i < pokers; i++ {
		lo, hi := i*share, (i+1)*share
		if hi > len(p.conns) {
			hi = len(p.conns)
		}
		if lo >= hi {
			break
		}
		p.wg.Add(1)
		go func(i, lo, hi int) {
			defer p.wg.Done()
			buf := make([]byte, 0, 512)
			delay := interval * time.Duration(i) / time.Duration(pokers)
			for {
				select {
				case <-p.stop:
					return
				case <-time.After(delay):
				}
				delay = interval
				for j := lo; j < hi; j++ {
					nc := p.conns[j]
					if nc == nil {
						continue
					}
					if err := p.poke(nc, &buf); err != nil {
						p.errs.Add(1)
						nc.Close()
						p.conns[j] = nil
						continue
					}
					p.ops.Add(1)
				}
			}
		}(i, lo, hi)
	}
}

// shutdown stops the pokers and closes every held connection. Idempotent.
func (p *idlePool) shutdown() {
	p.once.Do(func() {
		close(p.stop)
		p.wg.Wait()
		p.closeAll()
	})
}

func (p *idlePool) closeAll() {
	for i, nc := range p.conns {
		if nc != nil {
			nc.Close()
			p.conns[i] = nil
		}
	}
}

// hist is an HDR-style log-linear histogram of microsecond latencies: exact
// below 32µs, then 32 sub-buckets per power of two (≤ ~3% relative error),
// covering up to ~2^31 µs (~36 min) in 1024 counters.
type hist struct {
	counts [1024]uint64
	total  uint64
	sum    uint64
	max    uint64
}

func newHist() *hist { return &hist{} }

func (h *hist) record(us uint64) {
	h.counts[histIndex(us)]++
	h.total++
	h.sum += us
	if us > h.max {
		h.max = us
	}
}

func histIndex(v uint64) int {
	if v < 32 {
		return int(v)
	}
	exp := bits.Len64(v) - 6 // v >= 32, so exp >= 0
	idx := (exp+1)*32 + int(v>>uint(exp)) - 32
	if idx >= len((*hist)(nil).counts) {
		return len((*hist)(nil).counts) - 1
	}
	return idx
}

// histValue returns the upper edge of bucket idx.
func histValue(idx int) uint64 {
	if idx < 32 {
		return uint64(idx)
	}
	exp := idx/32 - 1
	sub := uint64(idx%32) + 32
	return (sub + 1) << uint(exp)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(q * float64(h.total))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			v := histValue(i)
			if v > h.max {
				return h.max
			}
			return v
		}
	}
	return h.max
}

func (h *hist) mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// splitTargets parses -addr: comma-separated addresses, blanks dropped.
func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// mergedResult is the head-to-head benchmark record: several labelled runs
// of the same revision combined into one file (the active run and the
// mostly-idle tiers of scripts/bench_wire.sh, in BENCH_wire_<rev>.json).
type mergedResult struct {
	Rev        string   `json:"rev"`
	Timestamp  string   `json:"timestamp"`
	Experiment string   `json:"experiment,omitempty"`
	Runs       []result `json:"runs"`
}

// mergeRuns combines per-run JSON files into one record and prints a
// side-by-side summary.
func mergeRuns(outPath string, files []string, rev, experiment string) {
	if len(files) == 0 {
		log.Fatal("loadgen: -merge needs at least one per-run JSON file argument")
	}
	doc := mergedResult{
		Rev:        rev,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Experiment: experiment,
	}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			log.Fatalf("loadgen: merge: %v", err)
		}
		var r result
		if err := json.Unmarshal(blob, &r); err != nil {
			log.Fatalf("loadgen: merge %s: %v", f, err)
		}
		if r.Label == "" {
			base := f
			if i := strings.LastIndexByte(base, '/'); i >= 0 {
				base = base[i+1:]
			}
			r.Label = strings.TrimSuffix(base, ".json")
		}
		doc.Runs = append(doc.Runs, r)
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("loadgen: merge marshal: %v", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		log.Fatalf("loadgen: write %s: %v", outPath, err)
	}
	fmt.Printf("%-26s %7s %7s %10s %8s %14s %11s %7s\n",
		"label", "conns", "idle", "ops/s", "p99us", "heap-bytes", "goroutines", "parked")
	for _, r := range doc.Runs {
		parked := "-"
		if r.ServerWire != nil {
			parked = fmt.Sprint(r.ServerWire.LTAPParked)
		}
		fmt.Printf("%-26s %7d %7d %10.0f %8d %14d %11d %7s\n",
			r.Label, r.Config.Conns, r.Config.IdleConns, r.OpsPerSec, r.Latency.P99,
			r.HeapInUse, r.NumGoroutine, parked)
	}
	fmt.Printf("wrote %s\n", outPath)
}

// revision resolves the label for the output filename.
func revision(explicit string) string {
	if explicit != "" {
		return explicit
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
