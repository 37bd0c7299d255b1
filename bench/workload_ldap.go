package main

import (
	"fmt"
	"time"

	metacomm "metacomm"
)

// ldapPlan is a front-door workload: a population, an operation mix and the
// three fixed offered rates of the traced run's open-loop stages. The rates
// are absolute and frozen here, calibrated once on the 2-core reference box
// (low is comfortable, high is past what the open loop sustains): a rate that
// followed the measured capacity would hide a regression by offering a
// slower system less load.
type ldapPlan struct {
	mix           mix
	entries       int
	low, mid, hi  float64 // offered ops/s over all connections
	searchPrimary bool    // the primary latency is the search's, else the write's
}

var ldapPlans = map[string]ldapPlan{
	"read_mostly":  {mix: mixReadMostly, entries: 20000, low: 2000, mid: 4000, hi: 10000, searchPrimary: true},
	"write_fanout": {mix: mixWriteFanout, entries: 20000, low: 350, mid: 700, hi: 1700},
}

// Latency limits on the p99 at a fixed rate (max_rate_ok).
const (
	searchLimit = 5 * time.Millisecond
	writeLimit  = 20 * time.Millisecond
)

const warmup = 1500 * time.Millisecond

// window is the width of the windows whose tail quantiles are medianed.
const window = 2 * time.Second

func frac(seconds float64, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}

// latency is what one class of requests of one stage took, in µs.
type latency struct {
	p50      float64
	p95, p99 float64 // medians of the 2-second windows' quantiles
	n        int     // samples
	wins     int     // windows behind the p99
}

// latencyOf returns the median of the samples, and their p95 and p99 as the
// median of the 2-second windows' quantiles (the whole stage's when no window
// has ten samples beyond its own, as for the minority class of a mix).
//
// The p95 is the bounded tail. On every workload the p99 sits on the knee
// between the body and a sparse heavy tail (collector cycles, a slow fsync):
// mesh_restart's windows read p98 1.1 ms, p99 1.1-2.3 ms, p99.5 3.6 ms in one
// run, so the p99 moves 25-50% between runs of the same code while the p95
// holds within a few percent.
func latencyOf(ts []timed, stageDur time.Duration, short bool) latency {
	all := make([]int64, len(ts))
	for i, t := range ts {
		all[i] = t.lat
	}
	sorted := sortedCopy(all)
	width, beyond := int64(window), 10
	if short {
		width, beyond = int64(stageDur), 1
	}
	tail := func(q float64) (float64, int) {
		v, wins := windowQuantile(ts, width, q, beyond)
		if wins == 0 {
			v = float64(quantile(sorted, q))
		}
		return v / 1e3, wins
	}
	l := latency{p50: float64(quantile(sorted, 0.5)) / 1e3, n: len(all)}
	l.p95, _ = tail(0.95)
	l.p99, l.wins = tail(0.99)
	return l
}

// latencyReadings sets <prefix>_p50_us, _p95_us and _p99_us from a stage's
// searches or updates. An open-loop stage in which the generator itself was
// the bottleneck is marked invalid.
func latencyReadings(r *result, prefix string, st *stage, search bool, short bool) latency {
	l := latencyOf(st.latencies(search), st.dur, short)
	note := "closed loop"
	if st.rate > 0 {
		note = fmt.Sprintf("from intended send, at %.0f ops/s", st.rate)
		if st.lateP99 > 1000 || st.cpuShare > 0.5 {
			note = fmt.Sprintf("invalid: generator late p99 %.0f us, cpu share %.2f", st.lateP99, st.cpuShare)
		}
	}
	r.set(prefix+"_p50_us", l.p50, l.n, note)
	r.set(prefix+"_p95_us", l.p95, 0, note+"; median of 2 s window p95s")
	r.set(prefix+"_p99_us", l.p99, l.wins, note+"; median of 2 s window p99s")
	return l
}

// primary sets the bounded latencies of an untraced run from the workload's
// primary operation; its p99 is printed beside them as detail.
func (r *result) primary(l latency, what string) {
	r.set("p50_us", l.p50, l.n, what)
	r.set("p95_us", l.p95, 0, "median of 2 s window p95s")
	r.set("p99_us", l.p99, l.wins, "median of 2 s window p99s; not bounded, it sits on the knee of the tail")
}

func buildPeople(entries int) func(dir string) (*metacomm.System, error) {
	return func(dir string) (*metacomm.System, error) {
		sys, err := startDefault(dir)
		if err != nil {
			return nil, err
		}
		if err := seedPeople(sys, entries); err != nil {
			sys.Close()
			return nil, err
		}
		return sys, nil
	}
}

// Repeats of the short measurements: one cold start or one synchronization
// pass is a single sample of something a neighbour on the box can double.
const (
	setupRepeats   = 3
	recoverRepeats = 7
	bulkRepeats    = 3
)

// runLDAP runs a front-door workload without tracing:
//
//	set-up x3 (median) -> warm -> closed loop for --seconds (C connections,
//	one request outstanding each) -> correctness gate -> synchronization
//	audit x3 (median) -> cold restart x7 (median)
//
// Throughput and both latencies come from the closed loop. The fixed-rate
// open loop lives in the traced run: on the 2-core reference box its
// latencies swing 15-40% from run to run (every estimator tried, see the
// README), which no bound the referee may use can hold.
func runLDAP(rc *runCtx, plan ldapPlan) error {
	r := rc.res
	if rc.short {
		plan.entries = 500
	}
	r.Env.Entries = plan.entries
	sys, dataDir, setupS, err := setupRepeated(rc.tmp, rc.repeats(setupRepeats), buildPeople(plan.entries))
	if err != nil {
		return err
	}
	defer func() { sys.Close() }()
	r.set("setup_s", setupS, rc.repeats(setupRepeats), "median; start + seed")

	gen, err := newGenerator(sys.LTAPAddrActual, plan.mix, rc.seed, rc.conns, plan.entries)
	if err != nil {
		return err
	}
	defer gen.close()
	gen.run("warm", rc.scale(warmup), 0)
	closed := gen.run("closed", frac(rc.seconds, 1), 0)
	rc.account(closed)
	ops, wins := closed.throughput()
	r.set("ops_per_s", ops, wins, fmt.Sprintf("median of 0.5 s windows; closed loop, %d connections", rc.conns))
	search := latencyReadings(r, "search", closed, true, rc.short)
	write := latencyReadings(r, "write", closed, false, rc.short)
	if plan.searchPrimary {
		r.primary(search, "search round trip, closed loop")
	} else {
		r.primary(write, "update round trip, closed loop")
	}

	g := &gate{res: r}
	var trackers []*tracker
	for _, c := range gen.conns {
		trackers = append(trackers, c.tr)
	}
	if err := g.checkWrites(sys, trackers, true); err != nil {
		return err
	}
	var audits []float64
	for i := 0; i < rc.repeats(bulkRepeats); i++ {
		audits = append(audits, g.audit(sys))
	}
	r.set("bulk_entries_per_s", median(audits), len(audits), "median; device records audited per second by a synchronization pass")
	err = restartAndFinish(rc, g, &sys, dataDir)
	r.Attempted += g.checked
	return err
}
