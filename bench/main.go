// Command bench is MetaComm's one benchmark: four workloads, the end-to-end
// metrics a user of the meta-directory would see, and a per-layer ladder that
// explains them. BENCHMARK.json at the root of the repository declares the
// workloads and metrics; README.md in this directory is the glossary.
//
//	bash bench/run.sh --workload read_mostly --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload read_mostly --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh -all -runs 10 -out bench/out/set.json
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runCtx is one run's parameters and its result under construction.
type runCtx struct {
	spec     *benchSpec
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	conns    int
	tmp      string // scratch directory for data dirs, inside the checkout
	outDir   string
	res      *result
}

// repeats is how many times a repeated measurement (set-up, cold start,
// join) runs; the short pass used by the tests does each once.
func (rc *runCtx) repeats(n int) int {
	if rc.short {
		return 1
	}
	return n
}

// scale shortens a fixed pause in the short pass.
func (rc *runCtx) scale(d time.Duration) time.Duration {
	if rc.short {
		return d / 10
	}
	return d
}

// account adds the stages' operations and failures to the result.
func (rc *runCtx) account(stages ...*stage) {
	for _, st := range stages {
		rc.res.Attempted += int64(len(st.samples))
		for _, f := range st.failures {
			rc.res.failf("%s: %s", st.name, f)
		}
		if extra := st.failed - int64(len(st.failures)); extra > 0 {
			rc.res.Failed += extra
		}
	}
}

// genHealth records the generator's own lateness and CPU share for the stage
// the latencies come from.
func (rc *runCtx) genHealth(st *stage) {
	rc.res.set("gen.late_p99_us", st.lateP99, len(st.samples), "written after due; "+st.name+" stage")
	rc.res.set("gen.cpu_share", st.cpuShare, 0, "generator threads' CPU / process CPU; "+st.name+" stage")
}

func connsFor(n int) int {
	return min(max(n, 1), 4)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "measured seconds (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = the traced run that reports the per-layer metrics")
		short    = flag.Bool("short", false, "tiny population and sub-second stages (smoke test; numbers mean nothing)")
		all      = flag.Bool("all", false, "run every workload -runs times, each in its own process, and report medians and spreads")
		runs     = flag.Int("runs", 3, "with -all: runs per workload, seeds seed..seed+runs-1")
		out      = flag.String("out", "", "with -all: write the set of runs to this file")
		compare  = flag.Bool("compare", false, "compare two sets written by -all: bench -compare old.json new.json")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare old.json new.json"))
		}
		os.Exit(compareSets(spec, flag.Arg(0), flag.Arg(1)))
	case *all:
		os.Exit(runAll(spec, root, *seed, *runs, *seconds, *trace, *out))
	}
	if !spec.hasWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q; BENCHMARK.json declares %v", *workload, spec.Workloads))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	tmp, err := os.MkdirTemp(mkdirAll(filepath.Join(root, ".bench_build", "tmp")), "run-")
	if err != nil {
		fatal(err)
	}
	rc := &runCtx{spec: spec, workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		short: *short, conns: connsFor(runtime.NumCPU()), tmp: tmp, outDir: filepath.Join(root, "bench", "out")}
	e := currentEnv(tmp)
	e.Conns, e.Seed, e.Seconds, e.Short = rc.conns, rc.seed, rc.seconds, rc.short
	rc.res = newResult(spec, rc.workload, rc.trace, e)
	started := time.Now()
	err = rc.run()
	os.RemoveAll(tmp)
	if err != nil {
		// The run itself broke (as opposed to the system answering wrongly):
		// no result line, non-zero exit.
		fatal(err)
	}
	rc.res.set("run_wall_s", time.Since(started).Seconds(), 0, "the whole run, set-up and gates included")
	rc.res.finish()
	if err := rc.res.save(rc.outDir); err != nil {
		fatal(err)
	}
	rc.res.print()
	if !rc.res.Correct {
		os.Exit(2)
	}
}

func (rc *runCtx) run() error {
	switch rc.workload {
	case "read_mostly", "write_fanout":
		if rc.trace {
			return traceLDAP(rc, ldapPlans[rc.workload])
		}
		return runLDAP(rc, ldapPlans[rc.workload])
	case "device_origin":
		return runDeviceOrigin(rc)
	case "mesh_restart":
		return runMeshRestart(rc)
	}
	return fmt.Errorf("workload %q is declared in BENCHMARK.json but not implemented", rc.workload)
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
