package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// reading is one measured metric.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a percentile or a median.
	N int `json:"n,omitempty"`
	// Note says how to read the value; "invalid: ..." marks a latency taken
	// while the generator itself was the bottleneck.
	Note string `json:"note,omitempty"`
}

// env is what a reader needs to know about the box and the run before
// comparing two results.
type env struct {
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Rev        string             `json:"git_rev"`
	Conns      int                `json:"conns"` // C: connections, and so the write concurrency
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Rates      map[string]float64 `json:"rates_ops_per_s,omitempty"`
	Entries    int                `json:"entries"`
	SyncMode   string             `json:"journal_sync"`
	TmpFS      string             `json:"tmp_filesystem"`
	Short      bool               `json:"short,omitempty"`
}

// result is one run of one workload: the record the -all and -compare modes
// work on, and the source of the last line the driver reads.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Env       env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]reading `json:"metrics"`
	// Detail holds every other named reading of the run (the sixteen
	// end-to-end names of the issue, stage by stage); it is printed and
	// stored but not part of the driver's contract.
	Detail map[string]reading `json:"detail,omitempty"`

	spec *benchSpec
}

func newResult(spec *benchSpec, workload string, trace bool, e env) *result {
	return &result{Workload: workload, Trace: trace, Env: e, spec: spec,
		Metrics: map[string]reading{}, Detail: map[string]reading{}}
}

// set records a reading under its declared unit. A name BENCHMARK.json
// declares goes to Metrics when it belongs to this run's list (end_to_end
// without tracing, per_layer with it); every other name goes to Detail.
func (r *result) set(name string, value float64, n int, note string) {
	if m, ok := r.spec.metric(name); ok {
		rd := reading{Value: value, Unit: m.Unit, N: n, Note: note}
		if r.declared(name) {
			r.Metrics[name] = rd
		} else {
			r.Detail[name] = rd
		}
		return
	}
	r.Detail[name] = reading{Value: value, Unit: unitOfName(name), N: n, Note: note}
}

func (r *result) declared(name string) bool {
	list := r.spec.EndToEnd
	if r.Trace {
		list = r.spec.PerLayer
	}
	for _, m := range list {
		if m.Name == name {
			return true
		}
	}
	return false
}

// unitOfName reads the unit off a metric name's suffix.
func unitOfName(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ms", "ms"}, {"_ns", "ns"}, {"_per_s", "1/s"}, {"_s", "s"},
		{"_mb", "MB"}, {"_pct", "%"}, {"_ratio", "ratio"}, {"_share", "ratio"}, {"_allocs", "count"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

func (r *result) failf(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish fills in what the driver's contract needs: every declared metric of
// this run's list present (0 for a layer the workload does not reach — only
// per-layer metrics may be 0), and correct only when nothing failed.
func (r *result) finish() {
	list := r.spec.EndToEnd
	if r.Trace {
		list = r.spec.PerLayer
	}
	for _, m := range list {
		if _, ok := r.Metrics[m.Name]; !ok {
			if !r.Trace {
				r.failf("end-to-end metric %s was not measured", m.Name)
			}
			r.Metrics[m.Name] = reading{Unit: m.Unit, Note: "not reached by this workload"}
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
}

// print writes the human-readable report and, last, the one-line JSON object
// the driver parses.
func (r *result) print() {
	fmt.Printf("workload %s  trace=%v  seed=%d  C=%d  entries=%d  nproc=%d  go=%s  rev=%s  fs=%s\n",
		r.Workload, r.Trace, r.Env.Seed, r.Env.Conns, r.Env.Entries, r.Env.NumCPU, r.Env.GoVersion, r.Env.Rev, r.Env.TmpFS)
	printReadings := func(title string, m map[string]reading) {
		if len(m) == 0 {
			return
		}
		fmt.Println(title)
		for _, n := range sortedNames(m) {
			rd := m[n]
			line := fmt.Sprintf("  %-36s %14s %-6s", n, strconv.FormatFloat(rd.Value, 'f', -1, 64), rd.Unit)
			if rd.N > 0 {
				line += fmt.Sprintf(" n=%d", rd.N)
			}
			if rd.Note != "" {
				line += "  " + rd.Note
			}
			fmt.Println(line)
		}
	}
	printReadings("detail:", r.Detail)
	printReadings("metrics:", r.Metrics)
	for _, f := range r.Failures {
		fmt.Println("FAILED:", f)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]wire{}}
	for n, rd := range r.Metrics {
		out.Metrics[n] = wire{rd.Value, rd.Unit}
	}
	blob, _ := json.Marshal(out) // plain numbers and strings cannot fail to marshal
	fmt.Println(string(blob))
}

// save writes the full record under bench/out/.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := "result_" + r.Workload
	if r.Trace {
		name += "_trace"
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(blob, '\n'), 0o644)
}

func currentEnv(tmp string) env {
	rev := os.Getenv("BENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Rev: rev, SyncMode: "group", TmpFS: filesystemOf(tmp),
	}
}

func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
