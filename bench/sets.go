package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// A set is what -all writes and -compare reads: every run of every workload
// of one revision, so that medians and run-to-run spreads can be taken.
type runSet struct {
	Runs []*result `json:"runs"`
}

// runAll runs every workload `runs` times, seeds seed..seed+runs-1, each run
// in a process of its own (peak memory and the garbage collector's state
// must not leak from one run into the next), then prints each metric's
// median and quartile spread per workload against its bound.
func runAll(spec *benchSpec, root string, seed int64, runs int, seconds float64, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	set := &runSet{}
	failed := false
	for _, w := range spec.Workloads {
		for i := 0; i < runs; i++ {
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			if _, err := cmd.Output(); err != nil {
				// Exit code 2 is a run whose gate failed; its record exists.
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed+int64(i), err)
				failed = true
			}
			name := "result_" + w.Name
			if trace != 0 {
				name += "_trace"
			}
			r, err := loadResult(filepath.Join(root, "bench", "out", name+".json"))
			if err != nil {
				fatal(err)
			}
			set.Runs = append(set.Runs, r)
			fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d\n", w.Name, r.Env.Seed, r.Correct, r.Attempted, r.Failed)
		}
	}
	if out != "" {
		blob, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	list := spec.EndToEnd
	if trace != 0 {
		list = spec.PerLayer
	}
	fmt.Printf("\n%-14s %-34s %14s %14s %14s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range spec.Workloads {
		for _, m := range list {
			v := set.values(w.Name, m.Name)
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			mark := ""
			if m.Bound > 0 && spread(v) > m.Bound/3 {
				mark = "  > bound/3"
			}
			if m.Bound > 0 && spread(v) > m.Bound {
				mark = "  > BOUND"
			}
			fmt.Printf("%-14s %-34s %14.4f %14.4f %14.4f %7.1f%% %6.2f%s\n", w.Name, m.Name, q1, q2, q3, spread(v)*100, m.Bound, mark)
		}
	}
	if failed {
		return 2
	}
	return 0
}

func loadResult(path string) (*result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &result{}
	if err := json.Unmarshal(blob, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func loadSet(path string) (*runSet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &runSet{}
	if err := json.Unmarshal(blob, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return s, nil
}

// values returns the metric's value in every run of the workload.
func (s *runSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		if rd, ok := r.Metrics[metric]; ok {
			v = append(v, rd.Value)
		}
	}
	return v
}

func (s *runSet) failures(workload string) (failed, attempted int64) {
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

// verdict compares a metric's medians under its bound. Where either side's
// own run-to-run spread is wider than the bound, a difference inside the
// bound proves nothing: the metric is unresolved, not unchanged.
func verdict(m metricSpec, base, cur []float64) string {
	b, c := median(base), median(cur)
	if m.Bound == 0 {
		return "-" // per-layer metrics carry no bound
	}
	worse, better := c > b*(1+m.Bound), c < b*(1-m.Bound)
	if m.Better == "higher" {
		worse, better = better, worse
	}
	switch {
	case worse:
		return "REGRESSED"
	case better:
		return "improved"
	case spread(base) > m.Bound || spread(cur) > m.Bound:
		return "unresolved"
	}
	return "unchanged"
}

// compareSets prints one row per metric and workload — base, new, ratio,
// bound, both spreads, verdict — and returns non-zero when an end-to-end
// metric regressed past its bound or a workload failed more often.
func compareSets(spec *benchSpec, basePath, curPath string) int {
	base, err := loadSet(basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadSet(curPath)
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Printf("%-14s %-34s %14s %14s %7s %6s %8s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "spread0", "spread1", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			b, c := base.values(w.Name, m.Name), cur.values(w.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(m, b, c)
			if v == "REGRESSED" {
				code = 1
			}
			ratio := 0.0
			if mb := median(b); mb != 0 {
				ratio = median(c) / mb
			}
			fmt.Printf("%-14s %-34s %14.4f %14.4f %7.3f %6.2f %7.1f%% %7.1f%%  %s\n", w.Name, m.Name,
				median(b), median(c), ratio, m.Bound, spread(b)*100, spread(c)*100, v)
		}
		fb, ab := base.failures(w.Name)
		fc, ac := cur.failures(w.Name)
		rb, rc := float64(fb)/float64(max(ab, 1)), float64(fc)/float64(max(ac, 1))
		v := "unchanged"
		if rc > rb {
			v, code = "REGRESSED", 1
		}
		fmt.Printf("%-14s %-34s %14.6f %14.6f %7s %6s %8s %8s  %s\n", w.Name, "fail_ratio (failed/attempted)", rb, rc, "", "any", "", "", v)
	}
	return code
}

func sortedNames(m map[string]reading) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
