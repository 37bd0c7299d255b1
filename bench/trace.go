package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Tracing. The traced run records a span around every client call (a root
// span: op id, kind, due, actually sent, ended) and, in the ladder that
// follows the load, a child span around each call made directly into a
// deeper layer for an operation drawn from the same stream. The spans come
// from the benchmark's own files; spans inside the program are a later
// change. They stay in memory and are written to bench/out/ when the run
// ends.

// span is one timed interval. Times are nanoseconds since the run's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Due    int64  `json:"due_ns,omitempty"` // root spans of the open loop: when the request was due
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root records a client call and returns its span id, which is also the op
// id its children carry.
func (t *tracer) root(name, kind string, due, start, end int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Op: t.ops, Name: name, Kind: kind, Due: due, Start: start, End: end})
	return id
}

// end closes a root span that was opened before its children ran.
func (t *tracer) end(id int64) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// child records a call into a layer made on behalf of the op whose root span
// is parent.
func (t *tracer) child(parent int64, name, kind string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := int64(0)
	if parent > 0 && int(parent) <= len(t.spans) {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Kind: kind, Start: start, End: end})
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), append(blob, '\n'), 0o644)
}

// rung is one step of the layer ladder: the median time of the calls that
// entered the stack at this depth, and the deeper rungs those calls pass
// through. Children run one after another unless marked parallel (the Update
// Manager fans out to the devices concurrently), in which case the slowest
// one is what the parent waits for.
type rung struct {
	name     string
	ns       float64
	parallel bool
	children []*rung
}

// self is the rung's own time: its median minus the part its children
// cover, never below zero (two medians of different samples can cross).
func (r *rung) self() float64 {
	covered := 0.0
	for _, c := range r.children {
		if r.parallel {
			covered = max(covered, c.ns)
		} else {
			covered += c.ns
		}
	}
	return max(r.ns-covered, 0)
}

// explained is the sum of the self times of every rung of the ladder, over
// the end-to-end time it is meant to explain. Parallel groups contribute
// their slowest member's subtree only.
func (r *rung) explained(endToEnd float64) float64 {
	if endToEnd <= 0 {
		return 0
	}
	return r.sumSelf() / endToEnd
}

func (r *rung) sumSelf() float64 {
	sum := r.self()
	if r.parallel {
		var slowest *rung
		for _, c := range r.children {
			if slowest == nil || c.ns > slowest.ns {
				slowest = c
			}
		}
		if slowest != nil {
			sum += slowest.sumSelf()
		}
		return sum
	}
	for _, c := range r.children {
		sum += c.sumSelf()
	}
	return sum
}
