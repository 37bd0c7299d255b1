package main

import (
	"sync"
	"time"

	"metacomm/internal/directory"
)

// follower times updates past their acknowledgement: from when an update was
// due, to its ack at the repository it entered, to the moment a directory
// commits it (the local one for a direct device update, a peer's for a
// replicated write). Every followed update writes a value that is unique in
// the run, which is how the commit is recognized on the changelog.
type follower struct {
	epoch time.Time
	attrs []string // attributes whose committed value identifies an update

	mu   sync.Mutex
	recs map[string]*followed

	cancel func()
	done   chan struct{}
}

type followed struct {
	due, ack, seen int64 // ns since epoch; 0 = not yet
	visible        chan struct{}
}

// follow subscribes to d's changelog from its current commit sequence.
func follow(d *directory.DIT, epoch time.Time, attrs ...string) *follower {
	f := &follower{epoch: epoch, attrs: attrs, recs: map[string]*followed{}, done: make(chan struct{})}
	const buffer = 1 << 16 // a run commits far fewer records between two reads of the channel
	backlog, ch, cancel, ok := d.SubscribeFrom(d.Seq(), buffer)
	if !ok {
		_, ch, cancel = d.SnapshotAndSubscribe(buffer)
	}
	f.cancel = cancel
	go func() {
		defer close(f.done)
		for i := range backlog {
			f.commit(&backlog[i])
		}
		for rec := range ch {
			f.commit(&rec)
		}
	}()
	return f
}

func (f *follower) now() int64 { return int64(time.Since(f.epoch)) }

func (f *follower) commit(rec *directory.UpdateRecord) {
	img := rec.PostImage()
	if img == nil {
		return
	}
	now := f.now()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range f.attrs {
		if r := f.recs[img.First(a)]; r != nil && r.seen == 0 {
			r.seen = now
			close(r.visible)
		}
	}
}

// expect registers an update before it is issued.
func (f *follower) expect(value string, due int64) *followed {
	r := &followed{due: due, visible: make(chan struct{})}
	f.mu.Lock()
	f.recs[value] = r
	f.mu.Unlock()
	return r
}

func (f *follower) acked(value string, at int64) {
	f.mu.Lock()
	if r := f.recs[value]; r != nil {
		r.ack = at
	}
	f.mu.Unlock()
}

// stop ends the subscription.
func (f *follower) stop() {
	f.cancel()
	<-f.done
}

// wait blocks until every registered update was seen or the limit passes,
// and returns how many never showed up.
func (f *follower) wait(limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		missing := 0
		f.mu.Lock()
		for _, r := range f.recs {
			if r.seen == 0 {
				missing++
			}
		}
		f.mu.Unlock()
		if missing == 0 || time.Now().After(deadline) {
			return missing
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// spans returns, for updates due in [from, to), the due->seen and ack->seen
// intervals (the latter floored at zero: a commit can be observed a moment
// before the issuing call returns).
func (f *follower) spans(from, to int64) (total, afterAck []timed) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.recs {
		if r.due < from || r.due >= to || r.seen == 0 {
			continue
		}
		total = append(total, timed{due: r.due - from, lat: r.seen - r.due})
		if r.ack != 0 {
			afterAck = append(afterAck, timed{due: r.due - from, lat: max(r.seen-r.ack, 0)})
		}
	}
	return total, afterAck
}

// behind returns, for updates due in [from, to) that both followers saw, how
// long after origin's commit f's directory committed them.
func (f *follower) behind(origin *follower, from, to int64) []timed {
	origin.mu.Lock()
	first := make(map[string]int64, len(origin.recs))
	for v, r := range origin.recs {
		if r.seen != 0 {
			first[v] = r.seen
		}
	}
	origin.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []timed
	for v, r := range f.recs {
		if at, ok := first[v]; ok && r.seen != 0 && r.due >= from && r.due < to {
			out = append(out, timed{due: r.due - from, lat: max(r.seen-at, 0)})
		}
	}
	return out
}
