package ltap

import (
	"strings"
	"sync"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/lexpress"
)

// BeforeImageCache keeps the gateway's before-images of backing-server
// entries so that trapping an update does not require a round-trip per
// operation. The trap path (fetchOld) consults the cache first; a miss falls
// through to the backend and the fetched image is written through.
//
// Coherence comes from the directory changelog: AttachChangelog subscribes
// the cache to the backing DIT's committed-update stream and every Lookup
// drains pending records before reading. Because the directory emits records
// synchronously at commit, and all updates to an entry commit while the
// gateway holds that entry's LTAP lock, any record affecting an entry is
// already in the channel by the time a later trap for the same entry drains —
// the cached image a Lookup returns is never older than the last committed
// update. Modify records are applied to cached images (not discarded) so the
// cache stays warm under repeated writes to the same entry, which is the
// dominant trap-path pattern.
//
// Without a changelog (e.g. a remote backend that is not the in-process
// DIT), the gateway falls back to invalidating written entries on the trap
// path itself; entries changed behind the gateway's back are then stale until
// the next invalidation, so the changelog hookup is strongly preferred.
type BeforeImageCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]lexpress.Record

	source  *directory.DIT
	changes <-chan directory.UpdateRecord
	cancel  func()

	hits, misses, invalidations, resyncs, evictions uint64
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Size          int
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	// Resyncs counts changelog overflows that forced a flush + resubscribe.
	Resyncs   uint64
	Evictions uint64
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// NewBeforeImageCache returns a cache holding at most max entries (<=0 picks
// a default).
func NewBeforeImageCache(max int) *BeforeImageCache {
	if max <= 0 {
		max = 4096
	}
	return &BeforeImageCache{max: max, entries: make(map[string]lexpress.Record)}
}

// AttachChangelog subscribes the cache to the DIT's committed-update stream
// and warm-starts it from the subscription snapshot. Call before serving.
func (c *BeforeImageCache) AttachChangelog(d *directory.DIT) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		c.cancel()
	}
	c.source = d
	c.subscribeLocked()
}

// subscribeLocked (re)subscribes and loads the snapshot, up to capacity.
func (c *BeforeImageCache) subscribeLocked() {
	snapshot, changes, cancel := c.source.SnapshotAndSubscribe(0)
	c.changes, c.cancel = changes, cancel
	for _, e := range snapshot {
		if len(c.entries) >= c.max {
			break
		}
		c.entries[e.DN.Normalize()] = recordFromAttrs(e.Attrs)
	}
}

// ChangelogAttached reports whether the cache is coherent via the changelog.
func (c *BeforeImageCache) ChangelogAttached() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.changes != nil
}

// Close cancels the changelog subscription.
func (c *BeforeImageCache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
		c.changes = nil
		c.source = nil
	}
}

// Lookup returns a copy of the cached image of name. It first drains any
// pending changelog records so the answer reflects every committed update.
func (c *BeforeImageCache) Lookup(name string) (lexpress.Record, bool) {
	parsed, err := dn.Parse(name)
	if err != nil {
		return nil, false
	}
	key := parsed.Normalize()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainLocked()
	if rec, ok := c.entries[key]; ok {
		c.hits++
		return rec.Clone(), true
	}
	c.misses++
	return nil, false
}

// Store writes through an image fetched from the backend. The caller must
// hold the entry's LTAP lock (the trap path does), which guarantees the
// image cannot be stale relative to undrained changelog records.
func (c *BeforeImageCache) Store(name string, rec lexpress.Record) {
	parsed, err := dn.Parse(name)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(parsed.Normalize(), rec.Clone())
}

// Invalidate drops name and everything under it (trap-path coherence when no
// changelog is attached; subtree semantics cover ModifyDN renames).
func (c *BeforeImageCache) Invalidate(name string) {
	parsed, err := dn.Parse(name)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidateSubtreeLocked(parsed.Normalize())
}

// Stats returns a counter snapshot.
func (c *BeforeImageCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: len(c.entries), Hits: c.hits, Misses: c.misses,
		Invalidations: c.invalidations, Resyncs: c.resyncs, Evictions: c.evictions,
	}
}

// drainLocked applies every pending changelog record. A closed channel means
// the subscription overflowed: flush everything and resync from a fresh
// snapshot.
func (c *BeforeImageCache) drainLocked() {
	if c.changes == nil {
		return
	}
	for {
		select {
		case rec, ok := <-c.changes:
			if !ok {
				c.entries = make(map[string]lexpress.Record)
				c.resyncs++
				c.subscribeLocked()
				return
			}
			c.applyLocked(rec)
		default:
			return
		}
	}
}

// applyLocked folds one committed update into the cache.
func (c *BeforeImageCache) applyLocked(rec directory.UpdateRecord) {
	parsed, err := dn.Parse(rec.DN)
	if err != nil {
		return
	}
	key := parsed.Normalize()
	switch rec.Op {
	case "add", "entry":
		c.storeLocked(key, recordFromAttrs(rec.PostImage()))
	case "delete":
		if _, ok := c.entries[key]; ok {
			delete(c.entries, key)
			c.invalidations++
		}
	case "modify":
		cached, ok := c.entries[key]
		if !ok {
			return // cold entry stays cold until the trap path faults it in
		}
		for _, ch := range rec.Changes {
			applyChange(cached, ch)
		}
	case "modifydn":
		// A rename moves the whole subtree; drop the old names and let the
		// new ones fault in on first use.
		c.invalidateSubtreeLocked(key)
	default:
		// Unknown record shape: the safe reaction is a full flush.
		c.entries = make(map[string]lexpress.Record)
		c.invalidations++
	}
}

// applyChange mirrors the DIT's modify semantics on a cached record.
func applyChange(rec lexpress.Record, ch directory.UpdateChange) {
	switch ch.Op {
	case "replace":
		rec.Set(ch.Attr, ch.Values...)
	case "add":
		have := rec.Get(ch.Attr)
		merged := append(append([]string(nil), have...), missingValues(have, ch.Values)...)
		rec.Set(ch.Attr, merged...)
	case "delete":
		if len(ch.Values) == 0 {
			rec.Set(ch.Attr) // removes the attribute
			return
		}
		kept := missingValues(ch.Values, rec.Get(ch.Attr))
		rec.Set(ch.Attr, kept...)
	}
}

// missingValues returns the values in vs that are not in have.
func missingValues(have, vs []string) []string {
	var out []string
	for _, v := range vs {
		found := false
		for _, h := range have {
			if h == v {
				found = true
				break
			}
		}
		if !found {
			out = append(out, v)
		}
	}
	return out
}

func (c *BeforeImageCache) storeLocked(key string, rec lexpress.Record) {
	if _, ok := c.entries[key]; !ok && len(c.entries) >= c.max {
		for k := range c.entries {
			delete(c.entries, k)
			c.evictions++
			break
		}
	}
	c.entries[key] = rec
}

func (c *BeforeImageCache) invalidateSubtreeLocked(key string) {
	suffix := "," + key
	for k := range c.entries {
		if k == key || strings.HasSuffix(k, suffix) {
			delete(c.entries, k)
			c.invalidations++
		}
	}
}

// recordFromAttrs builds a Record from a directory attribute image (Set
// copies the values, so the shared image is never aliased).
func recordFromAttrs(a *directory.Attrs) lexpress.Record {
	rec := make(lexpress.Record, a.Len())
	a.EachSorted(func(k string, vs []string) { rec.Set(k, vs...) })
	return rec
}
