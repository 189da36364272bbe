// Package seqcache is the content-addressed cache of rendered synthetic
// sequences. Rendering a sequence (ray-marching an SDF scene along a
// trajectory) dwarfs the cost of reading it back, and a campaign grid
// re-renders the same few sequences once per scenario cell, once per
// cooperating process, once per stage. The cache keys each rendered
// sequence by a canonical content hash of everything that determines its
// frames (see core.Scale.CacheKey), so all cells, stages and worker
// processes sharing a cache directory render each distinct sequence
// exactly once and load it everywhere else.
//
// The cache is the SQC1 payload codec (format.go), sealed in the
// sharedfs.Frame, and a flat key schema — `<key>.seq` — over the
// sharedfs compute-once Store, whose package comment describes the
// frame, the ladder, its crash-safety contract and the Inline failure
// policy this cache runs with: every cache failure degrades to inline
// rendering, logged and counted in Stats.Degradations, never fatal. On
// top of the store the cache keeps an in-process per-key memory map, so
// concurrent Sequence calls for a key single-flight and later ones reuse
// the materialised frames.
package seqcache

import (
	"sync"

	"slamgo/internal/dataset"
	"slamgo/internal/sharedfs"
)

// Source reports where a Sequence call's frames came from; campaign
// provenance surfaces it per cell.
type Source string

const (
	// SourceMemory is an in-process reuse of a sequence this cache
	// already holds materialised.
	SourceMemory Source = "memory"
	// SourceDisk is a verified disk hit: another process (or a previous
	// run) rendered the sequence and this call loaded it.
	SourceDisk Source = "cache"
	// SourceRender means this call rendered the sequence and published
	// it to the cache.
	SourceRender Source = "render"
	// SourceInline means the cache degraded: the sequence was rendered
	// inline because some cache layer failed (unwritable directory,
	// unreadable artifact, failed save, wedged lease). Correct but
	// uncached.
	SourceInline Source = "inline"
)

// sources maps the store's outcomes onto provenance labels.
var sources = map[sharedfs.Outcome]Source{
	sharedfs.Hit: SourceDisk, sharedfs.Computed: SourceRender, sharedfs.Inline: SourceInline,
}

// Stats counts cache activity since New. Renders counts renderer
// invocations that published (or tried to publish) to the cache;
// Degradations counts inline fallbacks — the acceptance number for
// "each distinct sequence rendered exactly once per shared store" is
// the sum of Renders over every cooperating process.
type Stats struct {
	Renders      int `json:"renders"`
	DiskHits     int `json:"disk_hits"`
	MemoryHits   int `json:"memory_hits"`
	Degradations int `json:"degradations"`
	Evictions    int `json:"evictions"`
}

// RenderFunc produces the sequence for a key when the cache cannot.
type RenderFunc func() (*dataset.MemorySequence, error)

// Options configures a cache: Dir empty means memory-only (the cache
// still single-flights and memoises in-process, nothing touches disk).
type Options = sharedfs.CacheOptions

// Cache is a content-addressed rendered-sequence cache. Safe for
// concurrent use by any number of goroutines; any number of processes
// may share its directory.
type Cache struct {
	store *sharedfs.Store

	mu         sync.Mutex
	entries    map[string]*entry
	memoryHits int
}

// entry single-flights one key in-process: the per-entry lock serialises
// concurrent Sequence calls for the key (first caller renders or loads,
// the rest reuse), while distinct keys proceed in parallel.
type entry struct {
	mu  sync.Mutex
	seq *dataset.MemorySequence
}

// New opens (creating if needed) a cache over opts.Dir. New never
// fails: an unusable directory is a degraded cache, not a broken
// campaign — every subsequent miss renders inline.
func New(opts Options) *Cache {
	return &Cache{store: sharedfs.OpenCache("seqcache", ".seq", nil, opts), entries: map[string]*entry{}}
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	st := c.store.Counters()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Renders: st.Computes, DiskHits: st.Hits, MemoryHits: c.memoryHits,
		Degradations: st.Degradations, Evictions: st.Evictions}
}

// InjectFaults arms the fault plan (crash-safety tests only).
func (c *Cache) InjectFaults(plan sharedfs.FaultPlan) { c.store.InjectFaults(plan) }

// Injected reports how many injected faults have fired.
func (c *Cache) Injected() int { return c.store.Injected() }

// Sequence returns the rendered sequence for key, rendering via render
// on a miss: an in-process memory hit, else the store's ladder (verified
// disk hit → lease-coordinated render-and-publish → inline render). The
// returned sequence is shared and must be treated as immutable — every
// consumer in this repo already treats sequences as read-only.
//
// The only non-nil error Sequence can return is the renderer's own:
// cache faults degrade, but if the sequence cannot be *rendered* the
// infrastructure is broken and the caller must know.
func (c *Cache) Sequence(key string, render RenderFunc) (*dataset.MemorySequence, Source, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &entry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seq != nil {
		c.mu.Lock()
		c.memoryHits++
		c.mu.Unlock()
		return e.seq, SourceMemory, nil
	}
	var seq *dataset.MemorySequence
	out, err := c.store.Get(key, func(data []byte) error {
		payload, err := frame.OpenKey(key, data)
		if err == nil {
			seq, err = decodeSequence(payload)
		}
		return err
	}, func() ([]byte, error) {
		var err error
		if seq, err = render(); err != nil || c.store.Dir() == "" {
			return nil, err // memory-only mode publishes nothing
		}
		return Encode(key, seq), nil
	})
	if err != nil {
		return nil, sources[out], err
	}
	e.seq = seq
	return seq, sources[out], nil
}
