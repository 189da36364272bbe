// Package evalstore is the persistent, content-addressed,
// fault-tolerant store of simulation results. A full-fidelity SLAM
// simulation dwarfs the cost of reading back its four metrics, and a
// campaign grid re-simulates the same configurations once per process,
// once per run, once per follow-up study: the in-memory
// hypermapper.MemoEvaluator forgets everything at process exit. This
// package is the disk tier behind those memos — every evaluation result
// is keyed by a canonical content hash of everything that determines it
// (the exact point encoding, the rendered sequence's content key, the
// device identity, the fidelity stride and a pipeline version), so
// resumed runs, cooperating worker processes and entirely separate
// campaigns sharing a store directory each simulate a distinct
// configuration exactly once, anywhere.
//
// The store is the EVR1 payload codec (format.go), sealed in the
// sharedfs.Frame, and a sharded key schema — `<shard>/<key>.evr`, see
// Scope — over the sharedfs compute-once Store, whose package comment
// describes the frame, the ladder, its crash-safety contract and the
// Inline failure policy this store runs with: every store failure
// degrades to inline simulation, logged and counted in
// Stats.Degradations, never fatal. The store can lose every byte it owns
// and the campaign still completes with an identical report, just
// slower.
//
// Fidelity invariants: the fidelity stride is part of every key, so a
// subsampled screening result can never answer a full-fidelity lookup
// (different key) — and as defence in depth, metrics flagged
// LowFidelity are never published and a record carrying the flag is
// rejected on load as a defect. Metrics flagged Failed are ordinary
// deterministic evaluator outcomes (lost tracking, invalid
// configuration) and round-trip exactly: a Failed record answers a
// lookup as Failed, which callers treat identically to a fresh failed
// simulation — it never certifies feasibility and never enters
// fronts/Best (hypermapper.FullObservations excludes it, exactly as for
// an uncached run). Quarantine-synthesised Failed metrics (a panicking
// cell) never reach the store: the panic unwinds past the publish.
package evalstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"slamgo/internal/hypermapper"
	"slamgo/internal/sharedfs"
)

// Stats counts store activity since Open. Simulations counts evaluator
// invocations issued by the store (cache misses); DiskHits counts
// verified record loads; Degradations counts inline fallbacks — the
// acceptance number for "each distinct configuration simulated exactly
// once per shared store" is the sum of Simulations over every
// cooperating process.
type Stats struct {
	Simulations  int `json:"simulations"`
	DiskHits     int `json:"disk_hits"`
	Published    int `json:"published"`
	Degradations int `json:"degradations"`
	Evictions    int `json:"evictions"`
}

// Options configures a store: Dir empty means disabled (every Evaluate
// simulates, nothing touches disk — callers that want "off" should not
// construct a store at all, but an empty Dir is safe).
type Options = sharedfs.CacheOptions

// Store is a content-addressed simulation-result store. Safe for
// concurrent use by any number of goroutines; any number of processes
// may share its directory. Records are sharded across 256
// two-hex-character subdirectories by key prefix so a long-lived store
// holding every configuration a team ever simulated stays
// filesystem-friendly; lease files live flat in the root where the
// debris sweeper finds them.
type Store struct {
	fs *sharedfs.Store
}

// Open opens (creating if needed) a store over opts.Dir. Open never
// fails: an unusable directory is a degraded store, not a broken
// campaign — every subsequent Evaluate simulates inline.
func Open(opts Options) *Store {
	return &Store{fs: sharedfs.OpenCache("evalstore", ".evr", shardOf, opts)}
}

// Path returns where key's record lives (test and tooling surface —
// the fault suite and the smoke test damage files in place).
func (s *Store) Path(key string) string { return s.fs.Path(key) }

// shardOf maps a key onto its two-hex-character shard directory.
func shardOf(key string) string {
	h := strings.TrimPrefix(key, "ev-")
	if len(h) < 2 {
		return "xx"
	}
	return h[:2]
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := s.fs.Counters()
	return Stats{Simulations: st.Computes, DiskHits: st.Hits, Published: st.Published,
		Degradations: st.Degradations, Evictions: st.Evictions}
}

// InjectFaults arms the fault plan (crash-safety tests only).
func (s *Store) InjectFaults(plan sharedfs.FaultPlan) { s.fs.InjectFaults(plan) }

// Injected reports how many injected faults have fired.
func (s *Store) Injected() int { return s.fs.Injected() }

// Scope binds the store to one evaluation context: the sequence content
// key (core.Scale.CacheKey — hashes every render input), the device
// identity, and the fidelity stride. Every record key is a sha256 over
// this context plus the point's canonical encoding, so results can
// never leak between scenarios, devices or fidelities — distinct
// contexts are distinct key spaces in one shared directory. A Scope is
// a hypermapper.ResultTier: plug it into NewTieredMemoEvaluator.
func (s *Store) Scope(seqKey, device string, stride int) *Scope {
	if stride < 1 {
		stride = 1
	}
	prefix := fmt.Sprintf("evalstore-v%d|seq=%s|dev=%s|stride=%d|",
		frame.Version, seqKey, device, stride)
	return &Scope{store: s, prefix: []byte(prefix)}
}

// Scope is one evaluation context's view of a Store. Safe for
// concurrent use.
type Scope struct {
	store  *Store
	prefix []byte
}

// Key returns the record key for pt in this scope (test and tooling
// surface). Keys are "ev-" plus 40 hex characters of the sha256 over
// the scope prefix and the point's canonical encoding; the encoding is
// prefix-free per scope (fixed 8 bytes per coordinate after a
// delimiter-terminated header), so distinct points, scenarios, devices
// and strides can never share a key.
func (sc *Scope) Key(pt hypermapper.Point) string {
	h := sha256.New()
	h.Write(sc.prefix)
	h.Write(hypermapper.AppendKey(make([]byte, 0, 8*len(pt)), pt))
	return "ev-" + hex.EncodeToString(h.Sum(nil))[:40]
}

// Evaluate returns pt's metrics, simulating via simulate only when no
// cooperating process has published them: the store's ladder, verified
// disk hit → lease-coordinated simulate-and-publish → inline simulation.
// The in-memory layer lives in the MemoEvaluator wrapping this scope,
// so repeated lookups of one point within a process never reach here.
func (sc *Scope) Evaluate(pt hypermapper.Point, simulate hypermapper.Evaluator) hypermapper.Metrics {
	var m hypermapper.Metrics
	run := func() ([]byte, error) { m = simulate(pt); return nil, nil }
	if !hypermapper.KeyablePoint(pt) {
		// No canonical key exists for a NaN coordinate; simulate
		// uncached. Spaces are finite ordinal/integer grids so this is
		// unreachable in practice — guarded so a future space change
		// degrades instead of corrupting the store.
		sc.store.fs.Inline("point", "NaN coordinate (no canonical key)", run)
		return m
	}
	key := sc.Key(pt)
	// Inline policy: Get's only error would be simulate's, which has none.
	sc.store.fs.Get(key, func(data []byte) error {
		payload, err := frame.OpenKey(key, data)
		if err != nil {
			return err
		}
		rec, err := decodeMetrics(payload)
		switch {
		case err != nil:
			return err
		case rec.LowFidelity:
			// Defence in depth: the store never publishes such a record,
			// so it is a defect and must never answer a lookup.
			return errors.New("record flagged LowFidelity (defect)")
		}
		m = rec
		return nil
	}, func() ([]byte, error) {
		run()
		if m.LowFidelity {
			// Never persisted: cached metrics answer future probes as
			// full-fidelity truths for their stride, and the LowFidelity
			// marker exists precisely to say "this is not that". In the
			// current pipeline the flag is applied above the memo layer
			// (MultiFidelity marks unpromoted batch entries after EvalAll),
			// so evaluator output reaching here never carries it — this is
			// the same defence-in-depth as Preload's filter.
			return nil, nil
		}
		return Encode(key, m), nil
	})
	return m
}
