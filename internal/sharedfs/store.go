// Package sharedfs is the compute-once layer under every directory this
// repository shares between cooperating processes: the rendered-sequence
// cache (internal/seqcache), the simulation-result store
// (internal/evalstore) and the campaign checkpoint store
// (internal/campaign). Each of those is a payload codec and a key schema
// over one Store; the artifact frame, the ladder, its policies and its
// crash-safety contract live here, once.
//
// # The artifact frame
//
// Every artifact of the three stores is its codec's payload sealed in a
// Frame (Frame.Seal), all little-endian:
//
//	magic | u32 version | u32 len(key) | key | payload | sha256 of all before
//
// The magic names the codec ("SQC1" sequences, "EVR1" evaluation
// records, "CKPT" checkpoint artifacts, whose payload is JSON) and the
// version its payload format. The embedded key (at most 4 KiB) makes an
// artifact copied or renamed to the wrong slot unloadable as something
// it is not; the trailing checksum catches truncation, torn writes and
// bit rot in all three stores, checkpoint artifacts included.
// Frame.OpenKey verifies the checksum, magic, version, key length and
// key, and only then hands the payload to the codec.
//
// # The ladder
//
// Store.Get resolves a key, in order:
//
//  1. verified disk load — the artifact is read and handed to the
//     caller's decode, which opens the frame and decodes the payload;
//  2. lease-coordinated compute-and-publish — the worker claims the
//     key's lease (see LeaseManager), loads once more (a peer may have
//     published and released between the miss and the claim), and only
//     then computes under a heartbeat and publishes atomically. Waiters
//     poll on a deterministic backoff until the artifact appears or the
//     holder's lease expires and is taken over;
//  3. the store failure policy (below).
//
// # Crash-safety contract
//
//   - Writes are atomic (temp file + fsync + rename, WriteFileAtomic)
//     and every writer of a key produces identical bytes, so concurrent
//     writers — racing goroutines or racing processes — are benign: the
//     last complete rename wins and the winner is indistinguishable from
//     the loser.
//   - Every artifact is framed and verified on load. Any defect —
//     absent, truncated, torn, bit-rotted, version-mismatched, misfiled —
//     is a miss that recomputing repairs in place, never an error and
//     never bad data.
//   - Real I/O faults ride the bounded deterministic retry ladder
//     (RetryPolicy); misses are never retried.
//   - Leases are a work-distribution optimisation, not a correctness
//     mechanism: a takeover racing a slow-but-alive holder costs a
//     duplicate computation, never a wrong artifact. Leases are released
//     on every exit, a panicking compute included.
//   - Opening a store sweeps the debris SIGKILLed processes leave behind
//     (SweepDebris); a byte budget is enforced by deterministic
//     lexicographic eviction, so cooperating processes evict identically.
//
// # Policies
//
// A Store is configured, not specialised, per caller. The sequence cache
// and the evaluation store set Inline: every store failure — an
// unusable directory, an unreadable artifact after retries, a failed
// publish, a lease fault, a holder that heartbeats but never publishes
// (bounded wait) — is logged, counted as a degradation and answered by
// computing without the store; they can lose every byte they own and
// still return correct results. The campaign checkpoint store returns
// those failures as errors instead, waits on a live holder without
// bound, and aborts a wait through Wait when the campaign is canceled.
package sharedfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config configures a Store.
type Config struct {
	// Label prefixes log lines and errors ("seqcache", "campaign", …).
	Label string
	// Dir is the shared directory; empty means no disk: Get always
	// computes, which is the store working as configured, not degraded.
	Dir string
	// Ext is the artifact file suffix (".seq", ".evr", ".ckp").
	Ext string
	// Shard, when non-nil, maps a key to the subdirectory its artifact
	// lives in; lease files always live flat in Dir.
	Shard func(key string) string
	// Worker names this process in lease files; empty disables lease
	// coordination (load, then compute and publish).
	Worker string
	// LeaseTTL is the heartbeat deadline after which a holder's lease may
	// be taken over. Default 10s.
	LeaseTTL time.Duration
	// MaxBytes bounds the artifacts' total size; 0 means unbounded.
	MaxBytes int64
	// Inline answers every store failure by computing without the store
	// (logged and counted as a degradation) instead of returning it. It
	// also bounds the wait on a live holder (maxLeasePolls), since only a
	// caller that can compute inline has anything better to do than wait.
	Inline bool
	// Wait, when non-nil, runs before every lease attempt; its error
	// aborts Get unwrapped (cooperative cancellation).
	Wait func() error
	// Log (nil = discard) receives degradation and hygiene messages.
	Log func(format string, args ...any)
	// Sleep (nil = time.Sleep) paces retries and lease polls.
	Sleep func(time.Duration)
	// Now (nil = time.Now) is the lease and debris clock.
	Now func() time.Time
}

// CacheOptions configures a store opened with OpenCache: the rendered
// sequence cache and the evaluation store.
type CacheOptions struct {
	// Dir is the shared directory; empty means no disk.
	Dir string
	// Worker identifies this process in lease files. Defaults to
	// "pid<pid>" — lease contents never influence results, so a
	// non-deterministic default is safe.
	Worker string
	// LeaseTTL bounds how long a dead worker can block a key before
	// takeover. Default 10s.
	LeaseTTL time.Duration
	// MaxBytes bounds the on-disk size; 0 means unbounded. Enforced
	// after saves by deterministic eviction (lexicographic key order,
	// newest write exempt), so cooperating processes evict identically.
	MaxBytes int64
	// Log (may be nil) receives degradation and hygiene messages.
	Log func(format string, args ...any)
	// Sleep (nil = time.Sleep) paces retries and lease polls; tests
	// inject a no-op to stay fast.
	Sleep func(time.Duration)
	// Now (nil = time.Now) is the lease clock; tests inject it to
	// simulate dead workers.
	Now func() time.Time
}

// maxLeasePolls bounds how long an Inline Get waits on another worker's
// live lease before degrading to inline computation: a holder
// that heartbeats forever without ever publishing (wedged, not dead —
// TTL takeover never triggers) must not wedge this process too. At the
// poll ladder's 200ms cap this is ~2 minutes of real waiting.
const maxLeasePolls = 600

// OpenCache opens a store under the caches' policy: Inline, and always
// lease-coordinated. It never fails —
// an unusable directory is logged and degrades every lookup to inline
// computation.
func OpenCache(label, ext string, shard func(key string) string, o CacheOptions) *Store {
	if o.Worker == "" {
		o.Worker = fmt.Sprintf("pid%d", os.Getpid())
	}
	s, _ := Open(Config{
		Label: label, Dir: o.Dir, Ext: ext, Shard: shard,
		Worker: o.Worker, LeaseTTL: o.LeaseTTL, MaxBytes: o.MaxBytes,
		Inline: true, Log: o.Log, Sleep: o.Sleep, Now: o.Now,
	})
	return s
}

// Outcome reports how Get resolved a key.
type Outcome int

const (
	// Miss means Get returned an error before anything was loaded or
	// computed.
	Miss Outcome = iota
	// Hit is a verified load of an artifact a peer or earlier run
	// published.
	Hit
	// Computed means compute ran here and its artifact was published
	// (or had nothing to publish, or the store has no directory).
	Computed
	// Inline means compute ran without the store because the store
	// failed: correct but unpublished.
	Inline
)

// Counters tallies a Store's activity since Open.
type Counters struct {
	Hits         int // verified loads answering Get
	Computes     int // successful compute calls, inline ones included
	Published    int // artifacts written
	Degradations int // store failures answered by inline computation
	Evictions    int // artifacts removed to stay under MaxBytes
}

// Store is a get-or-compute layer over one shared directory. Safe for
// concurrent use by any number of goroutines; any number of processes
// may share its directory.
type Store struct {
	cfg    Config
	leases *LeaseManager
	faults faultInjector
	broken error // directory unusable: every Get is a store failure

	mu        sync.Mutex
	diskBytes int64 // running size estimate; rescanned when it crosses MaxBytes
	counters  Counters
}

// Open opens (creating if needed) a store over cfg.Dir and sweeps its
// debris. An unusable directory is returned as an error and also
// recorded in the store, whose every Get then fails (or, with Inline,
// computes inline) — so callers with the Inline policy may ignore it.
func Open(cfg Config) (*Store, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	s := &Store{cfg: cfg}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		s.broken = err
		s.logf("%v (store disabled)", err)
		return s, err
	}
	for _, d := range s.dirs() {
		SweepDebris(d, DefaultDebrisAge, cfg.Now)
	}
	if cfg.Worker != "" {
		s.leases = NewLeaseManager(cfg.Dir, cfg.Worker, cfg.LeaseTTL, cfg.Now)
	}
	if cfg.MaxBytes > 0 {
		_, s.diskBytes = s.artifacts()
	}
	return s, nil
}

// Dir returns the store directory ("" when the store has no disk).
func (s *Store) Dir() string { return s.cfg.Dir }

// Path returns where key's artifact lives.
func (s *Store) Path(key string) string {
	if s.cfg.Shard != nil {
		return filepath.Join(s.cfg.Dir, s.cfg.Shard(key), key+s.cfg.Ext)
	}
	return filepath.Join(s.cfg.Dir, key+s.cfg.Ext)
}

// Counters returns a snapshot of the store's counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// InjectFaults arms the fault plan (crash-safety tests only).
func (s *Store) InjectFaults(plan FaultPlan) { s.faults.arm(plan) }

// Injected reports how many injected faults have fired — tests assert
// it to prove the schedule actually exercised the recovery paths.
func (s *Store) Injected() int { return s.faults.fired() }

func (s *Store) bump(f func(*Counters)) {
	s.mu.Lock()
	f(&s.counters)
	s.mu.Unlock()
}

func (s *Store) logf(format string, args ...any) {
	s.cfg.Log(s.cfg.Label+": "+format, args...)
}

// testHookBeforeAcquire, when set by a test, runs between a Get's load
// miss and its lease attempt — the window in which a peer can publish
// and release.
var testHookBeforeAcquire func(key string)

// Get returns key's artifact through the ladder described in the
// package comment. decode parses and verifies loaded bytes, keeping the
// value it decoded; an error marks the artifact defective (a miss).
// compute produces the value (kept by the caller) and returns the bytes
// to publish; nil bytes publish nothing. compute's own error is
// returned as is; a store failure is returned only without Inline.
func (s *Store) Get(key string, decode func([]byte) error, compute func() ([]byte, error)) (Outcome, error) {
	if s.cfg.Dir == "" {
		_, err := s.compute(compute)
		return Computed, err
	}
	if s.broken != nil {
		return s.fail(key, fmt.Errorf("directory unusable: %w", s.broken), compute)
	}
	// Deterministic poll ladder while a live worker holds the lease: 10ms
	// doubling to a 200ms cap. Wall-clock enters scheduling only.
	delay := 10 * time.Millisecond
	for polls := 0; ; polls++ {
		if hit, err := s.Load(key, decode); hit || err != nil {
			return s.loaded(key, err, compute)
		}
		if s.leases == nil {
			return s.computeAndPublish(key, compute)
		}
		if testHookBeforeAcquire != nil {
			testHookBeforeAcquire(key)
		}
		if s.cfg.Wait != nil {
			if err := s.cfg.Wait(); err != nil {
				return Miss, err
			}
		}
		lease, acquired, err := s.leases.TryAcquire(key)
		if err != nil {
			return s.fail(key, err, compute)
		}
		if acquired {
			return s.computeLeased(key, lease, decode, compute)
		}
		if s.cfg.Inline && polls >= maxLeasePolls {
			return s.fail(key, errors.New("the lease holder never published"), compute)
		}
		s.cfg.Sleep(delay)
		delay = min(2*delay, 200*time.Millisecond)
	}
}

// computeLeased runs under a held lease: load once more, since a peer
// may have published and released between this worker's miss and its
// acquire, and compute only on a second miss. The lease is released on
// every exit, a panicking compute included.
func (s *Store) computeLeased(key string, lease *Lease, decode func([]byte) error, compute func() ([]byte, error)) (Outcome, error) {
	stop := heartbeat(lease, s.cfg.LeaseTTL, s.logf)
	defer stop()
	if hit, err := s.Load(key, decode); hit || err != nil {
		return s.loaded(key, err, compute)
	}
	return s.computeAndPublish(key, compute)
}

// loaded finishes a Get whose load hit (err nil) or failed.
func (s *Store) loaded(key string, err error, compute func() ([]byte, error)) (Outcome, error) {
	if err != nil {
		return s.fail(key, err, compute)
	}
	s.bump(func(c *Counters) { c.Hits++ })
	return Hit, nil
}

// fail applies the store failure policy: return the failure, or with
// Inline compute without the store.
func (s *Store) fail(key string, err error, compute func() ([]byte, error)) (Outcome, error) {
	if !s.cfg.Inline {
		return Miss, err
	}
	return s.Inline(key, err.Error(), compute)
}

// Inline is the bottom of the degradation ladder: compute without the
// store, log why, count a degradation. The only error out of here is
// compute's own.
func (s *Store) Inline(key, why string, compute func() ([]byte, error)) (Outcome, error) {
	s.logf("%s: %s; computing inline", key, why)
	_, err := s.compute(compute)
	s.bump(func(c *Counters) { c.Degradations++ })
	return Inline, err
}

func (s *Store) compute(compute func() ([]byte, error)) ([]byte, error) {
	data, err := compute()
	if err == nil {
		s.bump(func(c *Counters) { c.Computes++ })
	}
	return data, err
}

// computeAndPublish computes key and publishes its artifact. With
// Inline a failed publish degrades — the computed value is still good,
// only the store failed.
func (s *Store) computeAndPublish(key string, compute func() ([]byte, error)) (Outcome, error) {
	data, err := s.compute(compute)
	if err != nil || data == nil {
		return Computed, err
	}
	if err := s.Put(key, data); err != nil {
		if !s.cfg.Inline {
			return Computed, err
		}
		s.logf("%s: %v; result served inline", key, err)
		s.bump(func(c *Counters) { c.Degradations++ })
		return Inline, nil
	}
	return Computed, nil
}

// Put publishes data as key's artifact atomically, riding the retry
// ladder over transient faults, then enforces MaxBytes. Each attempt is
// one fault-plan save op.
func (s *Store) Put(key string, data []byte) error {
	path := s.Path(key)
	dir := filepath.Dir(path)
	err := DefaultRetryPolicy().Retry(s.cfg.Label+": saving "+key, s.cfg.Sleep, func() error {
		return s.faults.save(path, func() error {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			return WriteFileAtomic(dir, path, key, data)
		})
	})
	if err != nil {
		return err
	}
	s.bump(func(c *Counters) { c.Published++ })
	s.noteWritten(key, int64(len(data)))
	return nil
}

// Load reads key's artifact and hands it to decode. hit=false with a nil
// error is a clean miss (absent, or defective — logged, and
// recomputing repairs it); a non-nil error is a real I/O fault that
// survived the retry ladder. Each attempt is one fault-plan load op;
// misses are never retried.
func (s *Store) Load(key string, decode func([]byte) error) (hit bool, err error) {
	path := s.Path(key)
	err = DefaultRetryPolicy().Retry(s.cfg.Label+": loading "+key, s.cfg.Sleep, func() error {
		hit = false
		if err := s.faults.load(path); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := decode(data); err != nil {
			s.logf("%s: %v; treating as miss", key, err)
			return nil
		}
		hit = true
		return nil
	})
	return hit && err == nil, err
}

// dirs lists the directories artifacts and debris live in: Dir, plus
// its subdirectories when the store is sharded.
func (s *Store) dirs() []string {
	out := []string{s.cfg.Dir}
	if s.cfg.Shard == nil {
		return out
	}
	ents, _ := os.ReadDir(s.cfg.Dir) // unreadable: nothing to sweep or scan
	for _, e := range ents {
		if e.IsDir() {
			out = append(out, filepath.Join(s.cfg.Dir, e.Name()))
		}
	}
	return out
}

type artifact struct {
	key  string
	size int64
}

// artifacts lists every artifact in lexicographic key order with their
// total size (best-effort: unreadable entries count as absent).
func (s *Store) artifacts() (arts []artifact, total int64) {
	for _, d := range s.dirs() {
		ents, _ := os.ReadDir(d)
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), s.cfg.Ext) {
				continue
			}
			if info, err := e.Info(); err == nil {
				arts = append(arts, artifact{strings.TrimSuffix(e.Name(), s.cfg.Ext), info.Size()})
				total += info.Size()
			}
		}
	}
	sort.Slice(arts, func(i, j int) bool { return arts[i].key < arts[j].key })
	return arts, total
}

// noteWritten advances the size estimate after a publish and evicts when
// it crosses MaxBytes: rescan (other processes' writes are invisible to
// the estimate), then remove artifacts in lexicographic key order — a
// pure function of the directory contents, so every cooperating process
// evicts identically — until under budget. The just-published key is
// exempt (evicting what the caller is about to use would thrash).
// Best-effort: an evicted artifact another process still wanted is
// just a future miss.
func (s *Store) noteWritten(key string, size int64) {
	if s.cfg.MaxBytes <= 0 {
		return
	}
	s.mu.Lock()
	s.diskBytes += size
	over := s.diskBytes > s.cfg.MaxBytes
	s.mu.Unlock()
	if !over {
		return
	}
	arts, total := s.artifacts()
	for _, a := range arts {
		if total <= s.cfg.MaxBytes {
			break
		}
		if a.key == key {
			continue
		}
		if err := os.Remove(s.Path(a.key)); err != nil {
			s.logf("evict %s: %v", a.key, err)
			continue
		}
		total -= a.size
		s.bump(func(c *Counters) { c.Evictions++ })
		s.logf("evicted %s (%d bytes) to stay under %d", a.key, a.size, s.cfg.MaxBytes)
	}
	s.mu.Lock()
	s.diskBytes = total
	s.mu.Unlock()
}
