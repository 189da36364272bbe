package sharedfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The fault matrix of the compute-once layer, run once against Store
// with a trivial codec: an artifact is "<key>=<value>", and decode
// rejects anything else — the same contract the SQC1, EVR1 and
// checkpoint codecs implement through Frame.

func encode(key, value string) []byte { return []byte(key + "=" + value) }

// openStore builds an Inline store (the caches' policy) over dir with
// fast test plumbing; mut adjusts the config.
func openStore(t *testing.T, dir string, mut func(*Config)) *Store {
	t.Helper()
	cfg := Config{
		Label: "test", Dir: dir, Ext: ".art", Worker: "tester",
		LeaseTTL: time.Minute, Inline: true,
		Log: t.Logf, Sleep: func(time.Duration) {},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, _ := Open(cfg)
	return s
}

// get resolves key through s, computing "fresh" and counting computes;
// it returns the outcome and the value Get produced.
func get(s *Store, key string, computes *int) (Outcome, string, error) {
	var value string
	out, err := s.Get(key, func(data []byte) error {
		v, ok := strings.CutPrefix(string(data), key+"=")
		if !ok {
			return fmt.Errorf("artifact %q is not keyed %s", data, key)
		}
		value = v
		return nil
	}, func() ([]byte, error) {
		*computes++
		value = "fresh"
		return encode(key, value), nil
	})
	return out, value, err
}

// writeArtifact plants raw artifact bytes for key.
func writeArtifact(t *testing.T, s *Store, key string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(s.Path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// everyOp schedules kind on the first n ops.
func everyOp(kind FaultKind, n int) map[int]FaultKind {
	m := map[int]FaultKind{}
	for i := 0; i < n; i++ {
		m[i] = kind
	}
	return m
}

// noDebris fails the test if dir (or a shard) leaked temp files.
func noDebris(t *testing.T, dir string) {
	t.Helper()
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && IsTempFile(d.Name()) {
			t.Errorf("leaked temp file %s", path)
		}
		return nil
	})
}

func TestFaultMatrix(t *testing.T) {
	const key = "item"
	past := func() time.Time { return time.Now().Add(-time.Hour) }
	cases := []struct {
		name string
		// prepare plants state in dir before the store under test opens;
		// peer is a second store over dir, for its artifact paths.
		prepare  func(t *testing.T, dir string, peer *Store)
		cfg      func(c *Config)
		plan     FaultPlan
		want     Outcome
		value    string // value Get returns
		computes int
		counters Counters
		// republished: the store holds a readable artifact afterwards.
		republished bool
	}{
		{
			name: "clean miss computes and publishes",
			want: Computed, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Published: 1}, republished: true,
		},
		{
			name:    "published artifact is a verified hit",
			prepare: func(t *testing.T, dir string, p *Store) { writeArtifact(t, p, key, encode(key, "peer")) },
			want:    Hit, value: "peer", counters: Counters{Hits: 1}, republished: true,
		},
		{
			name: "corrupt artifact is a miss that recomputing repairs",
			prepare: func(t *testing.T, dir string, p *Store) {
				writeArtifact(t, p, key, []byte("bit-rotted bytes"))
			},
			want: Computed, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Published: 1}, republished: true,
		},
		{
			name: "misfiled artifact is a miss",
			prepare: func(t *testing.T, dir string, p *Store) {
				writeArtifact(t, p, key, encode("other", "peer"))
			},
			want: Computed, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Published: 1}, republished: true,
		},
		{
			name:    "injected corrupt read is a miss, not a degradation",
			prepare: func(t *testing.T, dir string, p *Store) { writeArtifact(t, p, key, encode(key, "peer")) },
			plan:    FaultPlan{Load: map[int]FaultKind{0: FaultCorruptRead}},
			want:    Computed, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Published: 1}, republished: true,
		},
		{
			name: "ENOSPC on every save degrades to inline",
			plan: FaultPlan{Save: everyOp(FaultWriteError, 8)},
			want: Inline, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Degradations: 1},
		},
		{
			name: "transient short write is healed by the retry",
			plan: FaultPlan{Save: map[int]FaultKind{0: FaultShortWrite}},
			want: Computed, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Published: 1}, republished: true,
		},
		{
			name:    "transient EIO on read is absorbed by the retry",
			prepare: func(t *testing.T, dir string, p *Store) { writeArtifact(t, p, key, encode(key, "peer")) },
			plan:    FaultPlan{Load: map[int]FaultKind{0: FaultReadError}},
			want:    Hit, value: "peer", counters: Counters{Hits: 1}, republished: true,
		},
		{
			name:    "EIO on every read degrades to inline",
			prepare: func(t *testing.T, dir string, p *Store) { writeArtifact(t, p, key, encode(key, "peer")) },
			plan:    FaultPlan{Load: everyOp(FaultReadError, 8)},
			want:    Inline, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Degradations: 1}, republished: true,
		},
		{
			name: "dead holder's lease is taken over",
			prepare: func(t *testing.T, dir string, p *Store) {
				if _, ok, err := NewLeaseManager(dir, "dead", time.Minute, past).TryAcquire(key); !ok || err != nil {
					t.Fatalf("planting stale lease: %v", err)
				}
			},
			cfg:  func(c *Config) { c.LeaseTTL = 50 * time.Millisecond },
			want: Computed, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Published: 1}, republished: true,
		},
		{
			name: "live holder's publication arrives during the poll",
			prepare: func(t *testing.T, dir string, p *Store) {
				if _, ok, err := NewLeaseManager(dir, "peer", time.Hour, nil).TryAcquire(key); !ok || err != nil {
					t.Fatalf("planting live lease: %v", err)
				}
			},
			cfg: func(c *Config) {
				published := false
				c.Sleep = func(time.Duration) {
					if !published {
						published = true
						os.WriteFile(filepath.Join(c.Dir, key+c.Ext), encode(key, "peer"), 0o644)
					}
				}
			},
			want: Hit, value: "peer", counters: Counters{Hits: 1}, republished: true,
		},
		{
			name: "wedged holder is bounded, then inline",
			prepare: func(t *testing.T, dir string, p *Store) {
				if _, ok, err := NewLeaseManager(dir, "wedged", time.Hour, nil).TryAcquire(key); !ok || err != nil {
					t.Fatalf("planting wedged lease: %v", err)
				}
			},
			want: Inline, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Degradations: 1},
		},
		{
			name: "unusable directory degrades everything",
			cfg: func(c *Config) {
				c.Dir = filepath.Join(c.Dir, "occupied")
				os.WriteFile(c.Dir, []byte("not a directory"), 0o644)
			},
			want: Inline, value: "fresh", computes: 1,
			counters: Counters{Computes: 1, Degradations: 1},
		},
		{
			name: "no directory computes without degrading",
			cfg:  func(c *Config) { c.Dir = "" },
			want: Computed, value: "fresh", computes: 1,
			counters: Counters{Computes: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.prepare != nil {
				tc.prepare(t, dir, openStore(t, dir, nil))
			}
			s := openStore(t, dir, func(c *Config) {
				if tc.cfg != nil {
					tc.cfg(c)
				}
			})
			s.InjectFaults(tc.plan)
			computes := 0
			out, value, err := get(s, key, &computes)
			if err != nil || out != tc.want || value != tc.value || computes != tc.computes {
				t.Fatalf("Get = %v %q %v after %d computes; want %v %q after %d",
					out, value, err, computes, tc.want, tc.value, tc.computes)
			}
			if got := s.Counters(); got != tc.counters {
				t.Fatalf("counters = %+v, want %+v", got, tc.counters)
			}
			if fired, planned := s.Injected(), len(tc.plan.Save)+len(tc.plan.Load); planned > 0 && fired == 0 {
				t.Fatalf("fault plan never fired")
			}
			if s.Dir() == "" || s.broken != nil {
				return
			}
			if _, err := os.Stat(filepath.Join(dir, key+".lease")); tc.want == Computed && !os.IsNotExist(err) {
				t.Fatalf("lease not released (stat err %v)", err)
			}
			after := 0
			if out, _, _ := get(openStore(t, dir, nil), key, &after); (out == Hit) != tc.republished {
				t.Fatalf("next store's Get = %v, want a hit: %v", out, tc.republished)
			}
			noDebris(t, dir)
		})
	}
}

// TestFailurePolicyReturnsErrors runs the store failures of the matrix
// under the checkpoint store's policy: no Inline, no poll bound. Each is
// returned to the caller instead of degrading, and Wait aborts a wait on
// a live holder.
func TestFailurePolicyReturnsErrors(t *testing.T) {
	const key = "item"
	canceled := errors.New("canceled")
	cases := []struct {
		name    string
		prepare func(t *testing.T, s *Store)
		cfg     func(c *Config)
		want    error
		// computed: compute ran before the failure surfaced.
		computed bool
	}{
		{
			name:    "EIO on every read",
			prepare: func(t *testing.T, s *Store) { s.InjectFaults(FaultPlan{Load: everyOp(FaultReadError, 8)}) },
			want:    syscall.EIO,
		},
		{
			name:     "ENOSPC on every save",
			prepare:  func(t *testing.T, s *Store) { s.InjectFaults(FaultPlan{Save: everyOp(FaultWriteError, 8)}) },
			want:     syscall.ENOSPC,
			computed: true,
		},
		{
			name: "unusable directory",
			cfg: func(c *Config) {
				c.Dir = filepath.Join(c.Dir, "occupied")
				os.WriteFile(c.Dir, []byte("not a directory"), 0o644)
			},
			want: syscall.ENOTDIR,
		},
		{
			name: "cancellation while a live holder works",
			prepare: func(t *testing.T, s *Store) {
				if _, ok, err := NewLeaseManager(s.Dir(), "peer", time.Hour, nil).TryAcquire(key); !ok || err != nil {
					t.Fatalf("planting live lease: %v", err)
				}
			},
			cfg: func(c *Config) {
				polls := 0
				c.Wait = func() error {
					if polls++; polls > 3 {
						return canceled
					}
					return nil
				}
			},
			want: canceled,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t, t.TempDir(), func(c *Config) {
				c.Inline = false
				if tc.cfg != nil {
					tc.cfg(c)
				}
			})
			if tc.prepare != nil {
				tc.prepare(t, s)
			}
			computes := 0
			if _, _, err := get(s, key, &computes); !errors.Is(err, tc.want) {
				t.Fatalf("Get error = %v, want %v", err, tc.want)
			}
			if (computes == 1) != tc.computed {
				t.Fatalf("computes = %d, want computed=%v", computes, tc.computed)
			}
			if d := s.Counters().Degradations; d != 0 {
				t.Fatalf("%d degradations without the Inline policy", d)
			}
		})
	}
}

// TestMissIsNeverRetried pins that a clean miss costs one load attempt
// and no backoff: a miss means "compute", not "the store is down".
func TestMissIsNeverRetried(t *testing.T) {
	var slept []time.Duration
	s := openStore(t, t.TempDir(), func(c *Config) {
		c.Sleep = func(d time.Duration) { slept = append(slept, d) }
	})
	if hit, err := s.Load("absent", func([]byte) error { return nil }); hit || err != nil {
		t.Fatalf("Load = %v, %v; want clean miss", hit, err)
	}
	if len(slept) != 0 {
		t.Fatalf("miss retried with backoff %v", slept)
	}
}

// TestPeerPublishesBetweenMissAndAcquire forces the check-then-acquire
// interleaving: after this worker's load miss a peer publishes and
// releases, so the lease is free when this worker claims it. The
// re-check after acquiring must find the artifact: zero computes.
func TestPeerPublishesBetweenMissAndAcquire(t *testing.T) {
	const key = "item"
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	peer := NewLeaseManager(dir, "peer", time.Hour, nil)
	testHookBeforeAcquire = func(k string) {
		lease, ok, err := peer.TryAcquire(k)
		if !ok || err != nil {
			t.Errorf("peer could not claim %s: %v", k, err)
			return
		}
		writeArtifact(t, s, k, encode(k, "peer"))
		lease.Release()
	}
	defer func() { testHookBeforeAcquire = nil }()
	computes := 0
	out, value, err := get(s, key, &computes)
	if err != nil || out != Hit || value != "peer" || computes != 0 {
		t.Fatalf("Get = %v %q %v after %d computes; want the peer's hit and 0 computes",
			out, value, err, computes)
	}
	if _, _, ok := peer.Holder(key); ok {
		t.Fatal("lease not released after the re-check hit")
	}
}

// TestPanickingComputeReleasesLease: a panicking compute (campaign cells
// quarantine those) must not leave its lease heartbeating, or every
// later caller of the key would wait out the poll bound.
func TestPanickingComputeReleasesLease(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	func() {
		defer func() { recover() }()
		s.Get("item", func([]byte) error { return nil }, func() ([]byte, error) { panic("compute panic") })
		t.Fatal("panic swallowed")
	}()
	if _, _, ok := NewLeaseManager(dir, "x", time.Minute, nil).Holder("item"); ok {
		t.Fatal("panicking compute leaked its lease")
	}
}

func TestEvictionIsDeterministicAndSparesNewestWrite(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			dir := t.TempDir()
			one := int64(len(encode("k-a", "fresh")))
			cfg := func(c *Config) {
				c.MaxBytes = 2*one + one/2
				if sharded {
					c.Shard = func(key string) string { return key[len(key)-1:] }
				}
			}
			// Budget for about two artifacts: publishing the third must
			// evict exactly one, and in lexicographic order with the fresh
			// write exempt that is always "k-a".
			s := openStore(t, dir, cfg)
			computes := 0
			for _, key := range []string{"k-c", "k-a", "k-b"} {
				get(s, key, &computes)
			}
			if st := s.Counters(); st.Evictions != 1 {
				t.Fatalf("evictions = %d, want 1 (counters %+v)", st.Evictions, st)
			}
			for key, want := range map[string]bool{"k-a": false, "k-b": true, "k-c": true} {
				if _, err := os.Stat(s.Path(key)); (err == nil) != want {
					t.Fatalf("%s present=%v, want %v", key, err == nil, want)
				}
			}
			// An evicted artifact is a plain miss for the next process.
			if out, _, _ := get(openStore(t, dir, cfg), "k-a", &computes); out != Computed {
				t.Fatalf("evicted Get = %v, want recompute", out)
			}
		})
	}
}

func TestOpenSweepsDebris(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-time.Hour)
	os.MkdirAll(filepath.Join(dir, "ab"), 0o755)
	tmps := []string{filepath.Join(dir, ".tmp-a-zzz"), filepath.Join(dir, "ab", ".tmp-b-yyy")}
	for _, p := range tmps {
		os.WriteFile(p, []byte("half an artifact"), 0o644)
		os.Chtimes(p, old, old)
	}
	NewLeaseManager(dir, "dead", time.Minute, func() time.Time { return old }).TryAcquire("dead")

	openStore(t, dir, func(c *Config) { c.Shard = func(key string) string { return key[:2] } })
	for _, p := range append(tmps, filepath.Join(dir, "dead.lease")) {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("debris %s survived open", p)
		}
	}
}

// TestLeaseNeverReadHalfCreated pins the atomic create: at the instant a
// claim's lease file becomes visible it already carries the holder's
// fresh heartbeat, so a peer reading it then sees a live lease and
// cannot take it over.
func TestLeaseNeverReadHalfCreated(t *testing.T) {
	dir := t.TempDir()
	a := NewLeaseManager(dir, "a", time.Minute, nil)
	b := NewLeaseManager(dir, "b", time.Minute, nil)
	checked := false
	testHookLeaseCreated = func(name string) {
		if checked {
			return
		}
		checked = true
		if w, expired, ok := b.Holder(name); !ok || w != "a" || expired {
			t.Errorf("fresh lease read as %q expired=%v ok=%v, want a live lease of a", w, expired, ok)
		}
		if _, ok, err := b.TryAcquire(name); ok || err != nil {
			t.Errorf("peer took over a lease being created (ok=%v err=%v)", ok, err)
		}
	}
	defer func() { testHookLeaseCreated = nil }()
	if _, ok, err := a.TryAcquire("cell"); !ok || err != nil {
		t.Fatalf("TryAcquire = %v, %v", ok, err)
	}
	if !checked {
		t.Fatal("hook never ran")
	}
}
