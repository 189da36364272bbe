package sharedfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRetryPolicyDelayCaps(t *testing.T) {
	p := DefaultRetryPolicy()
	if d := p.Delay(10); d != p.MaxDelay {
		t.Fatalf("Delay(10) = %v, want cap %v", d, p.MaxDelay)
	}
	if d := p.Delay(63); d != p.MaxDelay { // shift overflow must not go negative
		t.Fatalf("Delay(63) = %v, want cap %v", d, p.MaxDelay)
	}
	if d := p.Delay(1); d != p.BaseDelay {
		t.Fatalf("Delay(1) = %v, want base %v", d, p.BaseDelay)
	}
}

func TestRetryRecoversAndExhausts(t *testing.T) {
	var slept []time.Duration
	sleep := func(d time.Duration) { slept = append(slept, d) }
	fails := 2
	err := DefaultRetryPolicy().Retry("op", sleep, func() error {
		if fails > 0 {
			fails--
			return os.ErrPermission
		}
		return nil
	})
	if err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff = %v, want [10ms 20ms]", slept)
	}

	slept = nil
	err = DefaultRetryPolicy().Retry("op", sleep, func() error { return os.ErrPermission })
	if err == nil {
		t.Fatal("permanent fault not reported")
	}
	// The deterministic ladder: one sleep between each of the 5 attempts.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("backoff = %v, want %v", slept, want)
	}
	if !errors.Is(err, os.ErrPermission) {
		t.Fatalf("exhaustion error %v does not wrap the cause", err)
	}
}

func TestWriteFileAtomicPublishesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	data := []byte("hello, crash safety")
	if err := WriteFileAtomic(dir, path, "out", data); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if IsTempFile(e.Name()) {
			t.Fatalf("temp file leaked: %s", e.Name())
		}
	}
}

// TestSweepDebris seeds a shared directory with every kind of crash
// litter next to valid artifacts and proves the sweep removes exactly
// the debris: old temp files and dead leases go, fresh temp files
// (a live writer), fresh leases (a live holder) and artifacts stay.
func TestSweepDebris(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	old := now.Add(-time.Hour)

	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	age := func(path string) {
		t.Helper()
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}

	write("artifact.json", []byte(`{"version":1}`))
	age(write("old-artifact.json", []byte(`{"version":1}`))) // old but valid: kept
	age(write(".tmp-dead-writer-123", []byte("partial")))
	write(".tmp-live-writer-456", []byte("in flight"))
	write("cell.lease", leaseBytes(t, "dead", now.Add(-time.Hour)))
	write("live.lease", leaseBytes(t, "alive", now))
	age(write("corrupt.lease", []byte("not json"))) // zero heartbeat: dead

	removed, err := SweepDebris(dir, DefaultDebrisAge, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, n := range removed {
		got[n] = true
	}
	for _, want := range []string{".tmp-dead-writer-123", "cell.lease", "corrupt.lease"} {
		if !got[want] {
			t.Errorf("debris %s not swept (removed: %v)", want, removed)
		}
	}
	for _, keep := range []string{"artifact.json", "old-artifact.json", ".tmp-live-writer-456", "live.lease"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Errorf("%s should have survived the sweep: %v", keep, err)
		}
	}

	// A missing directory sweeps to nothing, not an error.
	if _, err := SweepDebris(filepath.Join(dir, "nope"), DefaultDebrisAge, nil); err != nil {
		t.Fatalf("missing dir: %v", err)
	}
}

func leaseBytes(t *testing.T, worker string, heartbeat time.Time) []byte {
	t.Helper()
	m := NewLeaseManager(t.TempDir(), worker, time.Minute, func() time.Time { return heartbeat })
	return m.record()
}

// TestLeaseRoundtrip exercises the acquire → renew → release cycle and
// takeover of an expired holder at the sharedfs level (the campaign
// suite covers the protocol end-to-end through cooperating workers).
func TestLeaseRoundtrip(t *testing.T) {
	dir := t.TempDir()
	a := NewLeaseManager(dir, "a", time.Minute, nil)
	b := NewLeaseManager(dir, "b", time.Minute, nil)

	la, ok, err := a.TryAcquire("item")
	if err != nil || !ok {
		t.Fatalf("first acquire: ok=%v err=%v", ok, err)
	}
	if la.Name() != "item" {
		t.Fatalf("lease name %q", la.Name())
	}
	if _, ok, _ := b.TryAcquire("item"); ok {
		t.Fatal("second worker stole a live lease")
	}
	if err := la.Renew(); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if err := la.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, ok, err := b.TryAcquire("item"); err != nil || !ok {
		t.Fatalf("acquire after release: ok=%v err=%v", ok, err)
	}

	// Expired holder: a manager whose clock is an hour behind wrote the
	// lease, so a live worker takes it over.
	past := func() time.Time { return time.Now().Add(-time.Hour) }
	dead := NewLeaseManager(dir, "dead", time.Second, past)
	if _, ok, err := dead.TryAcquire("stale"); err != nil || !ok {
		t.Fatalf("staging dead lease: ok=%v err=%v", ok, err)
	}
	live := NewLeaseManager(dir, "live", time.Second, nil)
	ll, ok, err := live.TryAcquire("stale")
	if err != nil || !ok {
		t.Fatalf("takeover: ok=%v err=%v", ok, err)
	}
	if w, _, _ := live.Holder("stale"); w != "live" {
		t.Fatalf("holder after takeover = %q", w)
	}
	if err := ll.Release(); err != nil {
		t.Fatal(err)
	}
}
