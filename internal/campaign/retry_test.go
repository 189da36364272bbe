package campaign

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"slamgo/internal/sharedfs"
)

// openRecordedStore opens a checkpoint store whose retry backoff is
// recorded into slept instead of slept through.
func openRecordedStore(t *testing.T, slept *[]time.Duration) *Store {
	t.Helper()
	s, err := openStore(sharedfs.Config{
		Dir:   t.TempDir(),
		Sleep: func(d time.Duration) { *slept = append(*slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// everyAttempt schedules kind on each of the policy's attempts.
func everyAttempt(kind sharedfs.FaultKind) map[int]sharedfs.FaultKind {
	plan := map[int]sharedfs.FaultKind{}
	for i := 0; i < sharedfs.DefaultRetryPolicy().Attempts; i++ {
		plan[i] = kind
	}
	return plan
}

// TestRetryPolicyDelayCaps drives the checkpoint store's save ladder to
// exhaustion: no backoff may exceed the policy cap, the last one sits on
// it, and the policy's delay stays capped (never negative) for attempt
// counts whose shift overflows.
func TestRetryPolicyDelayCaps(t *testing.T) {
	var slept []time.Duration
	s := openRecordedStore(t, &slept)
	s.InjectFaults(sharedfs.FaultPlan{Save: everyAttempt(sharedfs.FaultWriteError)})
	if err := save(s, "x", 1); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("save = %v, want wrapped ENOSPC", err)
	}
	p := sharedfs.DefaultRetryPolicy()
	if len(slept) == 0 {
		t.Fatal("exhausted save never backed off")
	}
	for _, d := range slept {
		if d > p.MaxDelay {
			t.Fatalf("backoff = %v, exceeds cap %v", slept, p.MaxDelay)
		}
	}
	if last := slept[len(slept)-1]; last != p.MaxDelay {
		t.Fatalf("last backoff = %v, want cap %v", last, p.MaxDelay)
	}
	if d := p.Delay(10); d != p.MaxDelay {
		t.Fatalf("Delay(10) = %v, want cap %v", d, p.MaxDelay)
	}
	if d := p.Delay(63); d != p.MaxDelay { // shift overflow must not go negative
		t.Fatalf("Delay(63) = %v, want cap %v", d, p.MaxDelay)
	}
}

// TestRetryStoreExhaustsDeterministically fails every load attempt of a
// published checkpoint artifact: the store must try exactly the policy's
// attempts, back off on the fixed 10/20/40/80ms ladder, and return an
// error wrapping the cause rather than a miss.
func TestRetryStoreExhaustsDeterministically(t *testing.T) {
	var slept []time.Duration
	s := openRecordedStore(t, &slept)
	if err := save(s, "x", 1); err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(sharedfs.FaultPlan{Load: everyAttempt(sharedfs.FaultReadError)})
	var got int
	ok, err := load(s, "x", &got)
	if ok || !errors.Is(err, syscall.EIO) {
		t.Fatalf("load = %v, %v; want wrapped EIO", ok, err)
	}
	if n := s.Injected(); n != 5 {
		t.Fatalf("load attempts = %d, want 5 (policy attempts)", n)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
	if fmt.Sprint(slept) != fmt.Sprint(want) {
		t.Fatalf("backoff = %v, want %v (the deterministic ladder)", slept, want)
	}
}
